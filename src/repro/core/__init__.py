"""The discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel.  Quick tour:

* :class:`~repro.core.engine.Simulator` — event-driven engine (the default).
* :class:`~repro.core.timedriven.TimeDrivenSimulator` — fixed-increment engine.
* :class:`~repro.core.tracedriven.TraceDrivenSimulator` — trace replay engine.
* :mod:`~repro.core.queues` — six pluggable event-list structures (including
  the self-tuning :class:`~repro.core.queues.AdaptiveQueue`).
* :mod:`~repro.core.process` — "active objects" (process-oriented modeling).
* :mod:`~repro.core.resources` — FIFO service stations and item stores.
* :mod:`~repro.core.rng` — reproducible random streams.
* :mod:`~repro.core.monitor` — output statistics.
* :mod:`~repro.core.parallel` — distributed execution (LPs, CMB, windows).
* :mod:`~repro.core.optimistic` — optimistic execution (Time Warp).
"""

from .engine import Simulator
from .errors import (
    CapacityError,
    CatalogError,
    ConfigurationError,
    EconomyError,
    EventCancelledError,
    InterruptError,
    ProcessError,
    ResourceError,
    RoutingError,
    SchedulingError,
    SimulationError,
    StopSimulation,
    TopologyError,
    TraceFormatError,
    ValidationError,
)
from .events import Event, Priority
from .monitor import Counter, Monitor, Tally, TimeWeighted, ascii_plot
from .optimistic import LPReport, OptimisticExecutor
from .parallel import (
    CMBExecutor,
    ExecutionStats,
    LogicalProcess,
    SequentialExecutor,
    WindowExecutor,
)
from .process import AllOf, AnyOf, Process, Signal, Waitable, spawn, timer
from .queues import QUEUE_FACTORIES, EventQueue, make_queue
from .resources import Request, Resource, Store
from .rng import Stream, StreamFactory
from .timedriven import TimeDrivenSimulator
from .trace import TraceRecord, TraceRecorder, read_trace, write_trace
from .tracedriven import TraceDrivenSimulator

__all__ = [
    "Simulator",
    "TimeDrivenSimulator",
    "TraceDrivenSimulator",
    "Event",
    "Priority",
    "EventQueue",
    "QUEUE_FACTORIES",
    "make_queue",
    "Process",
    "Signal",
    "Waitable",
    "AnyOf",
    "AllOf",
    "spawn",
    "timer",
    "Resource",
    "Request",
    "Store",
    "Stream",
    "StreamFactory",
    "Monitor",
    "Tally",
    "TimeWeighted",
    "Counter",
    "ascii_plot",
    "LogicalProcess",
    "SequentialExecutor",
    "CMBExecutor",
    "WindowExecutor",
    "OptimisticExecutor",
    "LPReport",
    "ExecutionStats",
    "TraceRecord",
    "TraceRecorder",
    "read_trace",
    "write_trace",
    # errors
    "SimulationError",
    "SchedulingError",
    "EventCancelledError",
    "StopSimulation",
    "ProcessError",
    "InterruptError",
    "ResourceError",
    "CapacityError",
    "TraceFormatError",
    "TopologyError",
    "RoutingError",
    "CatalogError",
    "EconomyError",
    "ValidationError",
    "ConfigurationError",
]
