"""Outside-in span tracer for the traced repetition.

Spans are kept in memory as four parallel columns (name id, parent index,
start ns, end ns) and written out when the run ends.  They come from two
mechanisms only, both installed from here so ``src/`` stays untouched:

1. **entry points** — :data:`ENTRY_POINTS` lists each layer's public
   functions; :meth:`Tracer.install` replaces them at class (or module)
   level with timing wrappers and :meth:`Tracer.uninstall` puts the
   originals back.  The ``Process.__init__`` wrapper also hands the process
   a timed view of its generator, so every segment of a process body is a
   span of the layer whose module defines the generator.
2. **handler spans** — the interval from a wrapped ``pop_if_le`` returning
   event E to the next ``pop_if_le`` call is E's handler span, attributed
   to the layer of ``E.fn.__module__``.

Nested wrapped calls are children, so a layer's *self time* is its spans'
duration minus the part their child spans cover (:func:`self_times`).
To add an entry point, add a row to :data:`ENTRY_POINTS`.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

from .metrics import LAYERS

_STREAM_DRAWS = ("uniform", "exponential", "erlang", "hyperexponential",
                 "pareto", "weibull", "lognormal", "normal", "randint",
                 "choice", "zipf", "poisson", "empirical", "bernoulli",
                 "shuffle")

#: (layer, "module:Class" or "module", attribute names, also wrap overrides
#: in subclasses).  Every row is a public function of that layer.
ENTRY_POINTS = (
    ("core.queues", "repro.core.queues.base:EventQueue",
     ("push", "pop", "pop_if_le", "peek", "compact"), True),
    ("core.queues", "repro.core.events:Event", ("cancel",), False),
    ("core.engine", "repro.core.engine:Simulator",
     ("schedule_at", "run"), False),
    ("core.process", "repro.core.process:Process",
     ("__init__", "interrupt"), False),
    ("core.resources", "repro.core.resources:Resource",
     ("request", "release"), False),
    ("core.monitor", "repro.core.monitor:Tally", ("record",), False),
    ("core.monitor", "repro.core.monitor:TimeWeighted",
     ("set", "add"), False),
    ("core.rng", "repro.core.rng:Stream", _STREAM_DRAWS, False),
    ("core.executors", "repro.core.parallel:LogicalProcess",
     ("send",), False),
    ("core.executors", "repro.core.parallel:SequentialExecutor",
     ("run",), False),
    ("core.executors", "repro.core.parallel:CMBExecutor", ("run",), False),
    ("core.executors", "repro.core.parallel:WindowExecutor", ("run",), False),
    ("core.executors", "repro.core.optimistic:OptimisticExecutor",
     ("run",), False),
    ("network.flow", "repro.network.flow:FlowNetwork",
     ("transfer", "abort_link"), False),
    ("network.topology", "repro.network.topology:Topology",
     ("route",), False),
    ("network.transfer", "repro.network.transfer:FileTransferService",
     ("fetch",), False),
    ("hosts", "repro.hosts.site:Site", ("submit",), False),
    ("hosts", "repro.hosts.cpu:Machine", ("submit",), True),
    ("hosts", "repro.hosts.storage:Disk", ("read", "write"), True),
    ("middleware", "repro.middleware.scheduling:TaskScheduler",
     ("select_site",), True),
    ("middleware", "repro.middleware.scheduling:BatchScheduler",
     ("plan",), True),
    ("middleware", "repro.middleware.catalog:ReplicaCatalog",
     ("best_replica",), False),
    ("middleware", "repro.middleware.replication:ReplicationStrategy",
     ("on_fetch",), True),
    ("middleware", "repro.middleware.replication:DataReplicationAgent",
     ("announce",), False),
    ("simulators", "repro.simulators.bricks:BricksModel", ("run",), False),
    ("simulators", "repro.simulators.optorsim:OptorSimModel",
     ("run",), False),
    ("simulators", "repro.simulators.simgrid:SimGridModel",
     ("run_runtime",), False),
    ("simulators", "repro.simulators.gridsim:GridSimModel",
     ("run_dbc",), False),
    ("simulators", "repro.simulators.chicagosim:ChicagoSimModel",
     ("run",), False),
    ("simulators", "repro.simulators.monarc:MonarcModel",
     ("run_t0_t1_study",), False),
    ("workloads", "repro.workloads.partitioned",
     ("build_partitioned_ring",), False),
    ("validation", "repro.validation.compare", ("simulate_mm1",), False),
    ("campaign", "repro.campaign.runner", ("run_campaign",), False),
    ("obs", "repro.obs.session:Observation", ("attach",), False),
)

#: module prefix → layer, for handler and process-body spans (first match
#: wins, so the specific rows come before ``repro.core`` / ``repro.network``).
_MODULE_LAYERS = (
    ("repro.core.queues", "core.queues"),
    ("repro.core.events", "core.queues"),
    ("repro.core.process", "core.process"),
    ("repro.core.resources", "core.resources"),
    ("repro.core.monitor", "core.monitor"),
    ("repro.core.rng", "core.rng"),
    ("repro.core.parallel", "core.executors"),
    ("repro.core.optimistic", "core.executors"),
    ("repro.core", "core.engine"),
    ("repro.network.topology", "network.topology"),
    ("repro.network.transfer", "network.transfer"),
    ("repro.network", "network.flow"),
    ("repro.hosts", "hosts"),
    ("repro.middleware", "middleware"),
    ("repro.faults", "faults"),
    ("repro.simulators", "simulators"),
    ("repro.workloads", "workloads"),
    ("repro.validation", "validation"),
    ("repro.campaign", "campaign"),
    ("repro.obs", "obs"),
    ("bench", "bench"),
)


def layer_of(module: str | None) -> str | None:
    """The layer that owns *module* (``None`` = unattributed)."""
    if not module:
        return None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _with_overrides(cls: type, attr: str):
    """*cls* and every subclass that defines *attr* itself."""
    seen, stack = [], [cls]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.append(c)
        stack.extend(c.__subclasses__())
    return [c for c in seen if attr in vars(c)]


def entry_points():
    """Every (layer, owner path, owner, attribute) the tracer replaces."""
    for layer, owner_path, attrs, overrides in ENTRY_POINTS:
        owner = _resolve(owner_path)
        for attr in attrs:
            for o in (_with_overrides(owner, attr) if overrides else [owner]):
                if not getattr(vars(o)[attr], "__isabstractmethod__", False):
                    yield layer, owner_path, o, attr


class _TracedBody:
    """A process generator whose every segment is a span."""

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: "Tracer") -> None:
        self._gen = gen
        self._tracer = tracer
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        self._nid = tracer.name_id(
            f"body:{getattr(gen, '__qualname__', type(gen).__name__)}",
            layer_of(module))

    def send(self, value):
        idx = self._tracer.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.close(idx)

    def throw(self, *exc):
        idx = self._tracer.open(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            self._tracer.close(idx)

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """In-memory span store plus the class-level wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str | None] = []
        self._ids: dict[tuple[str, str | None], int] = {}
        self._handler_ids: dict[object, int] = {}
        self._is_handler: list[bool] = []
        self.sid = array("l")
        self.par = array("l")
        self.t0 = array("q")
        self.t1 = array("q")
        #: index of the innermost open span (-1 = none)
        self.cur = -1
        #: live pending events: outermost pushes - pops - effective cancels
        self.live = 0
        self.peak_live = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- names ---------------------------------------------------------------

    def name_id(self, name: str, layer: str | None,
                handler: bool = False) -> int:
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self._is_handler.append(handler)
        return nid

    # -- span primitives -----------------------------------------------------

    def open(self, nid: int) -> int:
        """Open a span as a child of the current one; returns its index."""
        idx = len(self.t1)
        self.sid.append(nid)
        self.par.append(self.cur)
        self.t1.append(0)
        self.cur = idx
        self.t0.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        """Close span *idx* and any handler span left open beneath it."""
        now = perf_counter_ns()
        t1, par = self.t1, self.par
        c = self.cur
        while c != idx and c >= 0:
            t1[c] = now
            c = par[c]
        t1[idx] = now
        self.cur = par[idx]

    def wrap(self, fn, nid: int):
        """*fn* timed as one span per call."""
        tr = self
        sid_append, par_append = self.sid.append, self.par.append
        t0_append, t1_append = self.t0.append, self.t1.append
        t1, clock, close = self.t1, perf_counter_ns, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t1)
            sid_append(nid)
            par_append(tr.cur)
            t1_append(0)
            tr.cur = idx
            t0_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                if tr.cur == idx:
                    t1[idx] = clock()
                    tr.cur = tr.par[idx]
                else:
                    close(idx)
        return traced

    # -- specialised wrappers ------------------------------------------------

    def _outermost_queue_call(self) -> bool:
        c = self.cur
        return c < 0 or self.layers[self.sid[c]] != "core.queues"

    def _wrap_push(self, fn, nid: int):
        inner = self.wrap(fn, nid)
        tr = self

        @functools.wraps(fn)
        def traced_push(queue, event):
            if tr._outermost_queue_call():
                tr.live += 1
                if tr.live > tr.peak_live:
                    tr.peak_live = tr.live
            return inner(queue, event)
        return traced_push

    def _wrap_pop(self, fn, nid: int, fused: bool):
        """``pop`` / ``pop_if_le``: live accounting + handler spans."""
        inner = self.wrap(fn, nid)
        tr = self

        @functools.wraps(fn)
        def traced_pop(queue, *args):
            c = tr.cur
            if c >= 0 and tr._is_handler[tr.sid[c]]:
                # the previous event's handler ends where this pop begins
                tr.t1[c] = perf_counter_ns()
                tr.cur = tr.par[c]
            outermost = tr._outermost_queue_call()
            ev = inner(queue, *args)
            if ev is not None and outermost:
                tr.live -= 1
                if fused:
                    tr.open(tr._handler_id(ev.fn))
            return ev
        return traced_pop

    def _handler_id(self, fn) -> int:
        fn = getattr(fn, "func", fn)            # functools.partial
        fn = getattr(fn, "__func__", fn)        # bound method
        key = getattr(fn, "__code__", None) or type(fn)
        nid = self._handler_ids.get(key)
        if nid is None:
            name = getattr(fn, "__qualname__", type(fn).__name__)
            nid = self._handler_ids[key] = self.name_id(
                f"handler:{name}", layer_of(getattr(fn, "__module__", None)),
                handler=True)
        return nid

    def _wrap_cancel(self, fn, nid: int):
        inner = self.wrap(fn, nid)
        tr = self

        @functools.wraps(fn)
        def traced_cancel(event):
            if not event.cancelled:
                tr.live -= 1
            return inner(event)
        return traced_cancel

    def _wrap_process_init(self, fn, nid: int):
        inner = self.wrap(fn, nid)
        tr = self

        @functools.wraps(fn)
        def traced_init(proc, sim, body, *args, name="", **kwargs):
            gen = body(*args, **kwargs) if callable(body) else body
            if hasattr(gen, "send"):
                gen = _TracedBody(gen, tr)
            return inner(proc, sim, gen, name=name)
        return traced_init

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, owner_path, owner, attr in entry_points():
            orig = vars(owner)[attr]
            nid = self.name_id(
                f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}",
                layer)
            if layer == "core.queues" and attr == "push":
                wrapper = self._wrap_push(orig, nid)
            elif layer == "core.queues" and attr in ("pop", "pop_if_le"):
                wrapper = self._wrap_pop(orig, nid, attr == "pop_if_le")
            elif owner_path.endswith(":Event"):
                wrapper = self._wrap_cancel(orig, nid)
            elif owner_path.endswith(":Process") and attr == "__init__":
                wrapper = self._wrap_process_init(orig, nid)
            else:
                wrapper = self.wrap(orig, nid)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def write(self, path: str, repetition: str) -> None:
        """Dump every span (columnar; times are ns from the first span)."""
        base = self.t0[0] if len(self.t0) else 0
        with open(path, "w") as fp:
            fp.write('{"repetition": %s, "names": %s, "layers": %s, '
                     % (json.dumps(repetition), json.dumps(self.names),
                        json.dumps(self.layers)))
            fp.write('"name": [%s], ' % ",".join(map(str, self.sid)))
            fp.write('"parent": [%s], ' % ",".join(map(str, self.par)))
            fp.write('"start_ns": [%s], '
                     % ",".join(str(t - base) for t in self.t0))
            fp.write('"end_ns": [%s]}\n'
                     % ",".join(str(t - base) for t in self.t1))


def installed() -> list[str]:
    """Entry points currently replaced by a wrapper (empty when untraced)."""
    return [f"{owner_path}.{attr}"
            for _, owner_path, owner, attr in entry_points()
            if hasattr(vars(owner)[attr], "__wrapped__")]


def self_times(par: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus what the child spans cover.

    Spans come from one thread, so the children of a span never overlap
    and the part they cover is the sum of their durations.
    """
    dur = (t1 - t0).astype(np.float64)
    has_parent = par >= 0
    covered = np.bincount(par[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Spans:
    """A finished tracer's span table as numpy columns, and the numbers
    the runner reads off it."""

    def __init__(self, tracer: Tracer) -> None:
        self.names, self.layers = tracer.names, tracer.layers
        self.is_handler = np.array(tracer._is_handler, dtype=bool)
        self.sid = np.array(tracer.sid, dtype=np.int64)
        self.par = np.array(tracer.par, dtype=np.int64)
        self.t0 = np.array(tracer.t0, dtype=np.int64)
        self.t1 = np.array(tracer.t1, dtype=np.int64)
        self.own = self_times(self.par, self.t0, self.t1)

    def budget(self, first: int, root: int) -> dict:
        """Self time and call counts per layer over spans ``first..``, with
        *root* the bench-owned span that encloses them.

        Time in the root itself and in spans whose module maps to no layer
        is *unattributed*.
        """
        sid = self.sid[first:]
        busy_by_name = np.bincount(sid, weights=self.own[first:],
                                   minlength=len(self.names))
        calls_by_name = np.bincount(sid, minlength=len(self.names))
        busy = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        unattributed = 0.0
        for nid, layer in enumerate(self.layers):
            if layer in busy:
                busy[layer] += busy_by_name[nid] / 1e9
                calls[layer] += int(calls_by_name[nid])
            else:
                unattributed += busy_by_name[nid] / 1e9
        total = float(self.t1[root] - self.t0[root]) / 1e9
        return {"busy_s": busy, "calls_n": calls,
                "unattributed_frac": unattributed / total if total > 0 else 0.0}

    def handlers(self) -> int:
        """Handler spans — one per event fired through ``pop_if_le``."""
        return int(self.is_handler[self.sid].sum())

    def calls(self, suffix: str, layer: str, outermost: bool = False) -> int:
        """Spans of *layer* whose name ends with *suffix* — optionally only
        those entering the layer from outside it (``AdaptiveQueue.push``
        calls its backend's ``push``; that is one push, not two)."""
        in_layer = np.array([l == layer for l in self.layers], dtype=bool)
        named = np.array([n.endswith(suffix) for n in self.names], dtype=bool)
        mask = (in_layer & named)[self.sid]
        if outermost:
            has_parent = self.par >= 0
            inner = np.zeros(len(self.par), dtype=bool)
            inner[has_parent] = in_layer[self.sid[self.par[has_parent]]]
            mask &= ~inner
        return int(mask.sum())
