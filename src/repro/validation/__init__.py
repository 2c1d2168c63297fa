"""Validation: analytic queueing models + simulation comparison harness.

The paper's Section-5 prescription made executable: closed-form M/M/1,
M/M/c, M/M/1/K, M/G/1, Erlang-B, and Jackson networks
(:mod:`~repro.validation.queueing`); kernel-built simulations of the same
systems with error reports (:mod:`~repro.validation.compare`); and
model-free Little's-law checks (:mod:`~repro.validation.littleslaw`).
"""

from .compare import (
    QueueRunStats,
    ValidationReport,
    compare,
    mmck_station,
    simulate_mg1,
    simulate_mm1,
    simulate_mm1k,
    simulate_mmc,
)
from .littleslaw import LittleCheck, check_flow_conservation, check_littles_law, effective_rate
from .queueing import MG1, MM1, MM1K, MMc, JacksonNetwork, erlang_b

__all__ = [
    "MM1",
    "MMc",
    "MM1K",
    "MG1",
    "erlang_b",
    "JacksonNetwork",
    "mmck_station",
    "simulate_mm1",
    "simulate_mmc",
    "simulate_mm1k",
    "simulate_mg1",
    "compare",
    "QueueRunStats",
    "ValidationReport",
    "LittleCheck",
    "check_littles_law",
    "check_flow_conservation",
    "effective_rate",
]
