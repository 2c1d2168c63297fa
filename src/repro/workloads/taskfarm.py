"""Task-farming workloads: the GridSim evaluation's application class.

"GridSim is mainly used to study cost-time optimization algorithms for
scheduling task farming applications on heterogeneous Grids" — a task farm
is a bag of independent gridlets (parameter-sweep points).  The generator
controls the three axes that matter to scheduling studies: arrival pattern,
length distribution (uniform / heterogeneous / heavy-tailed), and optional
shared input data.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import ConfigurationError
from ..core.rng import Stream
from ..middleware.jobs import Job
from ..network.transfer import FileSpec

__all__ = ["task_farm"]

_LENGTH_MODELS = ("uniform", "normal", "heavy")


def task_farm(stream: Stream, n: int, mean_length: float = 1000.0,
              length_model: str = "normal", arrival_times: Sequence[float] | None = None,
              input_files: Sequence[FileSpec] = (), deadline: float = float("inf"),
              budget: float = float("inf"), first_id: int = 0) -> list[Job]:
    """Generate *n* independent gridlets.

    Parameters
    ----------
    length_model:
        ``"uniform"`` (±50% of mean), ``"normal"`` (σ = 30% of mean,
        floored at 10%), or ``"heavy"`` (Pareto α=1.8 — rare monsters).
    arrival_times:
        Per-job submission times (defaults to all-at-once at t=0); length
        must be >= n.
    input_files:
        Every job reads one of these (round-robin), modelling a sweep over
        shared datasets.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if mean_length <= 0:
        raise ConfigurationError("mean_length must be > 0")
    if length_model not in _LENGTH_MODELS:
        raise ConfigurationError(
            f"unknown length model {length_model!r}; choose from {_LENGTH_MODELS}")
    if arrival_times is not None and len(arrival_times) < n:
        raise ConfigurationError("arrival_times shorter than n")
    jobs = []
    for i in range(n):
        if length_model == "uniform":
            length = stream.uniform(0.5 * mean_length, 1.5 * mean_length)
        elif length_model == "normal":
            length = stream.normal(mean_length, 0.3 * mean_length,
                                   floor=0.1 * mean_length)
        else:
            length = stream.pareto(1.8, xmin=mean_length * 0.8 / 1.8 * 0.8)
        files = (input_files[i % len(input_files)],) if input_files else ()
        jobs.append(Job(
            id=first_id + i, length=length, input_files=files,
            submitted=float(arrival_times[i]) if arrival_times is not None else 0.0,
            deadline=deadline, budget=budget))
    return jobs
