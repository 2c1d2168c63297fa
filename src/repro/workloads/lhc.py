"""LHC-like tiered workload: the MONARC / Legrand-2005 study's input.

The paper reports that MONARC 2 "was already used to evaluate the specific
behavior of the LHC experiments ... The experiment tested the behavior of
the Tier architecture envisioned by the two largest LHC experiments, CMS
and ATLAS.  The obtained results indicated the role of using a data
replication agent ... and showed that the existing capacity of 2.5 Gbps was
not sufficient and, in fact, not far afterwards the link was upgraded to a
current 30 Gbps."

We cannot use CERN's production traces (proprietary), so this module
generates the synthetic equivalent that exercises the same arithmetic:
each experiment writes fixed-size RAW+ESD files at a sustained byte rate
at T0.  Defaults approximate the 2005-era planning numbers: CMS ≈ 100 MB/s,
ATLAS ≈ 80 MB/s sustained during a run, 2 GB files.  Combined ≈ 1.44 Gbps
*per T1 replica stream*, which is why one 2.5 Gbps link shared by several
T1s cannot keep up — the study's point.

The production schedule is plain data (a list of ``(time, file)``
tuples), consumed by :class:`repro.simulators.monarc.MonarcModel` and
benchmark E5.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..core.rng import Stream
from ..network.transfer import FileSpec

__all__ = ["ExperimentSpec", "production_schedule", "CMS_2005", "ATLAS_2005"]

MB = 1e6
GB = 1e9


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One experiment's sustained data production profile."""

    name: str
    rate_bytes_per_s: float
    file_size: float

    def __post_init__(self) -> None:
        if self.rate_bytes_per_s <= 0 or self.file_size <= 0:
            raise ConfigurationError(
                f"experiment {self.name!r}: rate and file size must be > 0")

    @property
    def file_interval(self) -> float:
        """Mean seconds between completed files."""
        return self.file_size / self.rate_bytes_per_s


#: 2005-era planning numbers (order-of-magnitude faithful).
CMS_2005 = ExperimentSpec("CMS", rate_bytes_per_s=100 * MB, file_size=2 * GB)
ATLAS_2005 = ExperimentSpec("ATLAS", rate_bytes_per_s=80 * MB, file_size=2 * GB)


def production_schedule(stream: Stream, experiments: list[ExperimentSpec],
                        horizon: float, jitter: float = 0.1,
                        ) -> list[tuple[float, FileSpec]]:
    """Per-experiment file completion times over [0, horizon).

    Files complete every ``file_interval`` seconds ± exponential jitter
    (detector dead-time, run boundaries).  Returns a time-sorted list of
    ``(completion_time, FileSpec)``.
    """
    if horizon <= 0:
        raise ConfigurationError("horizon must be > 0")
    if not experiments:
        raise ConfigurationError("need at least one experiment")
    if not 0 <= jitter < 1:
        raise ConfigurationError("jitter must be in [0,1)")
    out: list[tuple[float, FileSpec]] = []
    for exp in experiments:
        t = 0.0
        seq = 0
        while True:
            gap = exp.file_interval * (1 - jitter) \
                + stream.exponential(exp.file_interval * jitter) if jitter > 0 \
                else exp.file_interval
            t += gap
            if t >= horizon:
                break
            out.append((t, FileSpec(f"{exp.name}-raw-{seq:06d}", exp.file_size)))
            seq += 1
    out.sort(key=lambda pair: (pair[0], pair[1].name))
    return out
