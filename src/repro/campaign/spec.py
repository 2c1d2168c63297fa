"""Campaign specs — expand a scenario into a deterministic run matrix.

A campaign is *seed ranges × parameter grids*: every grid point (one
combination of parameter values) is replicated ``replications`` times, and
every replication gets its own RNG universe derived from the campaign's
root seed via :meth:`repro.core.rng.StreamFactory.spawn`.

Two deliberate properties of the seed derivation:

* **Reconstructible anywhere.**  A run's seed is a pure function of
  ``(root_seed, replication)``, so a worker process rebuilds the exact
  stream universe from two plain integers — nothing live crosses the
  process boundary.
* **Common random numbers across grid points.**  Replication *r* uses the
  same spawned seed at *every* grid point, so comparing two parameter
  settings (two scheduler policies, two replica counts) pairs their runs
  on identical randomness — the classic variance-reduction discipline the
  RNG module is built around.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.rng import StreamFactory

__all__ = ["RunSpec", "CampaignSpec", "point_key", "describe_params"]


def point_key(params: Mapping[str, Any]) -> str:
    """Canonical string identity of one grid point (sorted-key JSON)."""
    return json.dumps(dict(params), sort_keys=True, default=str)


def describe_params(params: Mapping[str, Any] | Sequence[tuple],
                    limit: int = 48) -> str:
    """Compact human label for a parameter assignment (``rho=0.6 c=2``).

    Used by progress lines and the campaign telemetry report, where the
    sorted-JSON :func:`point_key` is too noisy for a table cell.
    """
    items = sorted(dict(params).items())
    text = " ".join(f"{k}={v}" for k, v in items) or "(defaults)"
    return text if len(text) <= limit else text[:limit - 1] + "…"


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One cell of the run matrix — everything a worker needs, all picklable."""

    index: int          #: position in the expanded matrix (result order)
    scenario: str       #: registry name resolved inside the worker
    params: tuple       #: sorted (name, value) pairs — hashable & picklable
    point: int          #: grid-point index within the campaign
    replication: int    #: replication index within the point
    seed: int           #: spawned root seed for this run's StreamFactory

    @property
    def params_dict(self) -> dict[str, Any]:
        """The parameter assignment as a plain dict."""
        return dict(self.params)


class CampaignSpec:
    """Scenario + base parameters + grid axes + replication count.

    ``grid`` maps parameter names to the values to sweep; the run matrix is
    the cartesian product of the axes (in the given axis order) times
    ``replications`` seeds.  ``base`` parameters apply to every point and
    are overridden by grid axes of the same name.
    """

    def __init__(self, scenario: str, base: Mapping[str, Any] | None = None,
                 grid: Mapping[str, Sequence[Any]] | None = None,
                 replications: int = 1, root_seed: int = 0) -> None:
        if replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {replications}")
        self.scenario = str(scenario)
        self.base = dict(base or {})
        self.grid = {str(k): list(v) for k, v in (grid or {}).items()}
        for name, values in self.grid.items():
            if not values:
                raise ConfigurationError(f"grid axis {name!r} is empty")
        self.replications = int(replications)
        self.root_seed = int(root_seed)

    def points(self) -> list[dict[str, Any]]:
        """All grid points as parameter dicts (base merged in), in order."""
        if not self.grid:
            return [dict(self.base)]
        names = list(self.grid)
        out = []
        for combo in itertools.product(*(self.grid[n] for n in names)):
            p = dict(self.base)
            p.update(zip(names, combo))
            out.append(p)
        return out

    def replication_seeds(self) -> list[int]:
        """The spawned root seed of each replication (shared across points)."""
        root = StreamFactory(self.root_seed)
        return [root.spawn(f"rep:{r}").seed for r in range(self.replications)]

    def expand(self) -> list[RunSpec]:
        """The full run matrix: points × replications, deterministic order."""
        seeds = self.replication_seeds()
        runs: list[RunSpec] = []
        for point, params in enumerate(self.points()):
            frozen = tuple(sorted(params.items()))
            for rep, seed in enumerate(seeds):
                runs.append(RunSpec(index=len(runs), scenario=self.scenario,
                                    params=frozen, point=point,
                                    replication=rep, seed=seed))
        return runs

    def __len__(self) -> int:
        n_points = 1
        for values in self.grid.values():
            n_points *= len(values)
        return n_points * self.replications

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CampaignSpec {self.scenario!r} points="
                f"{len(self.points())} x{self.replications} "
                f"seed={self.root_seed}>")
