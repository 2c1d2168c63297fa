"""Evolutionary scenario search — tournament selection + mutation.

The campaign engine answers "what are the statistics of this scenario?";
this module answers "which scenario is *best*?".  The loop is the classic
generational GA shape (the LifeFInances ``genetic.py`` pattern): a
population of genomes (parameter assignments over a declared search
space), fitness from simulation, tournament selection, uniform crossover,
per-gene mutation, and elitism.

Design points that matter for a *simulation* GA:

* **Fitness is an ensemble statistic.**  Each genome is evaluated over
  ``replications`` independent runs and scored by the mean of a metric
  expression (e.g. ``"W + 0.15 * servers"``) — one noisy run must not
  decide a tournament.
* **Common random numbers.**  Every genome in every generation reuses the
  same replication seeds (spec-layer discipline), so fitness differences
  are parameter effects, not seed luck.
* **Deterministic evolution.**  All randomness comes from named streams of
  a factory spawned from the root seed; the same root seed reproduces the
  entire search — population by population — regardless of worker count,
  because workers only compute fitness, never draw evolution randomness.
* **Fitness caching.**  With CRN, a genome's fitness is a pure function of
  its parameters; revisited genomes are looked up, not re-simulated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.rng import StreamFactory
from .spec import CampaignSpec, expand_points, point_key
from .runner import CampaignResult, run_specs

__all__ = ["Axis", "parse_space", "evaluate_objective", "EvolutionResult",
           "evolve"]

#: contestants per tournament (so also the smallest population), the chance
#: that a gene mutates and that a child crosses two parents, and how many of
#: the best genomes pass unchanged into the next generation
TOURNAMENT, MUTATION_RATE, CROSSOVER_RATE, ELITE = 3, 0.3, 0.7, 1

_SAFE_FUNCS = {"abs": abs, "min": min, "max": max, "sqrt": math.sqrt,
               "log": math.log, "exp": math.exp, "inf": math.inf}


def evaluate_objective(expression: str, metrics: Mapping[str, Any]) -> float:
    """Evaluate a metric expression over one run's metrics dict.

    The expression sees metric names as variables plus a small math
    vocabulary (abs, min, max, sqrt, log, exp, inf); builtins are blocked.
    """
    try:
        value = eval(expression, {"__builtins__": {}},
                     {**_SAFE_FUNCS, **dict(metrics)})
    except Exception as exc:
        raise ConfigurationError(
            f"objective {expression!r} failed on metrics "
            f"{sorted(metrics)}: {exc}") from exc
    return float(value)


@dataclass(frozen=True)
class Axis:
    """One evolvable parameter: numeric range or categorical choices."""

    name: str
    lo: float | None = None
    hi: float | None = None
    integer: bool = False
    choices: tuple | None = None

    def __post_init__(self) -> None:
        if self.choices is None:
            if self.lo is None or self.hi is None or self.lo >= self.hi:
                raise ConfigurationError(
                    f"axis {self.name!r} needs lo < hi or choices")
        elif not self.choices:
            raise ConfigurationError(f"axis {self.name!r} has no choices")

    def sample(self, stream) -> Any:
        """Draw a uniform random value for this gene."""
        if self.choices is not None:
            return self.choices[stream.randint(0, len(self.choices) - 1)]
        if self.integer:
            return stream.randint(int(self.lo), int(self.hi))
        return stream.uniform(self.lo, self.hi)

    def mutate(self, value: Any, stream) -> Any:
        """Perturb *value*: resample categoricals, nudge numerics ~span/5."""
        if self.choices is not None:
            return self.sample(stream)
        span = self.hi - self.lo
        x = float(value) + stream.normal(0.0, span / 5.0)
        x = min(self.hi, max(self.lo, x))
        return int(round(x)) if self.integer else x

    @classmethod
    def parse(cls, name: str, text: str) -> "Axis":
        """Parse ``lo:hi`` (always a continuous float axis), ``lo:hi:int``
        (integer axis — the suffix is required, whole-number bounds alone
        never imply one), or ``a,b,c`` categorical choices."""
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 3 and parts[2] == "int":
                return cls(name, lo=float(parts[0]), hi=float(parts[1]),
                           integer=True)
            if len(parts) == 2:
                return cls(name, lo=float(parts[0]), hi=float(parts[1]))
            raise ConfigurationError(f"cannot parse axis {name}={text!r}")
        return cls(name, choices=tuple(coerce(v) for v in text.split(",")))


def coerce(text: str) -> Any:
    """A command-line value as an int, else a float, else the string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def split_assignment(entry: str) -> tuple[str, str]:
    """Split one ``NAME=TEXT`` command-line entry into (NAME, TEXT)."""
    name, eq, text = entry.partition("=")
    if not eq:
        raise ConfigurationError(f"{entry!r} is not NAME=VALUE")
    return name.strip(), text


def parse_space(entries: Sequence[str]) -> list[Axis]:
    """Parse ``name=spec`` CLI strings into a search space."""
    return [Axis.parse(name, text.strip())
            for name, text in map(split_assignment, entries)]


@dataclass
class EvolutionResult:
    """Best genome plus the full per-generation history."""

    best_genome: dict
    best_fitness: float
    history: list[dict]            #: per generation: best/mean fitness, genome
    evaluations: int               #: simulated genome evaluations (cache misses)
    campaign: CampaignResult | None = None  #: last generation's raw records

    def report(self) -> str:
        """Human-readable best-genome report."""
        lines = [f"best fitness {self.best_fitness:.6g} after "
                 f"{len(self.history)} generations "
                 f"({self.evaluations} simulated evaluations)"]
        for k, v in sorted(self.best_genome.items()):
            lines.append(f"  {k} = {v}")
        return "\n".join(lines)


def evolve(scenario: str, space: Sequence[Axis], objective: str,
           mode: str = "min", population: int = 12, generations: int = 8,
           replications: int = 3, base: Mapping[str, Any] | None = None,
           root_seed: int = 0, workers: int = 1,
           timeout: float | None = None,
           progress: Callable[[str], None] | None = None) -> EvolutionResult:
    """Run the generational GA; returns the best genome found.

    Fitness of a genome = mean of *objective* over ``replications``
    campaign runs of *scenario* with the genome's parameters (merged over
    *base*).  ``mode`` is ``min`` or ``max``.
    """
    if mode not in ("min", "max"):
        raise ConfigurationError(f"mode must be min or max, got {mode!r}")
    if population < TOURNAMENT or generations < 1:
        raise ConfigurationError(
            f"need population >= {TOURNAMENT} (the tournament size) and "
            f"generations >= 1, got population={population}, "
            f"generations={generations}")
    if not space:
        raise ConfigurationError("search space is empty")
    sign = 1.0 if mode == "min" else -1.0
    rng = StreamFactory(root_seed).spawn("evolve")
    init_s = rng.stream("init")
    select_s = rng.stream("select")
    cross_s = rng.stream("crossover")
    mutate_s = rng.stream("mutate")

    pop: list[dict] = [{ax.name: ax.sample(init_s) for ax in space}
                       for _ in range(population)]
    cache: dict[str, float] = {}
    history: list[dict] = []
    evaluations = 0
    last_campaign: CampaignResult | None = None

    for gen in range(generations):
        fresh = []
        seen_keys = set()
        for g in pop:
            key = point_key(g)
            if key not in cache and key not in seen_keys:
                seen_keys.add(key)
                fresh.append(g)
        if fresh:
            # One campaign evaluates every new genome this generation; the
            # grid is the genome list itself (axis "genome" = index), so
            # replication seeds are shared across genomes (CRN).
            seeds = CampaignSpec(scenario, replications=replications,
                                 root_seed=root_seed).replication_seeds()
            runs = expand_points(scenario, [{**(base or {}), **genome}
                                            for genome in fresh], seeds)
            result = run_specs(runs, workers=workers, timeout=timeout)
            last_campaign = result
            evaluations += len(fresh)
            for point, genome in enumerate(fresh):
                recs = [r for r in result.records if r.point == point]
                scores = [sign * evaluate_objective(objective, r.metrics)
                          for r in recs if r.status == "ok"]
                cache[point_key(genome)] = (sum(scores) / len(scores)
                                            if scores else math.inf)
        fitness = [cache[point_key(g)] for g in pop]
        order = sorted(range(population), key=lambda i: fitness[i])
        best_i = order[0]
        history.append({
            "generation": gen,
            "best_fitness": sign * fitness[best_i],
            "mean_fitness": sign * (sum(fitness) / population)
            if all(math.isfinite(f) for f in fitness) else math.nan,
            "best_genome": dict(pop[best_i]),
        })
        if progress is not None:
            progress(f"[evolve] gen {gen}: best "
                     f"{history[-1]['best_fitness']:.6g} "
                     f"({evaluations} evals)")
        if gen == generations - 1:
            break

        def pick() -> dict:
            contestants = [select_s.randint(0, population - 1)
                           for _ in range(TOURNAMENT)]
            return pop[min(contestants, key=lambda i: fitness[i])]

        next_pop = [dict(pop[i]) for i in order[:ELITE]]
        while len(next_pop) < population:
            a, b = pick(), pick()
            child = {}
            do_cross = cross_s.bernoulli(CROSSOVER_RATE)
            for ax in space:
                src = (b if do_cross and cross_s.bernoulli(0.5) else a)
                child[ax.name] = src[ax.name]
                if mutate_s.bernoulli(MUTATION_RATE):
                    child[ax.name] = ax.mutate(child[ax.name], mutate_s)
            next_pop.append(child)
        pop = next_pop

    best_key = min(cache, key=cache.get)
    best_fit = cache[best_key]
    best_params = json.loads(best_key)
    best_genome = {ax.name: best_params[ax.name] for ax in space
                   if ax.name in best_params}
    return EvolutionResult(best_genome=best_genome,
                           best_fitness=sign * best_fit,
                           history=history, evaluations=evaluations,
                           campaign=last_campaign)
