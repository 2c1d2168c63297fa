"""Shared helpers for the experiment benchmarks (E1–E15).

Each ``bench_*.py`` regenerates one table/figure-equivalent of the paper:
it computes the experiment's rows, *asserts the paper's shape claims*
(who wins, where things diverge), prints the rows (visible with ``-s``),
and times the run through the ``benchmark`` fixture so
``pytest benchmarks/ --benchmark-only`` produces a timing table too.
"""

from __future__ import annotations

from typing import Sequence


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Fixed-width experiment table, echoed into the pytest -s output."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print(f"\n== {title} ==")
    print("  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in cells:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))


def once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under the benchmark timer, return its result.

    Experiment regenerations are deterministic end-to-end simulations;
    repeating them only to tighten timing statistics would multiply the
    suite's runtime for no informational gain.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
