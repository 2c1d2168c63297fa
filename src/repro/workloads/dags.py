"""DAG workload generator for SimGrid-style workflow scheduling studies.

:func:`layered_dag` builds the random layered graphs (the Tobita/Kasahara
STG style: L layers, random edges between adjacent layers) that drive
benchmark E9 (compile-time vs runtime scheduling).
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from ..core.rng import Stream
from ..middleware.jobs import Dag, Job

__all__ = ["layered_dag"]


def _job(stream: Stream, jid: int, mean_length: float) -> Job:
    return Job(id=jid,
               length=stream.normal(mean_length, 0.3 * mean_length,
                                    floor=0.1 * mean_length))


def layered_dag(stream: Stream, layers: int, width: int,
                edge_prob: float = 0.5, mean_length: float = 1000.0,
                mean_edge_bytes: float = 1e6) -> Dag:
    """Random layered DAG: every non-root node gets >= 1 incoming edge.

    Edges only go layer k → k+1; each candidate edge appears with
    ``edge_prob``, and a uniformly chosen parent is forced when the draw
    leaves a node orphaned (standard STG construction).
    """
    if layers < 1 or width < 1:
        raise ConfigurationError("layers and width must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigurationError("edge_prob must be in [0,1]")
    dag = Dag()
    grid: list[list[Job]] = []
    jid = 0
    for _ in range(layers):
        row = []
        for _ in range(width):
            row.append(dag.add_job(_job(stream, jid, mean_length)))
            jid += 1
        grid.append(row)
    for k in range(layers - 1):
        for child in grid[k + 1]:
            parents = [p for p in grid[k] if stream.bernoulli(edge_prob)]
            if not parents:
                parents = [stream.choice(grid[k])]
            for p in parents:
                dag.add_edge(p.id, child.id,
                             data=stream.exponential(mean_edge_bytes))
    return dag
