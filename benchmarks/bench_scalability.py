"""E6 — engine scalability: simulating many resources on one workstation.

Paper source (§5): "Many of today's simulators lack the capability to
simulate large distributed systems because their simulation engines are
limited to the physical resources of the workstations ...  The simulation
engine can be optimized ... by using advanced priority queuing structures
for the simulation events, by optimizing the way in which simulated
entities are being scheduled in simulation for execution ..."

Workload: a grid of N independent M/M/1 resources, each fed at fixed
per-resource rate, N swept over two orders of magnitude; crossed with the
engine's two §5 optimization axes — event-list structure and
entity-to-context mapping.  Shape targets: runtime grows ~linearly in N
(events dominate) for sublinear queues; the pure-callback (shared-context)
mapping beats one-process-per-job by a constant factor; context switches
(run-queue resumes) per policy quantify the abstraction overhead — kernel
events no longer do, since only holds are events.
"""

import time

import pytest

from conftest import once, print_table

from repro.core import Simulator
from repro.core.mapping import MAPPING_POLICIES, JobSpec

JOBS_PER_RESOURCE = 20


def run_grid(n_resources: int, queue: str) -> int:
    """N independent single-server stations, pure event callbacks.

    All arrivals are pre-scheduled (the event list holds ~N x jobs events
    at once) — the "great number of resources" regime §5 worries about,
    where the event-list structure's asymptotics actually matter.
    """
    sim = Simulator(queue=queue, seed=1)
    done = [0]

    def make_station(i: int):
        arr = sim.stream(f"arr-{i}")
        svc = sim.stream(f"svc-{i}")
        waiting: list[float] = []
        busy = [False]

        def depart() -> None:
            done[0] += 1
            busy[0] = False
            if waiting:
                waiting.pop(0)
                start()

        def start() -> None:
            busy[0] = True
            sim.schedule(svc.exponential(0.5), depart)

        def arrive() -> None:
            if busy[0]:
                waiting.append(sim.now)
            else:
                start()

        t = 0.0
        for _ in range(JOBS_PER_RESOURCE):
            t += arr.exponential(1.0)
            sim.schedule_at(t, arrive)

    for i in range(n_resources):
        make_station(i)
    sim.run()
    return done[0]


@pytest.mark.parametrize("queue", ["linear", "heap", "calendar"])
@pytest.mark.parametrize("n", [100, 1_000, 5_000])
def test_e6_resource_scaling(benchmark, queue, n):
    benchmark.group = f"grid N={n}"
    done = once(benchmark, run_grid, n, queue)
    assert done == n * JOBS_PER_RESOURCE


@pytest.mark.parametrize("policy", sorted(MAPPING_POLICIES))
def test_e6_mapping_overhead(benchmark, policy):
    """§5's 'optimizing the way simulated entities are scheduled'."""
    benchmark.group = "mapping 3000 jobs"
    stream = Simulator(seed=2).stream("w")
    jobs = [JobSpec(arrival=stream.exponential(0.5) * i, duration=stream.exponential(2.0), id=i)
            for i in range(3_000)]
    result = once(benchmark, MAPPING_POLICIES[policy]().run, jobs, 8)
    assert len(result.completions) == 3_000


def test_e6_shape_claims(benchmark):
    def run_all():
        times: dict[tuple[str, int], float] = {}
        for queue in ("linear", "heap", "calendar"):
            for n in (100, 1_000, 5_000):
                best = float("inf")  # best-of-2: survive noisy machines
                for _ in range(2):
                    t0 = time.perf_counter()
                    run_grid(n, queue)
                    best = min(best, time.perf_counter() - t0)
                times[(queue, n)] = best
        stream = Simulator(seed=2).stream("w")
        jobs = [JobSpec(arrival=0.5 * i, duration=2.0, id=i)
                for i in range(3_000)]
        mapped = {name: cls().run(jobs, 8)
                  for name, cls in MAPPING_POLICIES.items()}
        return times, mapped

    times, mapped = once(benchmark, run_all)
    print_table("E6: runtime (s) vs resource count per event-list structure",
                ["structure", "N=100", "N=1000", "N=5000", "growth 100->5000"],
                [(q, f"{times[(q, 100)]:.3f}", f"{times[(q, 1000)]:.3f}",
                  f"{times[(q, 5000)]:.3f}",
                  f"{times[(q, 5000)] / times[(q, 100)]:.0f}x")
                 for q in ("linear", "heap", "calendar")])
    print_table("E6b: kernel events and context switches per mapping policy "
                "(3000 jobs)",
                ["policy", "kernel events", "events/job", "context switches",
                 "switches/job"],
                [(n, r.kernel_events, f"{r.kernel_events / 3000:.2f}",
                  r.context_switches, f"{r.context_switches / 3000:.2f}")
                 for n, r in sorted(mapped.items())])

    # The O(n) list pays a substantial penalty at scale (its ~100k-entry
    # pending population makes every insert shift memory); the trend across
    # sizes is printed rather than asserted — at the N=100 end the absolute
    # times are ~25 ms, where machine noise swamps the ratio.
    handicap_small = times[("linear", 100)] / times[("heap", 100)]
    handicap_large = times[("linear", 5000)] / times[("heap", 5000)]
    print(f"  linear-vs-heap handicap: {handicap_small:.2f}x at N=100 -> "
          f"{handicap_large:.2f}x at N=5000")
    assert handicap_large > 1.8
    # Abstraction overhead: the process layer reaches event parity with
    # hand-written callbacks (only holds are kernel events); what contexts
    # cost is run-queue resumes — none shared, one wake per job pooled,
    # spawn + wake per job dedicated.
    shared, pooled, dedicated = (mapped[k] for k in ("shared", "pooled", "dedicated"))
    assert shared.kernel_events <= dedicated.kernel_events
    assert shared.context_switches == 0 < min(pooled.context_switches,
                                              dedicated.context_switches)
