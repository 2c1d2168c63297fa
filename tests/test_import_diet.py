"""The runtime needs numpy and nothing heavier.

scipy (64 MB, ~0.8 s per worker process) was imported for one Student-t
quantile and networkx (15 MB) for one Dijkstra call; both are dev-only test
oracles now.  A fresh interpreter with the two names blocked — so that any
``import scipy`` / ``import networkx``, however lazy, raises — drives the
paths that used them.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.modules["scipy"] = sys.modules["networkx"] = None

import repro, repro.cli, repro.simulators, repro.campaign, repro.analysis
from repro.campaign import summarize
from repro.core import Simulator
from repro.network import FlowNetwork, dumbbell
from repro.validation import simulate_mm1

s = simulate_mm1(0.5, 1.0, n_jobs=2000, warmup=200, seed=1)
assert 0 < s.W_ci_halfwidth < s.W

sim = Simulator()
topo = dumbbell(["a", "b"], ["x", "y"], 100.0, 50.0)
net = FlowNetwork(sim, topo)
flows = [net.transfer(*pair, 500.0)
         for pair in (("a", "x"), ("b", "y"), ("a", "y"))]

def outage():
    for spec in topo.fail_link("Lhub", "Rhub"):
        net.abort_link(spec)

sim.schedule(1.0, outage)
sim.schedule(2.0, topo.repair_link, "Lhub", "Rhub")
sim.schedule(3.0, lambda: flows.append(net.transfer("a", "x", 500.0)))
sim.run()
assert [f.failed for f in flows] == [True, True, True, False]

class Rec:
    status = "ok"
    def __init__(self, v):
        self.metrics = {"m": v}

m = summarize([Rec(v) for v in (1.0, 2.0, 4.0, 3.0, 2.5)], ["m"])["m"]
assert abs(m.halfwidth - 1.3882226) < 1e-6  # t(0.975, 4) * sqrt(1.25 / 5)
assert repro.analysis.welch_t([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])[1] < 1
print("ok")
"""


def test_runtime_runs_with_scipy_and_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
