"""What a process loads: the simulator's import closure is numpy + stdlib.

scipy and networkx are declared dependencies, imported by the three analyses
that call them (SpTRSV execute mode, ``SupernodalMatrix.to_csr``,
``TopologySpec.bisection_bandwidth``); ``fit_loggp`` is a numpy solve.  The
property is a module count in a fresh interpreter, never a clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_PRELUDE = """
import sys
import repro

def loaded(lib):
    return sorted(m for m in sys.modules if m == lib or m.startswith(lib + "."))
"""

_SIMULATE = _PRELUDE + """
import random
from repro.net import AdaptiveRouting, Fabric
from repro.sim import Simulator
from repro.workloads.flood import run_flood

machine = repro.get_machine("perlmutter-gpu-x8@dragonfly(4,2,2)")
flood = run_flood(machine, "shmem", 4096, 8, iters=1)
assert flood.bandwidth > 0
fabric = Fabric(Simulator(), machine.topology, routing=AdaptiveRouting(candidates=2))
rng = random.Random(0)
for _ in range(100):
    src, dst = rng.sample(machine.topology.endpoints, 2)
    assert fabric.transfer(src, dst, 4096).arrival > 0
assert fabric.routing_counts["decisions"] == 100
print(loaded("scipy") + loaded("networkx"))
"""

_FIGURES = _PRELUDE + """
from repro.experiments.fig03_cpu_bandwidth import run_fig03
from repro.experiments.fig08_sptrsv import run_fig08

assert run_fig03(machines=("perlmutter-cpu",), iters=1).notes
assert run_fig08(n_supernodes=24, seed=2).rows
print(loaded("scipy") + loaded("networkx"))
"""

_ANALYSES = _PRELUDE + """
import contextlib, io, json
import numpy as np
from repro.cli import main
from repro.net import LogGPParams
from repro.roofline import FloodSample, MessageRoofline, fit_loggp
from repro.workloads.sptrsv import (
    MatrixSpec, SpTrsvConfig, generate_matrix, reference_solve, run_sptrsv,
)

assert not loaded("scipy") and not loaded("networkx")
roof = MessageRoofline(LogGPParams(L=2e-6, o=4e-7, g=2.5e-7, G=1 / 32e9))
fit = fit_loggp([
    FloodSample(B, n, float(roof.bandwidth(B, n)))
    for n in (1, 8, 64, 512) for B in (64.0, 4096.0, 262144.0)
])
assert not loaded("scipy") and not loaded("networkx")

matrix = generate_matrix(MatrixSpec(n_supernodes=12, seed=3))
b = np.arange(1.0, matrix.n + 1.0)
res = run_sptrsv(repro.get_machine("perlmutter-cpu"), "two_sided", matrix, 4,
                 cfg=SpTrsvConfig(mode="execute"), b=b)
assert loaded("scipy") and not loaded("networkx")
err = float(np.max(np.abs(res.extras["x"] - reference_solve(matrix, b))))
assert not loaded("networkx")

out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["topo", "dragonfly(4,2,2)"]) == 0
assert loaded("networkx")
p = fit.params
print(json.dumps({"fit": [p.L + p.o, max(p.o, p.g), p.G], "rms": fit.residual_rms,
                  "err": err, "time": res.time, "topo": out.getvalue()}))
"""


def _fresh_interpreter(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_simulating_loads_neither_scipy_nor_networkx():
    """Import, a cluster machine build, a flood and 100 adaptively routed
    transfers: no ``scipy*`` / ``networkx*`` key in ``sys.modules``."""
    assert _fresh_interpreter(_SIMULATE).strip() == "[]"


def test_the_paper_figures_load_neither_scipy_nor_networkx():
    """Fig. 3 fits its ceilings and Fig. 8 builds its matrix and solves it in
    simulate mode: neither loads ``scipy*`` / ``networkx*``."""
    assert _fresh_interpreter(_FIGURES).strip() == "[]"


def test_each_analysis_loads_its_library_and_keeps_its_values():
    """From that cold state the fit stays in numpy and recovers the roofline
    it was drawn from (``L+o``, the spacing ``max(o, g)`` and ``G``); the
    execute-mode solve and ``repro topo`` pull their library in and return
    what they did with module-level imports."""
    got = json.loads(_fresh_interpreter(_ANALYSES))
    assert got["fit"] == pytest.approx([2.4e-6, 4e-7, 1 / 32e9], rel=1e-9)
    assert got["rms"] < 1e-9
    assert got["err"] < 1e-9
    assert got["time"] == 0.00013983407000000005  # simulated: exact
    assert got["topo"] == (
        "topology  : dragonfly-4g2r\n"
        "endpoints : 8\n"
        "links     : 10\n"
        "diameter  : 3 hops\n"
        "bisection : 75.00 GB/s\n"
        "     6 x global\n"
        "     4 x local\n"
    )
