"""One pytest-benchmark per experiment and ablation.

Each case runs one paper experiment exactly once under pytest-benchmark
(wall time of the full reproduction pipeline), prints the rendered
report (visible with ``-s`` or on failure), saves it under
``benchmarks/output/``, and asserts the paper-shape expectations.

Run: ``pytest benchmarks/bench_experiments.py --benchmark-only -s -k fig03``
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.ablations import ALL_ABLATIONS

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

RUNNERS = {
    **ALL_EXPERIMENTS,
    **{f"ablation_{name}": fn for name, fn in ALL_ABLATIONS.items()},
}


@pytest.mark.parametrize("name", RUNNERS)
def test_experiment(benchmark, name):
    report = benchmark.pedantic(
        RUNNERS[name], rounds=1, iterations=1, warmup_rounds=0
    )
    text = report.render()
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{report.experiment}.txt").write_text(text + "\n")
    failed = [k for k, ok in report.expectations.items() if not ok]
    assert not failed, f"paper-shape checks failed: {failed}"
