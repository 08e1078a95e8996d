"""Transport-layer parity: experiment output pinned byte-for-byte.

The transport layer is a pure refactor seam — routing every workload
through Channel/Endpoint verbs must not move a single simulated
nanosecond.  These tests re-run Table 2, one figure per workload
(stencil, flood, SpTRSV, hashtable) and the training step and diff the report against the
goldens committed under ``goldens/``.

If a diff appears and the model change was intentional, regenerate with:

    PYTHONPATH=src python -m repro run <exp> --no-cache 2>/dev/null \
        > tests/regression/goldens/<exp>.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
REPO_ROOT = Path(__file__).resolve().parents[2]

# table2 = op-count characterization; the figures cover one workload each:
# fig03 stencil, fig05 flood, fig08 SpTRSV, fig09 hashtable; ml_training
# the collectives' timed window (what cluster_step's digest also reads).
EXPERIMENTS = ["table2", "fig03", "fig05", "fig08", "fig09", "ml_training"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_output_matches_golden(experiment):
    golden = (GOLDEN_DIR / f"{experiment}.txt").read_text()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", experiment, "--no-cache"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden
