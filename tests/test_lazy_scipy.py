"""The fit, publish, stream, synth and serve paths never load scipy.

Only the lsq, lp and maxent-dual solvers and the FourierLP baseline use
scipy, and they import it where they call it, so a server or a
publishing job does not pay its import time and memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import tempfile

import numpy as np

import repro, repro.cli, repro.serve, repro.store, repro.stream, repro.synth
from repro.core.priview import PriView
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import Dataset
from repro.serve import QueryEngine
from repro.store import SynopsisStore

data = Dataset.random(500, 6, density=0.4, rng=np.random.default_rng(0))
design = CoveringDesign(6, 3, 1, ((0, 1, 2), (2, 3, 4), (4, 5, 0)))
synopsis = PriView(1.0, design=design, seed=1).fit(data)
with tempfile.TemporaryDirectory() as root:
    SynopsisStore(root).publish("tiny", synopsis)
with QueryEngine(synopsis) as engine:
    answers = [
        engine.answer((0, 3), method="maxent"),
        engine.answer((1, 4), method="residual"),
        *engine.answer_batch([(1, 3), (2, 5), (1, 3, 5)]),
    ]
assert {a.path for a in answers} == {"solved"}, [a.path for a in answers]
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_serving_and_fitting_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
