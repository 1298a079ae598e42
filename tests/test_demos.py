"""Every narrative demo in ``demos/`` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import holderbounds

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(holderbounds.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
