"""Every script under ``examples/`` runs to completion.

The examples import the public API the way a user would, so running
them catches an API change that leaves one of them broken.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr


def test_examples_found():
    # An empty glob would parametrize zero cases and pass silently.
    assert EXAMPLES
