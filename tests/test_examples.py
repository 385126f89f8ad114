"""The example scripts run: each ``examples/*.py`` exits 0 in time.

The examples drive the public API end to end, so an API change that
breaks one fails here rather than in a reader's terminal.  Each script
runs in a subprocess from a temporary directory, with ``src`` on
``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Seconds one script may take.  Each takes 0.5-3.5 s on a 2-core
#: machine.
TIME_BOUND_S = 60


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIME_BOUND_S,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
