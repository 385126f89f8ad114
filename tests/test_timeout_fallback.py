"""The suite's stdlib per-test timeout (``tests/timeout_fallback.py``).

Each case runs a throwaway suite in a subprocess with pytest-timeout
blocked (``-p no:timeout``), so the fallback is what enforces the
``timeout`` ini key whether or not the plugin is installed here.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent


def _run_suite(tmp_path, timeout_s, body):
    (tmp_path / "pytest.ini").write_text(
        f"[pytest]\ntimeout = {timeout_s}\n"
    )
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(body))
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(TESTS_DIR)] + ([path] if path else [])
        ),
    )
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:timeout", "-p", "timeout_fallback",
            "-p", "no:cacheprovider", str(tmp_path),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_hung_test_dies_with_a_traceback(tmp_path):
    proc = _run_suite(
        tmp_path,
        2,
        """
        import time

        def test_sleeps_past_the_timeout():
            time.sleep(60)
        """,
    )
    assert proc.returncode != 0
    assert "Timeout (0:00:02)!" in proc.stderr
    assert "in test_sleeps_past_the_timeout" in proc.stderr


def test_timer_is_rearmed_per_test(tmp_path):
    # Together the two tests outlive the timeout; each alone does not.
    proc = _run_suite(
        tmp_path,
        1,
        """
        import time

        def test_first():
            time.sleep(0.6)

        def test_second():
            time.sleep(0.6)
        """,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout
    assert "Unknown config option" not in proc.stdout + proc.stderr
