"""The per-test time limit in conftest.py must end a hanging test even when
the hang is inside a Hypothesis example, which catches what the test
raises and replays the example, and must end only that test."""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
SRC = HERE.parent / "src"

HANGING_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_returns(n):
    while True:
        pass
"""

# The hang is a frame below the test, and a test runs after it.
HANG_IN_A_CALL = """\
def spin():
    while True:
        pass


def test_hangs_in_a_call():
    spin()


def test_runs_after_the_hang():
    pass
"""


def _run_with_one_second_limit(tmp_path, test_text):
    """Run `test_text` as a test file under this suite's conftest.py, with
    its time limit lowered to 1 s and pytest's default traceback style."""
    conftest = (HERE / "conftest.py").read_text()
    assert "TIME_LIMIT_S = 60\n" in conftest
    (tmp_path / "conftest.py").write_text(conftest.replace("TIME_LIMIT_S = 60\n", "TIME_LIMIT_S = 1\n"))
    (tmp_path / "test_hang.py").write_text(test_text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Below this test's own 60 s limit, so a hang shows as this timeout.
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_hang.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=50,
    )


def test_hypothesis_cannot_swallow_the_time_limit(tmp_path):
    done = _run_with_one_second_limit(tmp_path, HANGING_TEST)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout, done.stdout


def test_time_limit_fails_one_test_and_the_session_goes_on(tmp_path):
    done = _run_with_one_second_limit(tmp_path, HANG_IN_A_CALL)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert "INTERNALERROR" not in output, output
