"""The per-test time limit in conftest.py must end a hanging test even when
the hang is inside a Hypothesis example, which catches what the test
raises and replays the example."""

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


def test_hypothesis_cannot_swallow_the_time_limit(tmp_path):
    conftest = (HERE / "conftest.py").read_text()
    assert "TIME_LIMIT_S = 60\n" in conftest
    (tmp_path / "conftest.py").write_text(conftest.replace("TIME_LIMIT_S = 60\n", "TIME_LIMIT_S = 1\n"))
    (tmp_path / "test_hang.py").write_text(HANGING_TEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Below this test's own 60 s limit, so a hang shows as this timeout.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_hang.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=50,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout, done.stdout
