"""A failing hypothesis test is reported, not turned into a crash.

``pytest.ini`` sets ``filterwarnings = error``.  Hypothesis imports
libcst to write a failure patch, and that import warns, inside a pytest
hook; without the pre-import in ``tests/conftest.py`` the session ends
with INTERNALERROR (exit code 3), the falsifying example is never
printed and no later test runs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_failing_given_test_prints_its_example(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    shutil.copy(ROOT / "pytest.ini", tmp_path / "pytest.ini")
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
