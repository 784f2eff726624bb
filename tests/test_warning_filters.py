"""The pytest warning filters of pyproject.toml keep failures readable.

Every DeprecationWarning is an error there. Hypothesis's pytest plugin
touches the deprecated mypy_extensions.TypedDict while it reports a
failing @given test, and without the one filter that ignores that
warning the report ends in an INTERNALERROR that hides the falsifying
example and stops the session.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

INNER = '''\
import warnings
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_counterexample_is_shown(x):
    assert x < 5


def test_own_deprecation_still_fails():
    warnings.warn("raised by the test itself", DeprecationWarning)
'''


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_inner.py").write_text(INNER, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8")
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_counterexample_is_shown(" in out
    assert "x=5" in out
    assert "FAILED test_inner.py::test_counterexample_is_shown" in out
    assert ("FAILED test_inner.py::test_own_deprecation_still_fails - "
            "DeprecationWarning") in out
    assert "DeprecationWarning: raised by the test itself" in out
    assert "2 failed" in out
