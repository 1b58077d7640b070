import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # under the project's filterwarnings, a failing @given test is reported
    # as one failure and the tests after it still run
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_given_fails(x):
            assert False


        def test_plain_fails():
            assert False
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "test_two.py::test_plain_fails" in run.stdout
    assert "2 failed" in run.stdout
