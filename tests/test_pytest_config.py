import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_small(n):
    assert n < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest configuration, a failing hypothesis test
    reports its falsifying example and the run ends normally."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert run.returncode == 1, out


def test_bare_run_imports_the_checkout(tmp_path):
    """Under the repository's pytest configuration, a run with no PYTHONPATH
    imports cohortchain from the checkout's src."""
    src = PYPROJECT.parent / "src"
    (tmp_path / "test_import.py").write_text(
        "from pathlib import Path\n\nimport cohortchain\n\n\n"
        "def test_import():\n"
        f"    assert Path(cohortchain.__file__).parent.parent == Path({str(src)!r})\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_import.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
