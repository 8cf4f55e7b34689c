"""Package-level checks."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covridge

SRC = Path(covridge.__file__).resolve().parents[1]
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def run_python(*args):
    """A fresh interpreter that imports covridge from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_every_exported_name_resolves():
    # a star import fails on any name in __all__ that the package lacks
    namespace: dict = {}
    exec("from covridge import *", namespace)
    assert set(covridge.__all__) <= set(namespace)


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test-only oracle; the package reads boundaries off parent lists
    done = run_python("-c", "import sys, covridge.cli; print('networkx' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_generators_and_suites_run_without_networkx(tmp_path):
    commands = [
        ["gen", "sem", "--p", "8", "--n", "60", "--out", str(tmp_path / "sem")],
        ["bench", "sem", "--reps", "1", "--B", "10", "--p", "8", "--sizes", "60",
         "--seed", "1", "--out", str(tmp_path / "bench.json")],
    ]
    # a None entry in sys.modules makes `import networkx` raise ImportError
    done = run_python("-c", f"""
import sys
sys.modules["networkx"] = None
from covridge.cli import main
for argv in {commands!r}:
    if main(argv) != 0:
        sys.exit(f"exit code not 0: {{argv}}")
""")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sem" / "truth.json").exists()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help(script):
    done = run_python(str(script), "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_scripts_found():
    assert {path.name for path in SCRIPTS} >= {
        "toy_replication.py", "sem_replication.py", "null_calibration.py"}
