"""Smoke tests for the runnable examples.

Every example must at least compile and import cleanly; the fast ones
are executed end-to-end as subprocesses (the slower, generator-heavy
ones are exercised by the benchmark harness instead).
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_importer.py",
    "engine_sweep.py",
    "streaming_ingest.py",
    "lsh_blocking.py",
    "serving_load.py",
    "tracing_pipeline.py",
    "graph_explore.py",
    "columnar_kernels.py",
    "telemetry_warehouse.py",
]


def test_examples_directory_is_populated():
    names = {path.name for path in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[path.name for path in ALL_EXAMPLES]
)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "examples must print their findings"
