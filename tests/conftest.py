import os
import subprocess
import sys

import pytest

import hyperdiff

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hyperdiff.__file__)))


def _run_child(argv, blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture
def run_cli_child():
    """Run `python -m hyperdiff.cli ARGS` in a fresh interpreter whose BLAS
    uses the given number of threads; returns the CompletedProcess."""
    def run(args, blas_threads):
        return _run_child(["-m", "hyperdiff.cli", *args], blas_threads)
    return run


@pytest.fixture
def run_python_child():
    """Run `python -c CODE` in a fresh interpreter whose BLAS uses the given
    number of threads; returns the CompletedProcess."""
    def run(code, blas_threads):
        return _run_child(["-c", code], blas_threads)
    return run
