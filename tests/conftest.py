import os
import subprocess
import sys

import pytest

import hyperdiff

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hyperdiff.__file__)))


@pytest.fixture
def run_cli_child():
    """Run `python -m hyperdiff.cli ARGS` in a fresh interpreter whose BLAS
    uses the given number of threads; returns the CompletedProcess."""
    def run(args, blas_threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                   OMP_NUM_THREADS=str(blas_threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "hyperdiff.cli", *args],
                              env=env, capture_output=True, text=True,
                              timeout=300)
    return run
