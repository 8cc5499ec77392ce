import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conmoe
from conmoe import ModelSpec, gen_synthetic, gen_tokens, run_calibration
from conmoe.model import PROJECTIONS, MoELayer


@pytest.fixture(scope="session")
def small_spec():
    return ModelSpec(num_layers=4, num_experts=8, hidden_dim=16, intermediate_dim=24, top_k=2)


@pytest.fixture(scope="session")
def small_model(small_spec):
    model, _ = gen_synthetic(small_spec, seed=7)
    return model


@pytest.fixture(scope="session")
def small_tokens(small_spec):
    return gen_tokens(32, small_spec.hidden_dim, seed=3)


@pytest.fixture(scope="session")
def small_stats(small_model, small_tokens):
    return run_calibration(small_model, small_tokens)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def run_python_subprocess(args, blas_threads):
    """`python ARGS` in a fresh interpreter that imports this conmoe and
    whose OpenBLAS uses the given number of threads. A RuntimeWarning is an
    error there, as in this suite, so a warning fails the command."""
    src = str(Path(conmoe.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def run_cli_subprocess(argv, blas_threads):
    """`python -m conmoe.cli ARGV` in a fresh interpreter, as run_python_subprocess."""
    return run_python_subprocess(["-m", "conmoe.cli", *argv], blas_threads)


def stack_layer(experts, router):
    """MoELayer whose block holds the given ExpertWeights, in order."""
    block = np.stack([[getattr(e, p).ravel() for p in PROJECTIONS] for e in experts])
    return MoELayer(block=block, router=router)


def experts_equal(a, b):
    return all(np.array_equal(getattr(a, p), getattr(b, p)) for p in PROJECTIONS)
