import sys

# pccnmf comes first so that OpenBLAS starts on pccnmf's one-thread default, as
# it does for every CLI user; numpy imported earlier would keep its own default.
if "numpy" in sys.modules:
    raise ImportError("numpy was imported before tests/conftest.py imported pccnmf")
import pccnmf  # noqa: E402,F401

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pccnmf import DataMatrix, Factorization, generate_swimmer  # noqa: E402


@pytest.fixture(scope="session")
def swimmer():
    return generate_swimmer()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_mixture(rng, n_pixels, n_images, rank, scale=1.0):
    """Exact mixture: column-stochastic conditionals times a normalized joint.

    Returns (matrix, basis, weights) with matrix = basis @ weights exactly.
    """
    basis = rng.random((n_pixels, rank)) + 0.05
    basis /= basis.sum(axis=0)
    weights = rng.random((rank, n_images)) + 0.05
    weights /= weights.sum()
    weights *= scale
    values = basis @ weights
    return DataMatrix(values), basis, weights


def make_factorization(basis, weights, loss="frobenius"):
    return Factorization(basis=basis, weights=weights, rank=basis.shape[1], loss=loss,
                         seed=0, trace=np.array([0.0]), converged=True)
