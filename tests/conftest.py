import numpy as np
import pytest

from hmgroup import HierRateModel, default_modcod_table
from hmgroup.matching_core import Assignment, CostMatrix, _check_enumeration_cap, _involutions

# Symmetric 3x3 matrix whose two optimal assignments are both 3-cycles, i.e.
# no optimal assignment is self-inverse: the unconstrained optimum costs 8
# while the best grouping costs 9.
COUNTEREXAMPLE_3X3 = np.array(
    [
        [3.0, 4.0, 1.0],
        [4.0, 7.0, 3.0],
        [1.0, 3.0, 2.0],
    ]
)


@pytest.fixture(scope="session")
def counterexample() -> CostMatrix:
    return CostMatrix(COUNTEREXAMPLE_3X3)


@pytest.fixture(scope="session")
def table():
    return default_modcod_table()


@pytest.fixture(scope="session")
def capacity_model() -> HierRateModel:
    return HierRateModel()


def random_symmetric_cost(rng: np.random.Generator, n: int, quantized: bool = False) -> CostMatrix:
    """Random positive symmetric matrix; quantized variants have many ties."""
    if quantized:
        m = rng.integers(1, 6, size=(n, n)).astype(float)
    else:
        m = rng.uniform(0.1, 2.0, size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    return CostMatrix(m)


def hundredths_cost(seed: int, n: int = 60) -> CostMatrix:
    """Symmetric matrix of hundredths 0.50-2.00; at n = 60 the bound solve of
    seeds 205 and 216 is no grouping, so the branch-and-bound runs."""
    m = np.random.default_rng(seed).integers(50, 201, (n, n)) / 100
    return CostMatrix(np.triu(m) + np.triu(m, 1).T)


def perturb(c: CostMatrix, sigma: float, seed: int | np.random.Generator) -> CostMatrix:
    """``c`` plus symmetric N(0, sigma^2) noise, clamped at zero; ``c`` is untouched.
    Draws fill the upper triangle, diagonal included, row-major, and are mirrored.
    ``seed`` is an int or a ``Generator``, which this advances. Tests use it for
    noisy copies."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    n = c.n
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=n * (n + 1) // 2)
    eps = np.zeros((n, n))
    eps[np.triu(np.ones((n, n), dtype=bool))] = noise  # row-major, as triu_indices
    eps += np.triu(eps, 1).T  # mirror: the lower triangle was 0
    return CostMatrix(np.maximum(c.values + eps, 0.0))


def enumerate_involutions(n: int):
    """Stream every grouping of n receivers exactly once; n is checked eagerly (1..12)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_enumeration_cap(n)
    return (Assignment(partner) for partner in _involutions(list(range(n)), list(range(n))))
