import numpy as np
import pytest

from fqg import wedderburn as wd_module
from fqg.blockalg import BlockAlgebra
from fqg.errors import NotCStarAlgebra, WedderburnRetry
from fqg.wedderburn import AbstractStarAlgebra, wedderburn


def _scrambled(block_dims, seed):
    """Structure constants of a block algebra in a scrambled basis."""
    a = BlockAlgebra(tuple(block_dims))
    n = a.dim
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t += n * np.eye(n)  # keep it well conditioned
    tinv = np.linalg.inv(t)
    left = np.empty((n, n, n), complex)
    star_map = np.empty((n, n), complex)
    for i in range(n):
        xi = a.from_coords(t[:, i])
        for j in range(n):
            xj = a.from_coords(t[:, j])
            left[i][:, j] = tinv @ (xi * xj).coords()
        star_map[:, i] = tinv @ xi.adjoint().coords()
    unit = tinv @ a.unit().coords()
    return AbstractStarAlgebra(left, star_map, unit), a, t


def test_recovers_scrambled_m2_plus_m3():
    alg, _, _ = _scrambled((2, 3), seed=5)
    wd = wedderburn(alg)
    assert wd.algebra.block_dims == (2, 3)
    assert wd.residual < 1e-8
    # iso is a *-isomorphism: spot-check a random product
    rng = np.random.default_rng(0)
    u = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    v = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    xu = wd.algebra.from_coords(wd.iso @ u)
    xv = wd.algebra.from_coords(wd.iso @ v)
    assert (wd.algebra.from_coords(wd.iso @ alg.mult(u, v)) - xu * xv).norm() < 1e-8


def test_recovers_commutative_c4():
    alg, _, _ = _scrambled((1, 1, 1, 1), seed=9)
    wd = wedderburn(alg)
    assert wd.algebra.block_dims == (1, 1, 1, 1)


def test_deterministic_for_fixed_seed():
    alg, _, _ = _scrambled((1, 2), seed=3)
    w1 = wedderburn(alg, seed=42)
    w2 = wedderburn(alg, seed=42)
    assert np.array_equal(w1.iso, w2.iso)


def test_rejects_non_cstar_input():
    # nilpotent 2-dim algebra: e1 = unit, e2^2 = 0, e2* = e2
    left = np.zeros((2, 2, 2), complex)
    left[0] = np.eye(2)
    left[1][1, 0] = 1.0   # e2 * e1 = e2
    star = np.eye(2, dtype=complex)
    unit = np.array([1.0, 0.0], complex)
    with pytest.raises(NotCStarAlgebra):
        wedderburn(AbstractStarAlgebra(left, star, unit))


def _failing_idempotents(err, calls):
    def fail(*args, **kwargs):
        calls.append(1)
        raise err
    return fail


def test_programming_error_propagates_without_retry(monkeypatch):
    alg, _, _ = _scrambled((1, 2), seed=3)
    calls = []
    monkeypatch.setattr(wd_module, "_minimal_central_idempotents",
                        _failing_idempotents(TypeError("bad argument"), calls))
    with pytest.raises(TypeError, match="bad argument"):
        wedderburn(alg)
    assert len(calls) == 1


def test_unlucky_draws_are_retried_then_refused(monkeypatch):
    alg, _, _ = _scrambled((1, 2), seed=3)
    calls = []
    monkeypatch.setattr(wd_module, "_minimal_central_idempotents",
                        _failing_idempotents(WedderburnRetry("unlucky"), calls))
    with pytest.raises(NotCStarAlgebra, match="unlucky"):
        wedderburn(alg, max_tries=3)
    assert len(calls) == 3
