import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqg import blockalg as ba
from fqg.blockalg import (BlockAlgebra, ToleranceConfig, centre_basis, invert,
                          polar_symmetry, spectrum, tensor_algebra, tensor_element)
from fqg.errors import NotInvertible, NotSelfAdjoint, ShapeMismatch

RNG = np.random.default_rng(1234)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=1.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ToleranceConfig(inv_tol=bad)


def test_block_shapes_checked():
    a = BlockAlgebra((2, 1))
    with pytest.raises(ShapeMismatch):
        a.element([np.eye(2), np.eye(2)])


def test_unit_is_idempotent_selfadjoint():
    a = BlockAlgebra((2, 3, 1))
    one = a.unit()
    assert (one * one - one).norm() == 0
    assert (one - one.adjoint()).norm() == 0
    assert a.dim == 4 + 9 + 1


# -- polar symmetry ----------------------------------------------------------

def test_polar_symmetry_diagonal_signs():
    a = BlockAlgebra((1, 1))
    v = a.element([[[2.0]], [[-3.0]]])
    absval, sym = polar_symmetry(v)
    assert np.allclose(absval.coords(), [2.0, 3.0])
    assert np.allclose(sym.coords(), [1.0, -1.0])


def test_polar_symmetry_identity():
    a = BlockAlgebra((2,))
    absval, sym = polar_symmetry(a.unit())
    assert absval.allclose(a.unit())
    assert sym.allclose(a.unit())


def test_polar_symmetry_reconstructs_m3():
    # oracle: eigendecomposition, |eigenvalues| and their signs
    a = BlockAlgebra((3,))
    v = ba.random_selfadjoint_invertible(a, RNG)
    absval, sym = polar_symmetry(v)
    lam, q = np.linalg.eigh(v.blocks[0])
    assert np.allclose(absval.blocks[0], (q * np.abs(lam)) @ q.conj().T)
    assert (absval * sym - v).norm() < 1e-12
    assert (sym * sym - a.unit()).norm() < 1e-12
    assert (absval * sym - sym * absval).norm() < 1e-12


def test_polar_symmetry_rejects_non_selfadjoint():
    a = BlockAlgebra((2,))
    with pytest.raises(NotSelfAdjoint):
        polar_symmetry(a.element([[[0, 1], [0, 0]]]))


def test_polar_symmetry_rejects_singular():
    a = BlockAlgebra((1, 1))
    with pytest.raises(NotInvertible):
        polar_symmetry(a.element([[[1.0]], [[0.0]]]))


# -- spectrum ----------------------------------------------------------------

def test_spectrum_diag():
    a = BlockAlgebra((2,))
    assert np.allclose(spectrum(a.unit()), [1.0, 1.0])


def test_spectrum_pauli_x():
    a = BlockAlgebra((2,))
    x = a.element([[[0, 1], [1, 0]]])
    assert np.allclose(spectrum(x), [-1.0, 1.0])


def test_spectrum_matches_characteristic_polynomial_roots():
    # oracle: roots of the characteristic polynomial
    a = BlockAlgebra((4,))
    x = ba.random_selfadjoint(a, RNG)
    got = spectrum(x)
    want = np.sort(np.roots(np.poly(x.blocks[0])).real)
    assert np.allclose(got, want, atol=1e-8)


def test_spectrum_rejects_non_selfadjoint():
    a = BlockAlgebra((2,))
    with pytest.raises(NotSelfAdjoint):
        spectrum(a.element([[[0, 1], [0, 0]]]))


# -- inversion ---------------------------------------------------------------

def test_invert_unit_and_diag():
    a = BlockAlgebra((1, 1))
    assert invert(a.unit()).allclose(a.unit())
    v = a.element([[[2.0]], [[4.0]]])
    assert np.allclose(invert(v).coords(), [0.5, 0.25])


def test_invert_random_adjugate_oracle():
    a = BlockAlgebra((2, 1))
    x = ba.random_element(a, RNG) + 0.5 * a.unit()
    if not x.is_invertible(1e-6):
        pytest.skip("unlucky draw")
    inv = invert(x)
    m = x.blocks[0]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    assert np.allclose(inv.blocks[0], adj)
    assert (x * inv - a.unit()).norm() < 1e-10
    assert (inv * x - a.unit()).norm() < 1e-10


def test_invert_rejects_singular():
    a = BlockAlgebra((2,))
    with pytest.raises(NotInvertible):
        invert(a.element([[[1, 0], [0, 0]]]))


# -- tensor products ---------------------------------------------------------

def test_tensor_unit_and_block_dims():
    a, b = BlockAlgebra((2, 1)), BlockAlgebra((1, 3))
    ab = tensor_algebra(a, b)
    assert ab.block_dims == (2, 6, 1, 3)
    assert tensor_element(a.unit(), b.unit()).allclose(ab.unit())


def test_tensor_spectrum_is_pairwise_products():
    a, b = BlockAlgebra((2,)), BlockAlgebra((2,))
    x = ba.random_selfadjoint(a, RNG)
    y = ba.random_selfadjoint(b, RNG)
    got = spectrum(tensor_element(x, y))
    want = np.sort([p * q for p in spectrum(x) for q in spectrum(y)])
    assert np.allclose(got, want, atol=1e-10)


def test_tensor_mixed_product():
    a, b = BlockAlgebra((2, 1)), BlockAlgebra((3,))
    x, xp = ba.random_element(a, RNG), ba.random_element(a, RNG)
    y, yp = ba.random_element(b, RNG), ba.random_element(b, RNG)
    lhs = tensor_element(x, y) * tensor_element(xp, yp)
    rhs = tensor_element(x * xp, y * yp)
    assert (lhs - rhs).norm() < 1e-12


def test_tensor_perm_consistency():
    a, b = BlockAlgebra((2, 1)), BlockAlgebra((1, 2))
    p = ba.tensor_perm(a, b)
    x, y = ba.random_element(a, RNG), ba.random_element(b, RNG)
    assert np.allclose(np.kron(x.coords(), y.coords())[p],
                       tensor_element(x, y).coords())


def _loop_tensor_perm(a, b):
    """Element-by-element construction, kept as an oracle."""
    a_idx = {lab: i for i, lab in enumerate(a.basis_labels)}
    b_idx = {lab: i for i, lab in enumerate(b.basis_labels)}
    perm = []
    for i, n in enumerate(a.block_dims):
        for j, m in enumerate(b.block_dims):
            for r in range(n):
                for t in range(m):
                    for s in range(n):
                        for u in range(m):
                            perm.append(a_idx[(i, r, s)] * b.dim + b_idx[(j, t, u)])
    return np.array(perm, dtype=np.intp)


@pytest.mark.parametrize("dims_a, dims_b", [((1,), (2,)), ((2, 1), (1, 2)),
                                            ((1, 1, 2), (3, 1)), ((1, 1, 1, 1, 2),) * 2])
def test_closed_form_tensor_and_flip_perms_match_loops(dims_a, dims_b):
    a, b = BlockAlgebra(dims_a), BlockAlgebra(dims_b)
    p = ba.tensor_perm(a, b)
    assert p.dtype == np.intp and np.array_equal(p, _loop_tensor_perm(a, b))
    # the flip sends x (x) y to y (x) x, on every pair of matrix units
    f = ba.flip_perm(a)
    paa, n = ba.tensor_perm(a, a), a.dim
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            xy = np.kron(eye[i], eye[j])[paa]
            assert np.array_equal(xy[f], np.kron(eye[j], eye[i])[paa])


# -- centre ------------------------------------------------------------------

def test_centre_dimension_is_number_of_blocks():
    a = BlockAlgebra((2, 3, 1))
    zs = centre_basis(a)
    assert len(zs) == 3
    x = ba.random_element(a, RNG)
    for z in zs:
        assert (z * x - x * z).norm() < 1e-10


# -- algebraic identities (property-based) -----------------------------------

dims_strategy = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=dims_strategy, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_star_antimultiplicative(dims, seed):
    a = BlockAlgebra(tuple(dims))
    rng = np.random.default_rng(seed)
    x, y = ba.random_element(a, rng), ba.random_element(a, rng)
    assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).norm() < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=dims_strategy, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_opnorm_is_max_block_norm(dims, seed):
    a = BlockAlgebra(tuple(dims))
    rng = np.random.default_rng(seed)
    x = ba.random_element(a, rng)
    assert x.opnorm() == pytest.approx(
        max(np.linalg.norm(b, 2) for b in x.blocks))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(dims=dims_strategy, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_positive_spectrum_floor(dims, seed):
    a = BlockAlgebra(tuple(dims))
    rng = np.random.default_rng(seed)
    p = ba.random_positive_invertible(a, rng)
    assert spectrum(p)[0] >= -1e-9


# -- *-homomorphism certificate ------------------------------------------------

def _failing(m, source, target, thresh=1e-9):
    return {k for k, v in ba.hom_residuals(m, source, target).items() if v > thresh}


def test_hom_residuals_isolate_each_property():
    """Each residual fails on a map that breaks that property and keeps the
    others it can keep (on M_2 every automorphism is anti-multiplicative only
    if it is not multiplicative, and a Jordan failure breaks both)."""
    a = BlockAlgebra((1, 2))
    ident = np.eye(a.dim)
    assert _failing(ident, a, a) == {"anti_multiplicative"}
    transpose = ident[ba.adjoint_perm(a)]
    assert _failing(transpose, a, a) == {"multiplicative"}
    g = a.element([np.eye(1), np.array([[1.0, 1.0], [0.0, 1.0]])])
    ad_g = np.column_stack([(g * a.from_coords(e) * invert(g)).coords() for e in ident])
    assert _failing(ad_g, a, a) == {"anti_multiplicative", "star_preserving"}
    # scale the off-diagonal matrix units of M_2 by 2: unital and *-preserving
    stretch = np.diag([1.0, 1.0, 2.0, 2.0, 1.0])
    assert _failing(stretch, a, a) == {"multiplicative", "anti_multiplicative", "jordan"}
    c2 = BlockAlgebra((1, 1))
    assert _failing(np.diag([1.0, 0.0]), c2, c2) == {"unital"}
    # between different algebras: x -> x (+) x is a unital *-homomorphism
    # C^2 -> C^2 (+) C^2 that is not onto
    c4 = BlockAlgebra((1, 1, 1, 1))
    assert _failing(np.vstack([np.eye(2), np.eye(2)]), c2, c4) == set()


def test_hom_residuals_are_largest_pair_defects():
    a, b = BlockAlgebra((2, 1)), BlockAlgebra((1, 2, 2))
    rng = np.random.default_rng(5)
    m = rng.standard_normal((b.dim, a.dim)) + 1j * rng.standard_normal((b.dim, a.dim))
    img = [b.from_coords(m @ e) for e in np.eye(a.dim)]
    phi = lambda x: b.from_coords(m @ x.coords())  # noqa: E731
    basis = [a.from_coords(e) for e in np.eye(a.dim)]
    want_m = max((phi(x * y) - img[i] * img[j]).norm()
                 for i, x in enumerate(basis) for j, y in enumerate(basis))
    want_s = max((phi(x.adjoint()) - img[i].adjoint()).norm() for i, x in enumerate(basis))
    got = ba.hom_residuals(m, a, b)
    assert abs(got["multiplicative"] - want_m) < 1e-12 * want_m
    assert abs(got["star_preserving"] - want_s) < 1e-12 * want_s
    assert abs(got["unital"] - (phi(a.unit()) - b.unit()).norm()) < 1e-12


def test_realify_antilinear_writes_no_negative_zero():
    b = np.array([[1.0, 0.0], [0.0, -2.0]]) + 1j * np.array([[0.0, 3.0], [-0.0, 0.0]])
    for mat in (b, np.eye(3, dtype=complex)[[0, 2, 1]].conj()):
        real = ba.realify_antilinear(mat)
        zeros = real == 0
        assert zeros.any() and not np.signbit(real[zeros]).any()
