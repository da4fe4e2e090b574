import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fqg import blockalg as ba
from fqg import cli
from fqg.biinner import exp_element
from fqg.blockalg import (BlockAlgebra, ToleranceConfig, centre_basis, invert,
                          polar_symmetry, spectrum, tensor_algebra, tensor_element)
from fqg.duality import build_dual
from fqg.errors import NotInvertible, NotSelfAdjoint, ShapeMismatch
from fqg.groups import by_name
from fqg.hopf import function_algebra, group_algebra
from fqg.kacpaljutkin import build_kac_paljutkin
from fqg.wedderburn import AbstractStarAlgebra

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
    return {k for k, v in ba.hom_residuals(m, source, target, anti=True).items() if v > thresh}


def test_hom_residuals_isolate_each_property():
    """Each residual fails on a map that breaks that property and keeps the
    others it can keep (on M_2 every automorphism is anti-multiplicative only
    if it is not multiplicative, and a Jordan failure breaks both)."""
    a = BlockAlgebra((1, 2))
    ident = np.eye(a.dim)
    assert _failing(ident, a, a) == {"anti_multiplicative"}
    transpose = ident[a.layout.adjoint]
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


@pytest.mark.parametrize("shape, axes, out", [
    ((576, 24, 1, 24, 1), "kirjs", "ij"),     # pair products of the C(S4) coproduct
    ((3, 36, 6, 1, 6, 1), "kirjs", "ij"),     # a stack of maps into C^36
    ((0, 36, 6, 1, 6, 1), "kirjs", "ij"),     # an empty stack
    ((5, 12, 7, 1, 1), "kirs", "i"),          # star defects
    ((4, 9, 3, 9, 3), "kirjs", "ij"),         # blocks of size 3 keep the einsum
])
def test_sq_norms_match_the_plain_reduction(shape, axes, out):
    """The squared norms against sum |x|^2 over the summed letters, within
    round-off; size-1 blocks take the row-wise path."""
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    summed = tuple(i - len(axes) for i, c in enumerate(axes) if c not in out)
    want = (np.abs(x) ** 2).sum(axis=summed)
    got = ba._sq_norms(x, axes, out)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * max(1.0, want.max(initial=0.0))


def test_hom_residuals_compute_anti_and_jordan_only_on_request():
    """The default call returns the three *-homomorphism keys and nothing
    else, so a caller that forgets anti=True gets a KeyError, not a zero."""
    a = BlockAlgebra((1, 2))
    transpose = np.eye(a.dim)[a.layout.adjoint]
    full = ba.hom_residuals(transpose, a, a, anti=True)
    short = ba.hom_residuals(transpose, a, a)
    assert set(short) == {"multiplicative", "star_preserving", "unital"}
    assert short == {k: full[k] for k in short}
    with pytest.raises(KeyError):
        short["anti_multiplicative"]


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


HOM_KEYS = ("multiplicative", "anti_multiplicative", "jordan", "star_preserving", "unital")


def _pair_loop_hom_residuals(m, source, target):
    """All five residuals of hom_residuals from one product of images per
    basis pair, kept as the oracle of its one-matmul kernel; source is a
    BlockAlgebra or an AbstractStarAlgebra."""
    if isinstance(source, BlockAlgebra):
        def mult(x, y):
            return ba.products(source, x, y)
        star, unit = (lambda x: ba.adjoints(source, x)), source.unit_coords()
    else:
        mult, star, unit = source.mult, source.star_of, source.unit
    eye = np.eye(source.dim)
    img = [m @ e for e in eye]
    res = dict.fromkeys(HOM_KEYS, 0.0)
    for i, ei in enumerate(eye):
        res["star_preserving"] = max(res["star_preserving"], np.linalg.norm(
            m @ star(ei) - ba.adjoints(target, img[i])))
        for j, ej in enumerate(eye):
            ij, ji = ba.products(target, img[i], img[j]), ba.products(target, img[j], img[i])
            want, want_ji = m @ mult(ei, ej), m @ mult(ej, ei)
            for key, defect in (("multiplicative", want - ij), ("anti_multiplicative", want - ji),
                                ("jordan", want + want_ji - ij - ji)):
                res[key] = max(res[key], np.linalg.norm(defect))
    res["unital"] = np.linalg.norm(m @ unit - target.unit_coords())
    return res


def _abstract_copy(a, rng):
    """a's structure constants in a random basis t, as the Wedderburn engine
    receives an algebra, and t, the *-isomorphism from it onto a."""
    n = a.dim
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n)
    tinv = np.linalg.inv(t)
    left = tinv @ np.tensordot(t.T, ba.left_mult_tensor(a), axes=(1, 0)) @ t
    star = tinv @ np.eye(n)[a.layout.adjoint] @ t.conj()
    return AbstractStarAlgebra(left, star, tinv @ a.unit_coords()), t


def _random_map(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hom_kernel_case(case):
    """(maps, source, target) of one input of the kernel: maps is a list of
    single maps, or one (k, target dim, source dim) stack."""
    rng = np.random.default_rng(17)
    if case == "block":
        h = function_algebra(by_name("S3"))
        src, tgt = BlockAlgebra((2, 1, 1)), BlockAlgebra((1, 2, 2))
        return [(h.coproduct, h.algebra, h.square),
                (_random_map(rng, (tgt.dim, src.dim)), src, tgt)]
    if case == "abstract":
        a = BlockAlgebra((1, 2))
        alg, t = _abstract_copy(a, rng)
        return [(t, alg, a), (t + 0.1 * _random_map(rng, t.shape), alg, a)]
    src, tgt = BlockAlgebra((1, 2)), BlockAlgebra((2, 1))
    return [(_random_map(rng, (3, tgt.dim, src.dim)), src, tgt)]


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("case", ["block", "abstract", "stack"])
def test_hom_kernel_matches_the_pair_loop(case, anti):
    """Both sides sum the same squared entries of products of two columns of
    m, in other orders, so they agree to 1e-13 max(1, ||m||^2): a few ulps
    of the largest squared defect over each (1 + 2 + 4 + 8)-fold sum."""
    for m, source, target in _hom_kernel_case(case):
        got = ba.hom_residuals(m, source, target, anti=anti)
        keys = HOM_KEYS if anti else ("multiplicative", "star_preserving", "unital")
        assert set(got) == set(keys)
        for k, mk in enumerate(m if m.ndim == 3 else [m]):
            want = _pair_loop_hom_residuals(mk, source, target)
            bound = 1e-13 * max(1.0, np.linalg.norm(mk) ** 2)
            for key in keys:
                value = got[key][k] if m.ndim == 3 else got[key]
                assert abs(value - want[key]) <= bound, (case, key)


def _ad_shear(a):
    g = a.element([np.array([[1.0, 1.0], [0.0, 1.0]])])
    return np.column_stack([(g * a.from_coords(e) * invert(g)).coords() for e in np.eye(a.dim)])


@pytest.mark.parametrize("case", ["transpose", "non_unital", "not_star"])
def test_hom_residuals_fail_by_order_one(case):
    """Maps that break one property by O(1), as one map and as a stack of
    two copies: the transpose of M_2 is anti-multiplicative and not
    multiplicative (e_12 e_21 = e_11 goes to e_11, e_21 e_12 to e_22), C^2 ->
    M_2, (a, b) -> diag(a, 0), is a non-unital *-homomorphism, and
    conjugation by a shear of M_2 is a unital homomorphism that does not
    preserve the adjoint."""
    m2 = BlockAlgebra((2,))
    exact = {}
    if case == "transpose":
        m, source, exact = np.eye(4)[m2.layout.adjoint], m2, {"multiplicative": np.sqrt(2)}
    elif case == "non_unital":
        m, source, exact = np.zeros((4, 2)), BlockAlgebra((1, 1)), {"unital": 1.0}
        m[0, 0] = 1.0
    else:
        m, source = _ad_shear(m2), m2
    fails = set(exact) or {"star_preserving", "anti_multiplicative"}
    oracle = _pair_loop_hom_residuals(m, source, m2)
    for got in (ba.hom_residuals(m, source, m2, anti=True),
                {k: v[1] for k, v in ba.hom_residuals(np.stack([m, m]), source, m2,
                                                      anti=True).items()}):
        assert {k for k, v in got.items() if v > 1e-14} == fails, case
        for key in fails:
            assert got[key] >= 0.5 and abs(got[key] - oracle[key]) <= 1e-13, (case, key)
        for key, value in exact.items():
            assert abs(got[key] - value) <= 1e-15, (case, key)


def test_realify_antilinear_writes_no_negative_zero():
    b = np.array([[1.0, 0.0], [0.0, -2.0]]) + 1j * np.array([[0.0, 3.0], [-0.0, 0.0]])
    for mat in (b, np.eye(3, dtype=complex)[[0, 2, 1]].conj()):
        real = ba.realify_antilinear(mat)
        zeros = real == 0
        assert zeros.any() and not np.signbit(real[zeros]).any()


# -- coordinate-vector storage against the per-block formulas ----------------

def _storage_algebras(workbenches):
    """The 11 workbenches and their duals, kp (x) kp (blocks of one size that
    are not adjacent) and C(S4) (24 blocks of size 1)."""
    out = []
    for wb in workbenches.values():
        out += [wb.hopf.algebra, wb.dual.hopf.algebra]
    kp = workbenches["kp"].hopf.algebra
    return out + [tensor_algebra(kp, kp), function_algebra(by_name("S4")).algebra]


def _cat(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b).reshape(-1) for b in blocks])


def _bitwise(x, blocks):
    assert x.coords().tobytes() == _cat(blocks).tobytes()


def _close(got, want, tol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def test_element_ops_match_per_block_formulas(workbenches):
    rng = np.random.default_rng(71)
    for a in _storage_algebras(workbenches):
        bx = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in a.block_dims]
        by = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in a.block_dims]
        x, y = a.element(bx), a.element(by)
        _bitwise(x, bx)
        assert all(np.array_equal(g, w) for g, w in zip(x.blocks, bx))
        _bitwise(x + y, [p + q for p, q in zip(bx, by)])
        _bitwise(x - y, [p - q for p, q in zip(bx, by)])
        _bitwise(-x, [-p for p in bx])
        _bitwise((0.5 - 2j) * x, [complex(0.5 - 2j) * p for p in bx])
        _bitwise(x * 3.0, [complex(3.0) * p for p in bx])
        _bitwise(x.adjoint(), [p.conj().T for p in bx])
        prod = x * y
        want = [p @ q for p, q in zip(bx, by)]
        for got_b, want_b in zip(prod.blocks, want):
            if len(want_b) == 1:
                assert got_b.tobytes() == want_b.tobytes()
        _close(prod.coords(), _cat(want))
        _close(x.norm(), np.sqrt(sum(np.sum(np.abs(p) ** 2) for p in bx)))
        _close(x.opnorm(), max(np.linalg.norm(p, 2) for p in bx))
        _close(x.smallest_sv(), min(np.linalg.svd(p, compute_uv=False)[-1] for p in bx))
        _close(invert(x).coords(), _cat([np.linalg.inv(p) for p in bx]))
        for scale in (0.3, 3.0, 30.0):      # 3 and 30 also run the squarings
            _close(exp_element(scale * x).coords(),
                   _cat([scipy.linalg.expm(scale * p) for p in bx]))

        bs = [(p + p.conj().T) / 2 for p in bx]
        s = a.element(bs)
        _close(spectrum(s), np.sort(np.concatenate([np.linalg.eigvalsh(p) for p in bs])))
        absval, sym = polar_symmetry(s)
        eig = [np.linalg.eigh((p + p.conj().T) / 2) for p in bs]
        _close(absval.coords(), _cat([(q * np.abs(lam)) @ q.conj().T for lam, q in eig]))
        _close(sym.coords(), _cat([(q * np.sign(lam)) @ q.conj().T for lam, q in eig]))


def _old_draw(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _old_random_element(a, rng):
    return [_old_draw(rng, n) for n in a.block_dims]


def _old_random_selfadjoint(a, rng):
    return [0.5 * (b + b.conj().T) for b in _old_random_element(a, rng)]


def _old_random_selfadjoint_invertible(a, rng):
    for _ in range(64):
        blocks = _old_random_selfadjoint(a, rng)
        if min(np.linalg.svd(b, compute_uv=False)[-1] for b in blocks) > 1e-3:
            return blocks
    raise AssertionError("no draw")


def _old_random_positive_invertible(a, rng):
    return [b @ b.conj().T + 0.1 * np.eye(len(b)) for b in _old_random_element(a, rng)]


def _old_random_unitary(a, rng):
    out = []
    for n in a.block_dims:
        q, r = np.linalg.qr(_old_draw(rng, n))
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def _old_random_central_unitary(a, rng):
    phases = np.exp(2j * np.pi * rng.random(a.nblocks))
    return [ph * np.eye(n, dtype=complex) for ph, n in zip(phases, a.block_dims)]


@pytest.mark.parametrize("new, old", [
    (ba.random_element, _old_random_element),
    (ba.random_selfadjoint, _old_random_selfadjoint),
    (ba.random_selfadjoint_invertible, _old_random_selfadjoint_invertible),
    (ba.random_positive_invertible, _old_random_positive_invertible),
    (ba.random_unitary, _old_random_unitary),
    (ba.random_central_unitary, _old_random_central_unitary),
])
def test_random_draws_match_per_block_draws(workbenches, new, old):
    """Same numbers from the same seed, and the rng left in the same state,
    so every seeded report keeps its samples."""
    for seed, a in enumerate(_storage_algebras(workbenches)):
        r_new, r_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            _bitwise(new(a, r_new), old(a, r_old))
        assert r_new.bit_generator.state == r_old.bit_generator.state


def test_random_coords_batch_is_consecutive_draws():
    a = BlockAlgebra((2, 1, 3, 1))
    r_batch, r_seq = np.random.default_rng(8), np.random.default_rng(8)
    batch = ba.random_coords(a, r_batch, 5)
    seq = np.array([ba.random_element(a, r_seq).coords() for _ in range(5)])
    assert batch.tobytes() == seq.tobytes()
    assert r_batch.bit_generator.state == r_seq.bit_generator.state


def test_element_storage_is_read_only():
    a = BlockAlgebra((1, 2))
    source = np.arange(a.dim, dtype=complex)
    x = a.from_coords(source)
    source[0] = 99.0                       # the element keeps its own copy
    assert x.coords()[0] == 0
    with pytest.raises(ValueError):
        x.coords()[0] = 1.0
    with pytest.raises(ValueError):
        x.blocks[1][0, 0] = 1.0
    with pytest.raises(AttributeError):
        x.algebra = a
    assert x.coords()[0] == 0 and x.blocks[1][0, 0] == 1


def test_layout_stacks_and_joins_every_block_size():
    a = BlockAlgebra((2, 1, 3, 2, 1))
    lay = a.layout
    assert [idx.shape for idx in lay.by_size.values()] == [(2, 2, 2), (2, 1, 1), (1, 3, 3)]
    v = np.arange(a.dim) + 0j
    stacks = lay.stacks(v)
    assert np.array_equal(stacks[0][1], np.arange(14, 18).reshape(2, 2))
    assert np.array_equal(stacks[1].reshape(-1), [4, 18])
    assert np.array_equal(lay.join(stacks), v)
    labels = a.basis_labels
    assert list(lay.adjoint) == [labels.index((b, s, r)) for b, r, s in labels]
    batch = np.stack([v, 2 * v])
    assert np.array_equal(lay.join(lay.stacks(batch)), batch)


# -- closed forms for blocks of size 1 and 2 ----------------------------------

def _block_families(rng, m, n):
    """(m, n, n) stacks of the kinds of blocks the closed forms must keep to
    LAPACK's accuracy on: generic, rank-1, near-singular, unitary,
    near-unitary, Hermitian, diag(1, 1e-12)-scaled and all-zero blocks."""
    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rank1 = normal(m, n, 1) @ normal(m, 1, n)
    unitary = np.linalg.qr(normal(m, n, n))[0]
    return {"generic": normal(m, n, n), "rank1": rank1,
            "near_singular": rank1 + 1e-10 * normal(m, n, n),
            "unitary": unitary, "near_unitary": unitary + 1e-9 * normal(m, n, n),
            "hermitian": ba.hermitian_part(normal(m, n, n)),
            "scaled": normal(m, n, n) * np.geomspace(1.0, 1e-12, n),
            "zero": np.zeros((m, n, n), complex)}


def _sv_errors(smallest, s):
    """|smallest(s) - sigma_min| / sigma_max per matrix against LAPACK's
    SVD of each matrix (the absolute value where the matrix is 0)."""
    sv = np.array([np.linalg.svd(x, compute_uv=False) for x in s])
    return np.abs(smallest(s) - sv[:, -1]) / np.where(sv[:, 0] > 0, sv[:, 0], 1.0)


def _textbook_smallest_svs(s):
    """sigma_min^2 = (F - sqrt(F^2 - 4 |det|^2)) / 2, F = |M|_F^2: cancels
    when the two singular values are close."""
    f = np.sum(np.abs(s) ** 2, axis=(-2, -1))
    det = np.abs(np.linalg.det(s)) ** 2
    return np.sqrt(np.maximum(0.0, (f - np.sqrt(np.maximum(0.0, f * f - 4 * det))) / 2))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_smallest_block_svs_match_lapack_within_eps_sigma_max(n, scale):
    """The closed forms for n = 1, 2 miss the per-matrix SVD by at most
    1e-14 sigma_max on every family and scale; smallest_svs is the minimum
    over the blocks, a block of size 3 taking LAPACK's."""
    rng = np.random.default_rng(2400 + n)
    for name, s in _block_families(rng, 1000, n).items():
        s = scale * s
        assert _sv_errors(ba._smallest_block_svs, s).max() <= 1e-14, (name, scale)
    a = BlockAlgebra((n, 1, 3, n))
    x = scale * ba.random_coords(a, rng, 200)
    sv = [[np.linalg.svd(b, compute_uv=False) for b in a.from_coords(v).blocks] for v in x]
    smallest = np.array([min(s[-1] for s in blocks) for blocks in sv])
    largest = np.array([max(s[0] for s in blocks) for blocks in sv])
    assert np.all(np.abs(ba.smallest_svs(a, x) - smallest) <= 1e-14 * largest)


def test_textbook_two_by_two_formula_fails_the_accuracy_bound():
    """The bound above has teeth: sigma^2 = (F -+ sqrt(F^2 - 4|det|^2)) / 2
    loses about half the digits on unitary blocks, far beyond 1e-14."""
    s = _block_families(np.random.default_rng(2402), 1000, 2)["unitary"]
    assert _sv_errors(_textbook_smallest_svs, s).max() > 1e-10
    assert _sv_errors(ba._smallest_block_svs, s).max() <= 1e-14


def test_size_one_spectra_and_polar_parts_are_lapacks_bits():
    """For 1x1 blocks the eigenvalue is the real part and the eigenvector 1,
    array_equal to eigvalsh / eigh, through spectra and polar_symmetries too."""
    rng = np.random.default_rng(2403)
    s = np.concatenate([scale * (rng.standard_normal((5000, 4, 1, 1))
                                 + 1j * rng.standard_normal((5000, 4, 1, 1)))
                        for scale in (1e-8, 1.0, 1e8)])
    h = ba.hermitian_part(s)
    assert np.array_equal(ba._hermitian_eigs(s), np.linalg.eigvalsh(h))
    for got, want in zip(ba._hermitian_eigs(s, vectors=True), np.linalg.eigh(h)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    a = BlockAlgebra((1, 2, 1, 1))
    (v,), _ = ba.random_stacks(a, rng, "i", 50)
    loop = [np.linalg.eigh(ba.hermitian_part(t)) for t in a.layout.stacks(v)]
    lam = [x.reshape(len(v), -1) for x, _ in loop]
    assert np.array_equal(ba.spectra(a, v), np.sort(np.concatenate(lam, axis=-1), axis=-1))
    for fn, got in zip((np.abs, np.sign), ba.polar_symmetries(a, v)):
        want = a.layout.join([(q * fn(x)[..., None, :]) @ q.conj().swapaxes(-1, -2)
                              for x, q in loop])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rung", ["kp", "function:D4", "group:dihedral:8"])
def test_sampled_checks_make_no_lapack_call_on_small_blocks(rung, monkeypatch):
    """`fqg verify`'s sampled checks call no SVD on a stack of 1x1 or 2x2
    blocks and no eigvalsh / eigh on a stack of 1x1 blocks."""
    if rung == "kp":
        h = build_kac_paljutkin()
    else:
        kind, _, name = rung.partition(":")
        h = (group_algebra if kind == "group" else function_algebra)(by_name(name))
    d = build_dual(h)
    sizes = {"svd": [], "eigvalsh": [], "eigh": []}

    def recording(name, fn):
        def wrapper(m, *args, **kwargs):
            sizes[name].append(np.shape(m)[-1])
            return fn(m, *args, **kwargs)
        return wrapper
    for name in sizes:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    checks = cli._sampled_checks(h, d, np.random.default_rng(9901), 100, ba.DEFAULT_TOL)
    assert all(c["passed"] for c in checks if c["gating"])
    assert [n for n in sizes["svd"] if n <= 2] == []
    assert [n for n in sizes["eigvalsh"] + sizes["eigh"] if n == 1] == []
    assert max(h.algebra.block_dims) <= 2    # so every call there is on a small block
