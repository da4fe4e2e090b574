import numpy as np
import pytest

from fqg import blockalg as ba
from fqg.blockalg import spectrum
from fqg.duality import (Functional, build_dual, fourier_of_counit_support,
                         jordan_decompose, pullback)
from fqg.errors import (NotFaithful, NotInjective, NotInvertible,
                        NotSelfAdjoint, NotStarHom)
from fqg.groups import cyclic, symmetric
from fqg.hopf import counit_support, function_algebra, group_algebra, verify_axioms
from fqg.morphisms import AlgebraMap, classify_map
from tensor_maps import tensor_functional_row, tensor_map

RNG = np.random.default_rng(2024)


def _lam(wb, g):
    phi = wb.hopf.meta["group_basis"]
    return wb.hopf.algebra.from_coords(phi[:, g])


# -- dual construction ---------------------------------------------------------

def test_dual_axioms_pass_everywhere(workbenches):
    for key, wb in workbenches.items():
        rep = verify_axioms(wb.dual.hopf)
        assert rep.passed, f"{key}: {rep.failing()}"


def test_dual_of_group_algebra_is_function_algebra_shape(workbenches):
    for g in ["Z2", "Z3", "Z4", "S3", "D4"]:
        wb = workbenches[f"group:{g}"]
        dims = wb.dual.hopf.algebra.block_dims
        assert all(d == 1 for d in dims)
        assert len(dims) == wb.hopf.algebra.dim


def test_dual_of_function_s3_blocks(fs3):
    assert sorted(fs3.dual.hopf.algebra.block_dims) == [1, 1, 2]


def _loop_dual_coproduct(d):
    """Oracle: the dual coproduct transported one column at a time, through
    the multiplication matrix on tensor coordinates."""
    h, n = d.base, d.base.algebra.dim
    dual_alg = d.hopf.algebra
    phi2 = tensor_map(d.to_dual_mat, d.to_dual_mat, np.arange(n * n),
                         ba.tensor_perm(dual_alg, dual_alg))
    mult_mat = ba.mult_matrix(h.algebra)[:, h.perm2]
    iperm2 = ba.inverse_perm(h.perm2)
    out = np.empty((n * n, n), complex)
    for j in range(n):
        out[:, j] = phi2 @ (d.from_dual_mat[:, j] @ mult_mat)[iperm2]
    return out


def test_dual_coproduct_matches_the_per_column_loop(workbenches, s4_duals):
    """build_dual forms each column as phi gamma_j phi^T, which sums in
    another order than phi (x) phi applied to vec(gamma_j): equal within
    round-off (at most 4.5e-16 relative, on C[S4])."""
    duals = {key: wb.dual for key, wb in workbenches.items()} | s4_duals
    for key, d in duals.items():
        want = _loop_dual_coproduct(d)
        assert np.abs(d.hopf.coproduct - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), key
        assert d.hopf.coproduct.flags.c_contiguous, key


def test_build_dual_structure_constants_match_basis_loops(workbenches, monkeypatch):
    """The convolution tensor and the star handed to the Wedderburn engine
    against the former per-basis loops: the tensor bit for bit, the star
    equal (the loop's matrix-vector products sign its zeros differently)."""
    from fqg import duality
    seen = []
    real = duality.wedderburn

    def capture(abstract, seed):
        seen.append(abstract)
        return real(abstract, seed=seed)

    monkeypatch.setattr(duality, "wedderburn", capture)
    for key, wb in workbenches.items():
        h = wb.hopf
        n = h.algebra.dim
        build_dual(h)
        left = np.empty((n, n, n), complex)
        eye = np.eye(n)
        for a in range(n):
            for b in range(n):
                left[a][:, b] = np.kron(eye[a], eye[b])[h.perm2] @ h.coproduct
        kstar_cols = np.column_stack([h.kappa(h.algebra.basis_element(j)).adjoint().coords()
                                      for j in range(n)])
        assert seen[-1].left_mult.tobytes() == left.tobytes(), key
        assert np.array_equal(seen[-1].star, np.conj(kstar_cols.T)), key


def test_dual_multiplication_is_convolution_of_functionals(fs3):
    d = fs3.dual
    h = fs3.hopf
    for _ in range(5):
        f = Functional(h, ba.random_element(h.algebra, RNG))
        g = Functional(h, ba.random_element(h.algebra, RNG))
        prod = d.to_dual(f) * d.to_dual(g)
        x = ba.random_element(h.algebra, RNG)
        lhs = d.pairing(x, prod)
        fg_row = tensor_functional_row(f.row, g.row, h.perm2)
        rhs = fg_row @ (h.coproduct @ x.coords())
        assert abs(lhs - rhs) < 1e-10


def test_bidual_isomorphic_to_original():
    # candidate evaluation maps, searched for a Hopf *-isomorphism
    h = group_algebra(cyclic(3))
    d = build_dual(h)
    dd = build_dual(d.hopf)
    n = h.algebra.dim
    ev = np.empty((n, n), complex)
    for j in range(n):
        x = h.algebra.basis_element(j)
        row = np.array([d.pairing(x, d.hopf.algebra.basis_element(k)).conjugate()
                        for k in range(n)])
        # row of the evaluation functional on the dual, then into bidual blocks
        ev[:, j] = dd.to_dual_mat @ np.array(
            [d.pairing(x, d.hopf.algebra.basis_element(k)) for k in range(n)])
    candidates = [AlgebraMap(h.algebra, dd.hopf.algebra, ev),
                  AlgebraMap(h.algebra, dd.hopf.algebra, ev @ h.antipode)]
    found = None
    for cand in candidates:
        rep = classify_map(cand, h, dd.hopf)
        f = rep["flags"]
        if f["bijective"] and f["multiplicative"] and f["star_preserving"] \
                and f["unital"] and f["hopf"]:
            found = cand
            break
    assert found is not None, "no Hopf *-isomorphism A -> A^^ among candidates"


# -- Fourier transform ---------------------------------------------------------

def test_fourier_pairing_definition(workbenches):
    for wb in workbenches.values():
        d, h = wb.dual, wb.hopf
        for _ in range(3):
            a = ba.random_element(h.algebra, RNG)
            b = ba.random_element(h.algebra, RNG)
            assert abs(d.pairing(a, d.fourier(b)) - h.tau(a * b)) < 1e-10


def test_fourier_on_group_basis_z2(gz2):
    # oracle: tau(lam_g lam_h) = [gh = e] against beta(lam_h, F(lam_g))
    d = gz2.dual
    for g in range(2):
        fg = d.fourier(_lam(gz2, g))
        for hh in range(2):
            want = 1.0 if (g + hh) % 2 == 0 else 0.0
            assert abs(d.pairing(_lam(gz2, hh), fg) - want) < 1e-12


def test_fourier_bijective(workbenches):
    for wb in workbenches.values():
        x = ba.random_element(wb.hopf.algebra, RNG)
        assert (wb.dual.inverse_fourier(wb.dual.fourier(x)) - x).norm() < 1e-10


def test_fourier_of_unit_is_haar_density(workbenches):
    for wb in workbenches.values():
        tau_fn = Functional(wb.hopf, wb.hopf.algebra.unit())
        got = wb.dual.fourier(wb.hopf.algebra.unit())
        assert (got - wb.dual.to_dual(tau_fn)).norm() < 1e-10


def test_fourier_counit_support_is_scalar_times_unit(workbenches):
    for wb in workbenches.values():
        scalar, resid = fourier_of_counit_support(wb.hopf, wb.dual)
        assert resid < 1e-10
        j = counit_support(wb.hopf).element
        assert abs(scalar - wb.hopf.tau(j)) < 1e-10
        assert abs(scalar) > 1e-3  # reported, nonzero, not normalised away


# -- convolution ---------------------------------------------------------------

def test_convolution_on_group_basis_z2(gz2):
    d = gz2.dual
    lam = [_lam(gz2, g) for g in range(2)]
    assert (d.convolve(lam[1], lam[1]) - lam[1]).norm() < 1e-12
    assert d.convolve(lam[0], lam[1]).norm() < 1e-12
    # c <> unit with c = lam_1: tau(lam_1) = 0
    assert d.convolve(lam[1], gz2.hopf.algebra.unit()).norm() < 1e-12


def test_convolution_unit_law(workbenches):
    for wb in workbenches.values():
        one = wb.hopf.algebra.unit()
        for _ in range(5):
            c = ba.random_element(wb.hopf.algebra, RNG)
            assert (wb.dual.convolve(c, one) - wb.hopf.tau(c) * one).norm() < 1e-10
            assert (wb.dual.convolve(one, c) - wb.hopf.tau(c) * one).norm() < 1e-10


def test_convolution_associative_cs3(fs3):
    d = fs3.dual
    worst = 0.0
    rng = np.random.default_rng(50)
    for _ in range(50):
        x, y, z = (ba.random_element(fs3.hopf.algebra, rng) for _ in range(3))
        worst = max(worst, (d.convolve(d.convolve(x, y), z)
                            - d.convolve(x, d.convolve(y, z))).norm())
    assert worst < 1e-9


def test_convolution_selfadjoint_invertible_stability(workbenches):
    rng = np.random.default_rng(99)
    for wb in workbenches.values():
        for _ in range(20):
            c = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
            y = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
            w = wb.dual.convolve(c, y)
            assert (w - w.adjoint()).norm() < 1e-9
            assert w.smallest_sv() > 1e-8


def test_convolution_invertibility_has_exceptions():
    """Convolution stability is generic, not universal: a hand-picked
    self-adjoint invertible pair convolves to a singular element."""
    h = function_algebra(cyclic(2))
    d = build_dual(h)
    c = h.algebra.element([[[3.0]], [[-1.0]]])
    y = h.algebra.element([[[0.5]], [[1.5]]])
    assert c.is_invertible() and y.is_invertible()
    w = d.convolve(c, y)
    assert w.smallest_sv() < 1e-12


# -- Jordan decomposition --------------------------------------------------------

def test_jordan_sign_projection(gz2):
    v = gz2.hopf.algebra.element([[[2.0]], [[-3.0]]])
    f1, f2, p = jordan_decompose(Functional(gz2.hopf, v))
    assert np.allclose(p.coords(), [1.0, 0.0])
    assert np.allclose(f1.density.coords(), [2.0, 0.0])
    assert np.allclose(f2.density.coords(), [0.0, 3.0])


def test_jordan_positive_density_trivial(kp):
    v = ba.random_positive_invertible(kp.hopf.algebra, RNG)
    f1, f2, p = jordan_decompose(Functional(kp.hopf, v))
    assert p.allclose(kp.hopf.algebra.unit())
    assert f2.density.norm() < 1e-10


def test_jordan_random_spectral_oracle():
    h = group_algebra(symmetric(3))
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = ba.random_selfadjoint_invertible(h.algebra, rng)
        f = Functional(h, v)
        f1, f2, p = jordan_decompose(f)
        # oracle: spectral projection onto positive part of the density
        blocks = []
        for b in v.blocks:
            lam, q = np.linalg.eigh(b)
            blocks.append((q * (lam > 0)) @ q.conj().T)
        p_oracle = h.algebra.element(blocks)
        assert p.allclose(p_oracle, 1e-8)
        assert f1.is_positive() and f2.is_positive()
        x = ba.random_element(h.algebra, rng)
        one = h.algebra.unit()
        assert abs(f1((one - p) * x)) < 1e-10
        assert abs(f2(p * x)) < 1e-10
        assert abs((f1(x) - f2(x)) - f(x)) < 1e-10


def test_jordan_rejects_bad_densities(kp):
    with pytest.raises(NotSelfAdjoint):
        jordan_decompose(Functional(kp.hopf, 1j * kp.hopf.algebra.unit()))
    with pytest.raises(NotInvertible):
        jordan_decompose(Functional(kp.hopf, kp.hopf.algebra.block_unit(0)))


# -- faithfulness and pullbacks ---------------------------------------------------

def test_faithful_iff_invertible_density(kp):
    h = kp.hopf
    v = ba.random_selfadjoint_invertible(h.algebra, RNG)
    f = Functional(h, v)
    assert f.is_faithful() and f.annihilator_rank_defect() == 0
    g = Functional(h, h.algebra.block_unit(0))
    assert not g.is_faithful() and g.annihilator_rank_defect() > 0


def test_annihilator_rank_defect_matches_basis_loop(workbenches):
    rng = np.random.default_rng(12)
    for key, wb in workbenches.items():
        h, a = wb.hopf, wb.hopf.algebra
        basis = [a.basis_element(k) for k in range(a.dim)]
        units = a.central_projections()
        densities = [ba.random_element(a, rng), a.unit(), units[0], units[0] + units[-1],
                     a.unit() - units[-1]]
        for v in densities:
            f = Functional(h, v)
            g = np.array([[f(x * y) for y in basis] for x in basis])
            want = a.dim - ba.numerical_rank(g)[0]
            assert f.annihilator_rank_defect() == want, key


def test_pullback_identity(kp):
    h = kp.hopf
    f = Functional(h, ba.random_selfadjoint_invertible(h.algebra, RNG))
    back = pullback(np.eye(h.algebra.dim), f, h)
    assert (back.density - f.density).norm() < 1e-10


def test_pullback_along_coproduct_is_convolution_engine(fs3):
    """The composite (tau(c .) (x) tau(y .)) o delta has density c <> y."""
    h, d = fs3.hopf, fs3.dual
    from fqg.hopf import HopfAlgebra
    a2 = h.square
    # only the Haar row of the tensor square matters for Functional storage
    haar2 = tensor_functional_row(h.haar, h.haar, h.perm2)
    h2 = HopfAlgebra(a2, np.zeros((a2.dim ** 2, a2.dim)), np.zeros(a2.dim),
                     np.eye(a2.dim), haar2, name="square")
    rng = np.random.default_rng(11)
    c = ba.random_selfadjoint_invertible(h.algebra, rng)
    y = ba.random_selfadjoint_invertible(h.algebra, rng)
    f = Functional(h2, ba.tensor_element(c, y))
    back = pullback(h.coproduct, f, h)
    assert back.is_selfadjoint()
    assert (back.density - d.convolve(c, y)).norm() < 1e-9


def test_pullback_rejects_non_unital(gz2):
    h1 = function_algebra(cyclic(2))
    inc = np.zeros((2, 1))
    inc[0, 0] = 1.0  # C -> C + C, c -> (c, 0): not unital
    from fqg.hopf import HopfAlgebra
    triv = HopfAlgebra(ba.BlockAlgebra((1,)), np.ones((1, 1)), np.ones(1),
                       np.ones((1, 1)), np.ones(1), name="C")
    f = Functional(h1, h1.algebra.unit())
    with pytest.raises(NotStarHom):
        pullback(inc, f, triv)


def test_pullback_rejects_non_multiplicative(gs3):
    h = gs3.hopf
    f = Functional(h, h.algebra.unit())
    tr = AlgebraMap.blockwise_transpose(h.algebra)
    with pytest.raises(NotStarHom, match="not multiplicative"):
        pullback(tr.matrix, f, h)


def test_pullback_rejects_non_star_preserving(gs3):
    h = gs3.hopf
    f = Functional(h, h.algebra.unit())
    g = ba.random_positive_invertible(h.algebra, np.random.default_rng(4))
    with pytest.raises(NotStarHom, match="does not preserve the involution"):
        pullback(AlgebraMap.ad(g).matrix, f, h)


def _pullback_refusal_loop(hom_matrix, source, target, tol=ba.DEFAULT_TOL):
    """pullback's former basis-pair loop: the NotStarHom message it raised,
    or None."""
    ns = source.algebra.dim
    sb = [source.algebra.basis_element(k) for k in range(ns)]
    tgt = target.algebra
    img = [tgt.from_coords(hom_matrix @ b.coords()) for b in sb]
    if np.linalg.norm(hom_matrix @ source.algebra.unit().coords()
                      - tgt.unit().coords()) > tol.eq_tol * 10:
        return "homomorphism is not unital"
    for i in range(ns):
        if (tgt.from_coords(hom_matrix @ sb[i].adjoint().coords())
                - img[i].adjoint()).norm() > tol.eq_tol * 10:
            return "homomorphism does not preserve the involution"
        for j in range(ns):
            got = tgt.from_coords(hom_matrix @ (sb[i] * sb[j]).coords())
            if (got - img[i] * img[j]).norm() > tol.eq_tol * 100:
                return "homomorphism is not multiplicative"
    return None


def test_pullback_refusals_match_the_pair_loop(workbenches):
    from fqg.hopf import HopfAlgebra
    rng = np.random.default_rng(8)
    triv = HopfAlgebra(ba.BlockAlgebra((1,)), np.ones((1, 1)), np.ones(1),
                       np.ones((1, 1)), np.ones(1), name="C")
    cases = [(np.array([[1.0], [0.0]]), workbenches["function:Z2"].hopf, triv)]
    for key in ("group:S3", "kp", "function:D4"):
        h = workbenches[key].hopf
        for m in (np.eye(h.algebra.dim),
                  AlgebraMap.blockwise_transpose(h.algebra).matrix,
                  AlgebraMap.ad(ba.random_unitary(h.algebra, rng)).matrix,
                  AlgebraMap.ad(ba.random_positive_invertible(h.algebra, rng)).matrix):
            cases.append((m, h, h))
    for m, target, source in cases:
        f = Functional(target, target.algebra.unit())
        want = _pullback_refusal_loop(m, source, target)
        if want is None:
            pullback(m, f, source)
            continue
        with pytest.raises(NotStarHom) as err:
            pullback(m, f, source)
        assert str(err.value) == want


def test_pullback_rejects_non_injective(fs3):
    h = fs3.hopf
    f = Functional(h, h.algebra.unit())
    with pytest.raises(NotInjective):
        pullback(np.zeros((h.algebra.dim, h.algebra.dim)), f, h)


def test_pullback_flags_faithfulness_failure():
    """Faithfulness of the pullback fails on a hand-picked pair; the operation
    surfaces it as NotFaithful instead of returning a bogus functional."""
    h = function_algebra(cyclic(2))
    from fqg.hopf import HopfAlgebra
    a2 = h.square
    haar2 = tensor_functional_row(h.haar, h.haar, h.perm2)
    h2 = HopfAlgebra(a2, np.zeros((a2.dim ** 2, a2.dim)), np.zeros(a2.dim),
                     np.eye(a2.dim), haar2, name="square")
    c = h.algebra.element([[[3.0]], [[-1.0]]])
    y = h.algebra.element([[[0.5]], [[1.5]]])
    f = Functional(h2, ba.tensor_element(c, y))
    assert f.is_faithful()
    with pytest.raises(NotFaithful):
        pullback(h.coproduct, f, h)
