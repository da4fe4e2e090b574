import tracemalloc

import numpy as np
import pytest

from fqg import blockalg as ba
from fqg.blockalg import BlockAlgebra
from fqg.errors import NoCharacterBlock, NonUniqueHaar
from fqg.groups import cyclic, dihedral, symmetric
from fqg.hopf import (AxiomReport, HopfAlgebra, cocentre_basis, compute_haar,
                      counit_support, function_algebra, group_algebra,
                      kron_coefficients, ksymmetric_basis, verify_axioms,
                      with_computed_haar)
from tensor_maps import tensor_functional_row, tensor_map

RNG = np.random.default_rng(77)


def _hand_built_z2_group_algebra() -> HopfAlgebra:
    """C[Z2] written down by hand in the character basis: two 1x1 blocks
    (trivial, sign); lambda_g = (chi0(g), chi1(g)) pointwise."""
    a = BlockAlgebra((1, 1))
    lam = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]  # block coords
    to_block = np.column_stack(lam)
    to_group = np.linalg.inv(to_block)
    perm = ba.tensor_perm(a, a)
    coproduct = np.empty((4, 2), complex)
    for g in range(2):
        coproduct[:, g] = np.kron(lam[g], lam[g])[perm]
    coproduct = coproduct @ to_group
    counit = np.ones(2) @ to_group
    antipode = to_block @ np.eye(2) @ to_group  # g -> g^{-1} is trivial in Z2
    haar = np.array([1.0, 0.0]) @ to_group      # tau = [g = e]
    return HopfAlgebra(a, coproduct, counit, antipode, haar, name="hand Z2")


def test_axioms_hand_built_z2():
    rep = verify_axioms(_hand_built_z2_group_algebra())
    assert rep.passed
    assert rep.max_residual < 1e-12
    built = group_algebra(cyclic(2))
    rep2 = verify_axioms(built)
    assert rep2.passed and rep2.max_residual < 1e-12


def test_axioms_function_algebra_s3_pointwise_oracle():
    g = symmetric(3)
    h = function_algebra(g)
    rep = verify_axioms(h)
    assert rep.passed and rep.max_residual < 1e-12
    # oracle: delta(delta_g) = sum over factorisations, checked entrywise
    n = g.order
    for gg in range(n):
        d = h.delta(h.algebra.basis_element(gg))
        kron = np.zeros(n * n)
        for s in range(n):
            for t in range(n):
                if g.mul(s, t) == gg:
                    kron[s * n + t] = 1.0
        assert np.allclose(d.coords(), kron[h.perm2])
    assert np.allclose(h.haar, np.full(n, 1 / 6))


def test_corrupted_coproduct_breaks_coassociativity():
    h = function_algebra(symmetric(3))
    bad = h.coproduct.copy()
    bad[0, 0] += 0.1
    broken = HopfAlgebra(h.algebra, bad, h.counit, h.antipode, h.haar)
    rep = verify_axioms(broken)
    assert not rep.passed
    assert rep.residuals["coassociativity"] > 1e-9 or \
        rep.residuals["coproduct_multiplicative"] > 1e-9


def test_group_algebra_block_dims():
    assert group_algebra(cyclic(2)).algebra.block_dims == (1, 1)
    assert group_algebra(cyclic(4)).algebra.block_dims == (1, 1, 1, 1)
    assert group_algebra(symmetric(3)).algebra.block_dims == (1, 1, 2)
    assert group_algebra(dihedral(4)).algebra.block_dims == (1, 1, 1, 1, 2)


def test_group_algebra_haar_on_group_basis():
    h = group_algebra(symmetric(3))
    phi = h.meta["group_basis"]
    for g in range(6):
        lam = h.algebra.from_coords(phi[:, g])
        assert abs(h.tau(lam) - (1.0 if g == 0 else 0.0)) < 1e-12


def test_axioms_all_generated_groups_up_to_order_8(workbenches):
    for key, wb in workbenches.items():
        rep = verify_axioms(wb.hopf)
        assert rep.passed, f"{key}: {rep.failing()}"



# -- batched certificates against the per-basis oracle ---------------------------
#
# The loops below are the former element-by-element constructions, kept only
# here as oracles for the closed-form tensors and the batched verify_axioms.

def _basis(a):
    return [a.basis_element(k) for k in range(a.dim)]


def _loop_left_mult(a):
    n, basis = a.dim, _basis(a)
    t = np.zeros((n, n, n), complex)
    for i in range(n):
        for j in range(n):
            t[i][:, j] = (basis[i] * basis[j]).coords()
    return t


def _loop_right_mult(a):
    n, basis = a.dim, _basis(a)
    t = np.zeros((n, n, n), complex)
    for i in range(n):
        for j in range(n):
            t[i][:, j] = (basis[j] * basis[i]).coords()
    return t


def _loop_mult_mat(h):
    n, basis = h.algebra.dim, _basis(h.algebra)
    m = np.empty((n, n * n), complex)
    for i in range(n):
        for j in range(n):
            m[:, i * n + j] = (basis[i] * basis[j]).coords()
    return m[:, h.perm2]


def _loop_gram(h):
    n, basis = h.algebra.dim, _basis(h.algebra)
    g = np.empty((n, n), complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = h.haar @ (basis[i].adjoint() * basis[j]).coords()
    return 0.5 * (g + g.conj().T)


def _loop_gram_bilinear(h):
    n, basis = h.algebra.dim, _basis(h.algebra)
    g = np.empty((n, n), complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = h.haar @ (basis[i] * basis[j]).coords()
    return g


def _loop_star_mat(h):
    return np.column_stack([b.adjoint().coords() for b in _basis(h.algebra)])


def _rel(diff, *refs):
    return float(np.linalg.norm(diff)) / max([1.0] + [float(np.linalg.norm(r)) for r in refs])


def _verify_axioms_oracle(h, tol=ba.DEFAULT_TOL):
    """The per-basis-element and Kronecker-map certificate."""
    a = h.algebra
    n = a.dim
    res = {}
    basis = _basis(a)
    eye = np.eye(n)
    mult_mat, gram = _loop_mult_mat(h), _loop_gram(h)
    gram_bilinear = _loop_gram_bilinear(h)
    unit = a.unit().coords()

    p_l = ba.tensor_perm(h.square, a)
    p_r = ba.tensor_perm(a, h.square)
    lhs = tensor_map(h.coproduct, eye, h.perm2, p_l) @ h.coproduct
    rhs = tensor_map(eye, h.coproduct, h.perm2, p_r) @ h.coproduct
    res["coassociativity"] = _rel(lhs - rhs, lhs, rhs)

    triv = BlockAlgebra((1,))
    p_ca = ba.tensor_perm(triv, a)
    p_ac = ba.tensor_perm(a, triv)
    left = tensor_map(h.counit.reshape(1, n), eye, h.perm2, p_ca) @ h.coproduct
    right = tensor_map(eye, h.counit.reshape(1, n), h.perm2, p_ac) @ h.coproduct
    res["counit_left"] = _rel(left - eye, left, eye)
    res["counit_right"] = _rel(right - eye, right, eye)

    unit_eps = np.outer(unit, h.counit)
    lhs = mult_mat @ tensor_map(h.antipode, eye, h.perm2, h.perm2) @ h.coproduct
    rhs = mult_mat @ tensor_map(eye, h.antipode, h.perm2, h.perm2) @ h.coproduct
    res["antipode_left"] = _rel(lhs - unit_eps, lhs, unit_eps)
    res["antipode_right"] = _rel(rhs - unit_eps, rhs, unit_eps)

    res["coproduct_unital"] = float(np.linalg.norm(
        h.coproduct @ unit - h.square.unit().coords()))
    worst_m, worst_s = 0.0, 0.0
    dbasis = [h.delta(b) for b in basis]
    for i in range(n):
        ds = h.delta(basis[i].adjoint())
        worst_s = max(worst_s, (ds - dbasis[i].adjoint()).norm())
        for j in range(n):
            dm = h.delta(basis[i] * basis[j])
            worst_m = max(worst_m, (dm - dbasis[i] * dbasis[j]).norm())
    res["coproduct_multiplicative"] = worst_m
    res["coproduct_star"] = worst_s

    res["haar_normalised"] = abs(h.tau(a.unit()) - 1.0)
    eig = np.linalg.eigvalsh(gram)
    res["haar_positive"] = max(0.0, -float(eig[0]))
    res["haar_faithful"] = 1.0 if eig[0] <= tol.inv_tol * max(1.0, eig[-1]) else 0.0
    left_inv = tensor_map(eye, h.haar.reshape(1, n), h.perm2, p_ac) @ h.coproduct
    right_inv = tensor_map(h.haar.reshape(1, n), eye, h.perm2, p_ca) @ h.coproduct
    target = np.outer(unit, h.haar)
    res["haar_invariance_right"] = _rel(left_inv - target, left_inv, target)
    res["haar_invariance_left"] = _rel(right_inv - target, right_inv, target)
    res["haar_tracial"] = float(np.max(np.abs(gram_bilinear - gram_bilinear.T)))

    res["antipode_involutive"] = _rel(h.antipode @ h.antipode - eye, eye)
    res["antipode_star"] = max((h.kappa(b.adjoint()) - h.kappa(b).adjoint()).norm()
                               for b in basis)
    res["haar_kappa_invariant"] = float(np.linalg.norm(h.haar @ h.antipode - h.haar))
    return AxiomReport(res, tol.eq_tol)


def _assert_matches_oracle(h, label):
    got, want = verify_axioms(h), _verify_axioms_oracle(h)
    assert list(got.residuals) == list(want.residuals), label
    for key, val in want.residuals.items():
        assert abs(got.residuals[key] - val) <= 1e-13, (label, key, got.residuals[key], val)
    assert got.passed == want.passed and got.failing() == want.failing(), label
    return got


def test_verify_axioms_matches_per_basis_oracle(workbenches):
    for key, wb in workbenches.items():
        _assert_matches_oracle(wb.hopf, key)
        _assert_matches_oracle(wb.dual.hopf, f"dual({key})")


def _corrupted(h, **changes):
    fields = dict(coproduct=h.coproduct, counit=h.counit, antipode=h.antipode,
                  haar=h.haar)
    fields.update(changes)
    return HopfAlgebra(h.algebra, name=f"corrupted {h.name}", **fields)


def _seeded_row(h):
    rng = np.random.default_rng(h.algebra.dim)
    return rng.standard_normal(h.algebra.dim) + 1j * rng.standard_normal(h.algebra.dim)


def _coassociativity_breaker(h):
    bad = h.coproduct.copy()
    bad[0, 0] += 0.1
    return _corrupted(h, coproduct=bad)


def _right_counit_breaker(h):
    # add u (x) 1 to delta(e_0) with eps(u) = 0: (eps (x) id)delta is unchanged
    unit = h.unit_coords()
    u = _seeded_row(h)
    u = u - (h.counit @ u) * unit
    bad = h.coproduct.copy()
    bad[:, 0] += 0.1 * np.kron(u, unit)[h.perm2]
    return _corrupted(h, coproduct=bad)


# one targeted corruption per family, and the keys it must push above tol
CORRUPTIONS = {
    "non-multiplicative coproduct": (lambda h: _corrupted(h, coproduct=2.0 * h.coproduct),
                                     ["coproduct_multiplicative"]),
    "coproduct breaks the star": (lambda h: _corrupted(h, coproduct=1j * h.coproduct),
                                  ["coproduct_star"]),
    "antipode breaks the star": (lambda h: _corrupted(h, antipode=1j * h.antipode),
                                 ["antipode_star"]),
    "non-coassociative coproduct": (_coassociativity_breaker, ["coassociativity"]),
    "perturbed counit": (lambda h: _corrupted(h, counit=h.counit + 0.1 * _seeded_row(h)),
                         ["counit_left", "counit_right"]),
    "one-sided counit failure": (_right_counit_breaker, ["counit_right"]),
}


@pytest.mark.parametrize("family", list(CORRUPTIONS))
@pytest.mark.parametrize("key", ["function:S3", "group:S3", "kp"])
def test_targeted_corruption_fails_its_own_residual(workbenches, family, key):
    breaker, keys = CORRUPTIONS[family]
    bad = breaker(workbenches[key].hopf)
    rep = _assert_matches_oracle(bad, f"{family} on {key}")
    assert not rep.passed
    for k in keys:
        assert rep.residuals[k] > rep.tol, (family, key, k, rep.residuals[k])
        assert k in rep.failing()
    if family == "one-sided counit failure":
        assert rep.residuals["counit_left"] < rep.tol


def test_verify_axioms_builds_no_algebra_element(monkeypatch):
    h = group_algebra(symmetric(3))   # fresh: its cached tensors are built inside
    built = []
    init = ba.AlgebraElement.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)
    monkeypatch.setattr(ba.AlgebraElement, "__init__", counting_init)
    assert verify_axioms(h).passed
    assert not built


def test_verify_axioms_memory_on_function_s4():
    h = function_algebra(symmetric(4))
    tracemalloc.start()
    try:
        rep = verify_axioms(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _dense_coassociativity(h):
    """The former coassociativity residual, formed as two n^4 arrays."""
    n = h.algebra.dim
    dk = h.coproduct_kron
    dflat = dk.reshape(n * n, n)
    lhs = dflat @ dk.reshape(n, n * n)
    rhs = (dflat @ dk).reshape(n * n, n * n)
    return _rel(lhs - rhs, lhs, rhs)


@pytest.mark.parametrize("kind", [group_algebra, function_algebra])
def test_slab_coassociativity_matches_the_dense_formula(kind):
    """verify_axioms sums coassociativity over slabs of the first leg: the
    dense residual within round-off on the coproduct of S4, and within 1e-12
    relative on a perturbed coproduct, where both are O(1)."""
    h = kind(symmetric(4))
    assert abs(verify_axioms(h).residuals["coassociativity"] - _dense_coassociativity(h)) < 1e-14
    rng = np.random.default_rng(4)
    bad = _corrupted(h, coproduct=h.coproduct + 0.3 * rng.standard_normal(h.coproduct.shape))
    got, want = verify_axioms(bad).residuals["coassociativity"], _dense_coassociativity(bad)
    assert want > 0.1 and abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("kind", [group_algebra, function_algebra])
def test_verify_axioms_and_build_dual_stay_near_one_n4_array(kind):
    """tracemalloc peaks on S4 within 1.25 complex arrays of N^4 entries:
    the coproduct certificate's pair products on C(S4) are one such array,
    and neither coassociativity nor the dual coproduct forms another.  Each
    is measured on a second call: the first also builds what the algebras
    keep (the block layout of A (x) A with its 576 blocks on C(S4), 0.5 MiB)."""
    from fqg.duality import build_dual
    h = kind(symmetric(4))
    bound = 1.25 * 16 * h.algebra.dim ** 4
    for run in (lambda: verify_axioms(h), lambda: build_dual(h)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


def _structure_oracle_cases(workbenches):
    cases = [(key, wb.hopf) for key, wb in workbenches.items()]
    for key in ("kp", "group:S3"):
        h = workbenches[key].hopf
        sq = h.square
        m = sq.dim
        haar2 = tensor_functional_row(h.haar, h.haar, h.perm2)
        cases.append((f"{key} (x) {key}",
                      HopfAlgebra(sq, np.zeros((m * m, m)), np.zeros(m), np.eye(m), haar2)))
    return cases


def test_closed_form_structure_tensors_match_loops(workbenches):
    for key, h in _structure_oracle_cases(workbenches):
        a = h.algebra
        assert np.array_equal(ba.left_mult_tensor(a), _loop_left_mult(a)), key
        assert np.array_equal(ba.right_mult_tensor(a), _loop_right_mult(a)), key
        assert np.array_equal(ba.mult_matrix(a)[:, h.perm2], _loop_mult_mat(h)), key
        assert np.array_equal(h.gram, _loop_gram(h)), key
        assert np.array_equal(h.gram_bilinear, _loop_gram_bilinear(h)), key
        assert np.array_equal(h.star_mat, _loop_star_mat(h)), key
        assert np.array_equal(a.unit_coords(), a.unit().coords()), key


# -- cocentre ----------------------------------------------------------------

def test_cocentre_group_algebra_is_everything(gs3):
    basis = cocentre_basis(gs3.hopf)
    assert len(basis) == 6


def test_cocentre_function_s3_is_class_functions(fs3):
    basis = cocentre_basis(fs3.hopf)
    assert len(basis) == 3  # S3 has three conjugacy classes
    g = symmetric(3)
    for f in basis:
        vals = f.coords()
        for s in range(6):
            for t in range(6):
                assert abs(vals[g.mul(s, t)] - vals[g.mul(t, s)]) < 1e-9


def test_cocentre_function_z4_full():
    h = function_algebra(cyclic(4))
    assert len(cocentre_basis(h)) == 4


def test_cocentre_flip_invariance(workbenches):
    for wb in workbenches.values():
        h = wb.hopf
        for a in cocentre_basis(h):
            d = h.coproduct @ a.coords()
            assert np.linalg.norm(d - d[h.flip]) < 1e-9


# -- kappa-symmetric elements --------------------------------------------------

def test_ksymmetric_group_elements(gs3):
    phi = gs3.hopf.meta["group_basis"]
    for g in range(6):
        lam = gs3.hopf.algebra.from_coords(phi[:, g])
        assert gs3.hopf.ksym_defect(lam) < 1e-12


def test_ksymmetric_function_combinations(fs3):
    h = fs3.hopf
    g = symmetric(3)
    for s in range(6):
        e = h.algebra.basis_element(s)
        einv = h.algebra.basis_element(g.inv(s))
        assert h.ksym_defect(e + einv) < 1e-12
        assert h.ksym_defect(1j * (e - einv)) < 1e-12


def test_ksymmetric_dimension_and_closure(fs3):
    basis = ksymmetric_basis(fs3.hopf)
    assert len(basis) == 6  # real dimension equals complex dimension
    for x in basis[:3]:
        for y in basis[:3]:
            assert fs3.hopf.ksym_defect(x * y) < 1e-9


def _theta_by_columns(h):
    """Oracle: the realified matrix of x -> kappa(x*), one call of the map per
    real basis vector (e_k, then i e_k), stacked [Re; Im]."""
    n = h.algebra.dim
    cols = []
    for scale in (1.0, 1j):
        for k in range(n):
            v = np.zeros(n, complex)
            v[k] = scale
            w = h.antipode @ (h.star_mat @ np.conj(v))
            cols.append(np.concatenate([w.real, w.imag]))
    return np.array(cols).T


def test_ksymmetric_basis_matches_column_by_column_realification(workbenches):
    # same entries and sign bits, so the SVD returns the same basis
    for key, wb in workbenches.items():
        for h in (wb.hopf, wb.dual.hopf):
            theta = _theta_by_columns(h)
            closed = ba.realify_antilinear(h.antipode @ h.star_mat) + 0.0
            assert np.array_equal(closed, theta), key
            assert np.array_equal(np.signbit(closed), np.signbit(theta)), key
            null = ba.null_space(theta - np.eye(2 * h.algebra.dim))
            got = np.array([x.coords() for x in ksymmetric_basis(h)])
            assert np.array_equal(got, ba.real_vec_to_coords(null).T), key


# -- counit support -----------------------------------------------------------

def _counit_support_oracle(h):
    """Independent route: solve x j = eps(x) j as a least-squares problem over
    the centre and scale to a projection."""
    a = h.algebra
    n = a.dim
    rows = []
    for k in range(n):
        x = a.basis_element(k)
        lx = np.column_stack([(x * a.basis_element(m)).coords() for m in range(n)])
        rows.append(lx - h.epsilon(x) * np.eye(n))
    null = ba.null_space(ba.realify_complex_linear(np.vstack(rows)))
    assert null.shape[1] == 2  # j and i*j
    cand = a.from_coords(ba.real_vec_to_coords(null[:, 0]))
    scale = np.vdot(cand.coords(), (cand * cand).coords()) / \
        np.vdot(cand.coords(), cand.coords())
    return (1.0 / scale) * cand


def test_counit_support_matches_the_basis_scan(workbenches):
    """The block found from the counit row is the one the former scan over
    basis elements x (for x j = eps(x) j) found, on every algebra and dual."""
    for key, wb in workbenches.items():
        for h in (wb.hopf, wb.dual.hopf):
            a = h.algebra
            basis = [a.basis_element(k) for k in range(a.dim)]
            want = next(b for b, nb in enumerate(a.block_dims) if nb == 1 and max(
                ((x * a.block_unit(b)) - h.epsilon(x) * a.block_unit(b)).norm()
                for x in basis) < 1e-8)
            got = counit_support(h)
            assert got.block == want, key
            assert got.element.coords().tobytes() == a.block_unit(want).coords().tobytes()


def test_counit_support_refuses_a_counit_on_no_block(kp):
    h = function_algebra(cyclic(3))
    bad = HopfAlgebra(h.algebra, h.coproduct, np.full(3, 1 / 3), h.antipode, h.haar)
    with pytest.raises(NoCharacterBlock):
        counit_support(bad)
    # the unit of a 2x2 block is no character, even where the counit row is it
    h = kp.hopf
    bad = HopfAlgebra(h.algebra, h.coproduct, h.algebra.block_unit_coords()[:, 4],
                      h.antipode, h.haar)
    with pytest.raises(NoCharacterBlock):
        counit_support(bad)


def test_counit_support_group_z2(gz2):
    j = counit_support(gz2.hopf).element
    oracle = _counit_support_oracle(gz2.hopf)
    assert j.allclose(oracle, 1e-8) or j.allclose(-1.0 * oracle, 1e-8)
    phi = gz2.hopf.meta["group_basis"]
    avg = 0.5 * (gz2.hopf.algebra.from_coords(phi[:, 0])
                 + gz2.hopf.algebra.from_coords(phi[:, 1]))
    assert j.allclose(avg, 1e-9)


def test_counit_support_function_algebra(fs3):
    j = counit_support(fs3.hopf).element
    want = fs3.hopf.algebra.basis_element(0)  # delta_e
    assert j.allclose(want, 1e-12)


def test_counit_support_group_s3_averaging_idempotent(gs3):
    j = counit_support(gs3.hopf).element
    phi = gs3.hopf.meta["group_basis"]
    avg = gs3.hopf.algebra.zero()
    for g in range(6):
        avg = avg + gs3.hopf.algebra.from_coords(phi[:, g])
    assert j.allclose((1 / 6) * avg, 1e-9)


def test_counit_support_absorption(workbenches):
    for wb in workbenches.values():
        h = wb.hopf
        j = counit_support(h).element
        x = ba.random_element(h.algebra, RNG)
        assert (x * j - h.epsilon(x) * j).norm() < 1e-9


# -- Haar solver ---------------------------------------------------------------

def test_compute_haar_function_s3(fs3):
    h = fs3.hopf
    got = compute_haar(h.algebra, h.coproduct)
    assert np.allclose(got, np.full(6, 1 / 6))


def test_compute_haar_group_s3(gs3):
    h = gs3.hopf
    got = compute_haar(h.algebra, h.coproduct)
    assert np.linalg.norm(got - h.haar) < 1e-10


def test_compute_haar_kac_paljutkin_matches_bundled(kp):
    h2 = with_computed_haar(kp.hopf)
    assert np.linalg.norm(h2.haar - kp.hopf.haar) < 1e-10


def _loop_compute_haar(algebra, coproduct):
    """Oracle: the invariance system assembled one basis functional e_k at a
    time, each side a Kronecker-product map applied to the coproduct."""
    n = algebra.dim
    perm = ba.tensor_perm(algebra, algebra)
    triv = BlockAlgebra((1,))
    p_ac, p_ca = ba.tensor_perm(algebra, triv), ba.tensor_perm(triv, algebra)
    unit, eye = algebra.unit().coords(), np.eye(n)

    def residual_op(t):
        right = tensor_map(eye, t.reshape(1, n), perm, p_ac) @ coproduct
        left = tensor_map(t.reshape(1, n), eye, perm, p_ca) @ coproduct
        target = np.outer(unit, t)
        return np.concatenate([(right - target).reshape(-1), (left - target).reshape(-1)])

    t = ba.null_space(np.array([residual_op(eye[k]) for k in range(n)]).T)[:, 0]
    return t / (t @ unit)


def test_compute_haar_matches_the_kronecker_loop(workbenches, s4_duals):
    cases = [h for wb in workbenches.values() for h in (wb.hopf, wb.dual.hopf)]
    cases += [h for d in s4_duals.values() for h in (d.base, d.hopf)]
    for h in cases:
        got = compute_haar(h.algebra, h.coproduct)
        assert np.array_equal(got, _loop_compute_haar(h.algebra, h.coproduct)), h.name


def test_coproduct_kron_reads_delta_on_elementary_tensors(workbenches):
    """dk[p, q, x] is the coefficient of e_p (x) e_q in delta(e_x), also for
    a coproduct followed by a map; the property is recomputed on every read,
    so no n**3 copy stays alive with the algebra."""
    for key, wb in workbenches.items():
        h = wb.hopf
        n = h.algebra.dim
        elementary = np.eye(n * n)[:, h.perm2]        # row (p, q): coords of e_p (x) e_q
        assert np.array_equal(h.coproduct_kron, (elementary @ h.coproduct).reshape(n, n, n)), key
        m = h.antipode[:, :2]
        assert np.array_equal(kron_coefficients(h.algebra, h.coproduct @ m),
                              (elementary @ h.coproduct @ m).reshape(n, n, 2)), key
        assert h.coproduct_kron is not h.coproduct_kron


def test_compute_haar_rejects_non_quantum_group():
    # direct sum of two copies of C(Z2): the invariance system has a
    # two-dimensional solution space, so there is no unique Haar state
    h1 = function_algebra(cyclic(2))
    a = BlockAlgebra((1, 1, 1, 1))
    perm4 = ba.tensor_perm(a, a)
    p2 = h1.perm2
    cop = np.zeros((16, 4), complex)
    for off in (0, 2):
        for j in range(2):
            kron2 = np.zeros(4, complex)
            kron2[p2] = h1.coproduct[:, j]
            kk = np.zeros((4, 4), complex)
            kk[off:off + 2, off:off + 2] = kron2.reshape(2, 2)
            cop[:, off + j] = kk.reshape(-1)[perm4]
    with pytest.raises(NonUniqueHaar):
        compute_haar(a, cop)
