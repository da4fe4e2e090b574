import numpy as np
import pytest

from fqg import blockalg as ba
from fqg import biinner
from fqg.biinner import (brute_force_biinner_consistency, build_group_model,
                         classify_biinner, exp_element, in_identity_component,
                         sample_identity_component)
from fqg.errors import NotInLieAlgebra
from fqg.groups import symmetric
from fqg.hopf import function_algebra, ksymmetric_basis
from fqg.morphisms import (AlgebraMap, hopf_flags_fast, induced_dual_action,
                           inner_implementer)

RNG = np.random.default_rng(515)


def _lam(wb, g):
    phi = wb.hopf.meta["group_basis"]
    return wb.hopf.algebra.from_coords(phi[:, g])


# -- the group model -----------------------------------------------------------

def test_lie_basis_satisfies_all_constraints(workbenches):
    for key, wb in workbenches.items():
        for x in wb.model.lie_basis:
            assert (x + x.adjoint()).norm() < 1e-9, key
            assert (wb.hopf.kappa(x) + x).norm() < 1e-9, key
            for c in wb.model.cocentre:
                assert (x * c - c * x).norm() < 1e-9, key


def test_lie_closure_under_bracket(workbenches):
    for wb in workbenches.values():
        m = wb.model
        for i, x in enumerate(m.lie_basis):
            for y in m.lie_basis[i + 1:]:
                br = x * y - y * x
                assert m.project_defect(br) < 1e-8


def test_group_algebra_lie_is_central(gs3, workbenches):
    # cocentre of a group algebra is everything, so the Lie algebra lives in
    # the centre and every induced conjugation is trivial
    for key in ["group:Z2", "group:Z3", "group:Z4", "group:S3", "group:D4"]:
        wb = workbenches[key]
        zs = wb.hopf.algebra.central_projections()
        span = np.column_stack([z.coords() for z in zs])
        for x in wb.model.lie_basis:
            resid = np.linalg.lstsq(span, x.coords(), rcond=None)[1]
            if resid.size:
                assert float(np.max(resid)) < 1e-16, key


def test_kp_lie_dimension_zero_crossvalidated(kp):
    """dim g on Kac-Paljutkin, cross-checked by an elementwise float32
    build of the constraint stack (independent of the vectorised path)."""
    assert kp.model.dim == 0
    h = kp.hopf
    a = h.algebra
    n = a.dim
    cols = []
    basis_real = []
    for k in range(n):
        v = np.zeros(n, complex)
        v[k] = 1.0
        basis_real.append(v)
    for k in range(n):
        v = np.zeros(n, complex)
        v[k] = 1j
        basis_real.append(v)
    for v in basis_real:
        x = a.from_coords(v)
        rows = [(x + x.adjoint()).coords(), (h.kappa(x) + x).coords()]
        rows += [(x * c - c * x).coords() for c in kp.model.cocentre]
        cc = np.concatenate(rows)
        cols.append(np.concatenate([cc.real, cc.imag]).astype(np.float32))
    stack32 = np.array(cols, dtype=np.float32).T
    sv = np.linalg.svd(stack32, compute_uv=False)
    null_dim = int(np.sum(sv <= 1e-4 * max(1.0, float(sv[0]))))
    assert null_dim == kp.model.dim


def test_function_algebra_lie_dims(workbenches):
    # kappa-odd imaginary functions: one free pair {g, g^-1} for Z3/Z4
    assert workbenches["function:Z3"].model.dim == 1
    assert workbenches["function:Z4"].model.dim == 1
    assert workbenches["function:S3"].model.dim == 1


def test_sign_patterns_are_ksymmetric_central_unitaries(workbenches):
    for wb in workbenches.values():
        for z in wb.model.sign_patterns:
            assert wb.hopf.ksym_defect(z) < 1e-12
            assert (z * z.adjoint() - wb.hopf.algebra.unit()).norm() < 1e-12
            x = ba.random_element(wb.hopf.algebra, RNG)
            assert (z * x - x * z).norm() < 1e-10


# -- exponentials ---------------------------------------------------------------

def test_sample_identity_component_properties(workbenches):
    for key, wb in workbenches.items():
        if wb.model.dim == 0:
            v = sample_identity_component(wb.model, wb.hopf.algebra.zero(), 1.0)
            assert v.allclose(wb.hopf.algebra.unit())
            continue
        x = wb.model.random_element(RNG)
        for t in (0.1, 0.7, 1.0):
            v = sample_identity_component(wb.model, x, t)
            assert (v * v.adjoint() - wb.hopf.algebra.unit()).norm() < 1e-9, key
            assert wb.hopf.ksym_defect(v) < 1e-8, key
            for c in wb.model.cocentre:
                assert (v * c - c * v).norm() < 1e-9, key


def test_sample_rejects_non_lie_elements(kp, workbenches):
    wb = workbenches["function:Z4"]
    bad = ba.random_selfadjoint(wb.hopf.algebra, RNG)
    with pytest.raises(NotInLieAlgebra):
        sample_identity_component(wb.model, bad, 0.5)


def test_sample_refuses_non_ksymmetric_exponential(workbenches, monkeypatch):
    # exp(t x) of a Lie element is kappa-symmetric; a faulty exponential must
    # be refused with a typed error that names the defect, also under -O
    wb = workbenches["function:Z4"]
    x = wb.model.random_element(RNG)
    bad = ba.random_unitary(wb.hopf.algebra, np.random.default_rng(3))
    assert wb.hopf.ksym_defect(bad) > 1e-3
    monkeypatch.setattr(biinner, "exp_element", lambda _: bad)
    with pytest.raises(NotInLieAlgebra, match="defect"):
        sample_identity_component(wb.model, x, 0.5)


def test_small_t_derivative_of_conjugation(workbenches):
    """|Ad(exp(tX)) - id - t ad_X| = O(t^2), checked by the finite-difference
    quotient at two scales."""
    wb = workbenches["function:Z3"]
    x = wb.model.lie_basis[0]
    a = wb.hopf.algebra
    n = a.dim
    adx = np.empty((n, n), complex)
    for k in range(n):
        e = a.basis_element(k)
        adx[:, k] = (x * e - e * x).coords()
    errs = []
    for t in (1e-2, 1e-3):
        m = AlgebraMap.ad(exp_element(t * x)).matrix
        errs.append(np.linalg.norm(m - np.eye(n) - t * adx))
    # quadratic decay: ratio about 100
    if errs[1] < 1e-14:   # commutative case: exactly zero
        assert errs[0] < 1e-12
    else:
        assert 30 < errs[0] / errs[1] < 300


def test_exp_of_the_lie_algebra_is_unitary(workbenches):
    # the model's Lie algebra, whose elements live in 1x1 blocks on these
    # workbenches, and the skew-Hermitian elements of the whole algebra
    rng = np.random.default_rng(18)
    for key, wb in workbenches.items():
        a = wb.hopf.algebra
        y = ba.random_element(a, rng)
        for x in ((y - y.adjoint()) * 0.5, wb.model.random_element(rng)):
            for t in (0.3, 3.0):
                v = exp_element(t * x)
                assert (v.adjoint() * v - a.unit()).norm() <= 1e-14, (key, t)
                assert (v * v.adjoint() - a.unit()).norm() <= 1e-14, (key, t)


def test_hopf_flag_along_exponential_paths(workbenches):
    for key, wb in workbenches.items():
        if wb.model.dim == 0:
            continue
        x = wb.model.random_element(RNG)
        for t in np.linspace(0.1, 1.0, 4):
            v = exp_element(float(t) * x)
            assert hopf_flags_fast(AlgebraMap.ad(v), wb.hopf), key


def test_project_defect_matches_least_squares(workbenches):
    # lie_real has orthonormal columns, so Q Q^T is the orthogonal projector
    rng = np.random.default_rng(17)
    for key, wb in workbenches.items():
        model = wb.model
        for x in (ba.random_element(wb.hopf.algebra, rng), model.random_element(rng)):
            vec = np.concatenate([x.coords().real, x.coords().imag])
            if model.dim:
                coef, *_ = np.linalg.lstsq(model.lie_real, vec, rcond=None)
                want = np.linalg.norm(model.lie_real @ coef - vec)
            else:
                want = np.linalg.norm(vec)
            assert abs(model.project_defect(x) - want) < 1e-13 * max(1.0, want), key


# -- a+ib decomposition and group closure -------------------------------------------

def test_ksymmetric_doubling_spans_everything(workbenches):
    for wb in workbenches.values():
        basis = ksymmetric_basis(wb.hopf)
        n = wb.hopf.algebra.dim
        cols = [b.coords() for b in basis] + [(1j * b).coords() for b in basis]
        real_cols = np.array([np.concatenate([c.real, c.imag]) for c in cols]).T
        assert np.linalg.matrix_rank(real_cols, tol=1e-8) == 2 * n


def test_group_closure_of_ksymmetric_unitaries(workbenches):
    rng = np.random.default_rng(88)
    for key, wb in workbenches.items():
        if wb.model.dim == 0:
            samples = wb.model.sign_patterns[:3]
        else:
            samples = [exp_element(wb.model.random_element(rng)) for _ in range(3)]
        for u in samples:
            for v in samples:
                w = u * v
                assert wb.hopf.ksym_defect(w) < 1e-8, key
                assert all((w * c - c * w).norm() < 1e-8 for c in wb.model.cocentre)
            winv = ba.invert(u)
            assert wb.hopf.ksym_defect(winv) < 1e-8, key


# -- membership ---------------------------------------------------------------------

def test_identity_always_member(workbenches):
    for key, wb in workbenches.items():
        ok, _ = in_identity_component(AlgebraMap.identity(wb.hopf.algebra), wb.model)
        assert ok, key


def test_sign_flip_member_through_pattern_scan(workbenches):
    # diag(1,-1) on C(Z2) induces the identity map; the unitarised
    # intertwiner is a central unitary of the group, so it is a member
    wb = workbenches["function:Z2"]
    u = wb.hopf.algebra.element([[[1.0]], [[-1.0]]])
    ok, _ = in_identity_component(AlgebraMap.ad(u), wb.model)
    assert ok


def test_candidate_conditioning_matches_the_per_size_loop(workbenches):
    """in_identity_component ranks its 16 candidate intertwiners (columns of
    an (n, 16) array) by blockalg.smallest_svs; the former per-size SVD loop
    stays as the oracle."""
    rng = np.random.default_rng(450)
    for key, wb in workbenches.items():
        a = wb.hopf.algebra
        for _ in range(10):
            cands = rng.standard_normal((a.dim, 16)) + 1j * rng.standard_normal((a.dim, 16))
            smallest = np.full(16, np.inf)
            for idx in a.layout.by_size.values():
                sv = np.linalg.svd(np.moveaxis(cands[idx], -1, 0), compute_uv=False)
                smallest = np.minimum(smallest, sv[..., -1].min(axis=1))
            assert np.array_equal(ba.smallest_svs(a, cands.T), smallest), key


def test_nontrivial_group_conjugation_not_member(gs3):
    ok, info = in_identity_component(AlgebraMap.ad(_lam(gs3, 1)), gs3.model)
    assert not ok


def test_planted_exponentials_are_members(workbenches):
    rng = np.random.default_rng(3)
    for key, wb in workbenches.items():
        if wb.model.dim == 0:
            continue
        v = exp_element(wb.model.random_element(rng))
        ok, _ = in_identity_component(AlgebraMap.ad(v), wb.model, rng=rng)
        assert ok, key


def test_members_times_sign_patterns_with_ten_fixed_blocks():
    # C(S4) has 10 antipode-fixed blocks and 1024 sign patterns; a planted
    # member times any of them is a member, with a witness implementing it
    h = function_algebra(symmetric(4))
    model = build_group_model(h)
    assert len(model.sign_patterns) == 1024
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = model.sign_patterns[int(rng.integers(1024))]
        alpha = AlgebraMap.ad(z * exp_element(model.random_element(rng)))
        ok, info = in_identity_component(alpha, model, rng=rng)
        assert ok
        assert AlgebraMap.ad(info["witness"]).distance_to(alpha) < 1e-10


def test_kp_group_likes_are_biinner_on_both_routes(kp, group_likes):
    """kp's Lie algebra is 0, yet all four group-likes implement bi-inner
    maps on both routes: two of them act non-trivially, and those two give
    the same map (their ratio is central), so G_c is not connected."""
    us = group_likes["kp"]
    assert len(us) == 4
    maps = []
    for u in us:
        assert (kp.hopf.delta(u) - ba.tensor_element(u, u)).norm() < 1e-12
        alpha = AlgebraMap.ad(u)
        verdict = classify_biinner(alpha, kp.hopf, kp.dual, kp.mu, kp.model)
        assert verdict.is_biinner and verdict.certificates["exp_membership"]
        assert verdict.certificates["commutation"]["residual"] < 1e-8
        member, info = in_identity_component(alpha, kp.model)
        assert member
        assert AlgebraMap.ad(info["witness"]).distance_to(alpha) < 1e-10
        maps.append(alpha)
    moving = [m for m in maps if not m.is_identity(1e-7)]
    assert len(moving) == 2
    assert moving[0].distance_to(moving[1]) < 1e-12


# -- classifier -----------------------------------------------------------------------

def test_classify_identity_biinner(workbenches):
    for key, wb in workbenches.items():
        v = classify_biinner(AlgebraMap.identity(wb.hopf.algebra),
                             wb.hopf, wb.dual, wb.mu, wb.model)
        assert v.is_biinner, key
        assert v.certificates["commutation"]["residual"] < 1e-8
        assert v.certificates["exp_membership"]
        assert all(r < 1e-8 for r in v.certificates["path_residuals"].values())


def test_classify_group_conjugation_not_biinner(gs3):
    v = classify_biinner(AlgebraMap.ad(_lam(gs3, 1)), gs3.hopf, gs3.dual)
    assert not v.is_biinner
    assert v.reason == "dual action is not inner"


def test_classify_non_hopf_map(kp):
    u = ba.random_unitary(kp.hopf.algebra, RNG)
    v = classify_biinner(AlgebraMap.ad(u), kp.hopf, kp.dual)
    assert not v.is_biinner
    assert v.reason == "not a Hopf *-automorphism"


# -- consistency harness ----------------------------------------------------------------

@pytest.mark.parametrize("key", ["group:S3", "function:S3", "kp"])
def test_consistency_harness_small(workbenches, key):
    wb = workbenches[key]
    rep = brute_force_biinner_consistency(wb.hopf, wb.dual, wb.mu, wb.model,
                                          samples=40, seed=99)
    assert rep.diagonal
    assert rep.positives_are_identity
    assert rep.worst_commutation < 1e-8


def test_verdict_serialises_to_json(workbenches):
    import json
    wb = workbenches["kp"]
    v = classify_biinner(AlgebraMap.identity(wb.hopf.algebra),
                         wb.hopf, wb.dual, wb.mu, wb.model)
    doc = v.to_dict()
    json.dumps(doc)
    assert doc["is_biinner"] and doc["certificates"]["exp_membership"]


def test_harness_route_a_refuses_an_outer_hopf_automorphism(fs3, outer_automorphisms,
                                                           monkeypatch):
    # delta_x -> delta_(g^-1 x g) on C(S3) is a Hopf *-automorphism with an
    # inner dual action, yet not inner on C(S3): route A must ask that too
    alpha = outer_automorphisms["function:S3"][0]
    alpha_hat = induced_dual_action(alpha, fs3.dual, check=False)
    assert hopf_flags_fast(alpha, fs3.hopf) and inner_implementer(alpha_hat) is not None

    class EverySample:          # the harness conjugates by u: hand it alpha
        ad = staticmethod(lambda u, tol: alpha)
    monkeypatch.setattr(biinner, "AlgebraMap", EverySample)
    rep = brute_force_biinner_consistency(fs3.hopf, fs3.dual, fs3.mu, fs3.model,
                                          samples=5, seed=3)
    assert rep.confusion.tolist() == [[5, 0], [0, 0]]
