import numpy as np
import pytest

import tracemalloc
from types import SimpleNamespace

from fqg import blockalg as ba
from fqg import biinner
from fqg.biinner import (ROUTE_A_REFUSALS, ROUTE_B_REFUSALS, ConsistencyReport,
                         brute_force_biinner_consistency, build_group_model,
                         classify_biinner, exp_element, in_identity_component,
                         sample_identity_component)
from fqg.blockalg import DEFAULT_TOL
from fqg.duality import build_dual
from fqg.errors import DimensionMismatch, NotInLieAlgebra
from fqg.groups import by_name, symmetric
from fqg.hopf import function_algebra, group_algebra, ksymmetric_basis
from fqg.morphisms import (AlgebraMap, hopf_flags_fast, induced_dual_action,
                           inner_implementer)
from fqg.multunitary import (build_gns, build_multiplicative_unitary, partner_null_spaces,
                             partner_systems)

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
        for z in map(wb.hopf.algebra.from_coords, wb.model.sign_patterns):
            assert wb.hopf.ksym_defect(z) < 1e-12
            assert (z * z.adjoint() - wb.hopf.algebra.unit()).norm() < 1e-12
            x = ba.random_element(wb.hopf.algebra, RNG)
            assert (z * x - x * z).norm() < 1e-10


def _sign_pattern_loop(h):
    """The central +-1 elements of G_c as the group model listed them before
    it held only the fixed blocks: the antipode's block map from the block
    units, then one element per subset of the fixed blocks."""
    a = h.algebra
    units = a.block_unit_coords()
    hits = np.linalg.norm((h.antipode @ units)[:, :, None] - units[:, None, :], axis=0) < 1e-8
    kmap = [int(np.argmax(row)) if row.any() else -1 for row in hits]
    fixed_blocks = [b for b, c in enumerate(kmap) if c == b]
    unit = a.unit_coords()
    patterns = []
    for bits in range(1 << len(fixed_blocks)):
        sign = np.ones(a.nblocks)
        sign[[b for i, b in enumerate(fixed_blocks) if bits >> i & 1]] = -1.0
        patterns.append(a.from_coords(sign[a.layout.block_of] * unit))
    return fixed_blocks, patterns


def test_sign_patterns_match_the_subset_loop(workbenches):
    models = {key: wb.model for key, wb in workbenches.items()}
    models["function:S4"] = build_group_model(function_algebra(symmetric(4)))
    for key, model in models.items():
        fixed, patterns = _sign_pattern_loop(model.hopf)
        assert model.fixed_blocks.tolist() == fixed, key
        stack = model.sign_patterns
        assert len(stack) == 2 ** len(model.fixed_blocks), key
        assert stack.tobytes() == np.array([z.coords() for z in patterns]).tobytes(), key


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "D4", "S4", "dihedral:16"])
def test_fixed_blocks_of_a_function_algebra_are_the_involutions(name):
    # kappa maps delta_g to delta_(g^-1), so it fixes the block of g iff g g = e
    g = by_name(name)
    model = build_group_model(function_algebra(g))
    assert model.fixed_blocks.tolist() == [x for x in range(g.order) if g.mul(x, x) == 0]


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


def test_sample_refuses_an_exponential_off_the_cocentre(gs3, monkeypatch):
    # lambda of a transposition is a kappa-symmetric unitary, but it does not
    # commute with the cocentre (all of C[S3]): the membership rule of G_c
    # refuses it by its commutators
    bad = _lam(gs3, 1)
    assert gs3.hopf.ksym_defect(bad) < 1e-12
    monkeypatch.setattr(biinner, "exp_element", lambda _: bad)
    with pytest.raises(NotInLieAlgebra, match="defect"):
        sample_identity_component(gs3.model, gs3.model.random_element(RNG), 0.5)


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
            samples = [wb.hopf.algebra.from_coords(z) for z in wb.model.sign_patterns[:3]]
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
    stays as the oracle.  Blocks of size 1 and 2 take a closed form, so the
    two agree within 1e-14 max(1, sigma_max), not bit for bit."""
    rng = np.random.default_rng(450)
    for key, wb in workbenches.items():
        a = wb.hopf.algebra
        for _ in range(10):
            cands = rng.standard_normal((a.dim, 16)) + 1j * rng.standard_normal((a.dim, 16))
            smallest, largest = np.full(16, np.inf), np.zeros(16)
            for idx in a.layout.by_size.values():
                sv = np.linalg.svd(np.moveaxis(cands[idx], -1, 0), compute_uv=False)
                smallest = np.minimum(smallest, sv[..., -1].min(axis=1))
                largest = np.maximum(largest, sv[..., 0].max(axis=1))
            err = np.abs(ba.smallest_svs(a, cands.T) - smallest)
            assert np.all(err <= 1e-14 * np.maximum(1.0, largest)), key


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
    patterns = model.sign_patterns
    assert len(patterns) == 1024
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = h.algebra.from_coords(patterns[int(rng.integers(1024))])
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


def test_classify_biinner_refuses_a_map_on_another_algebra(gs3, fs3):
    # C(S3) and C[S3] both have dimension 6; the identity of C(S3) is no
    # endomorphism of C[S3], whatever its matrix would pass
    alpha = AlgebraMap.identity(fs3.hopf.algebra)
    assert alpha.matrix.shape == (gs3.hopf.algebra.dim,) * 2
    with pytest.raises(DimensionMismatch, match="endomorphism"):
        classify_biinner(alpha, gs3.hopf, gs3.dual)


def _plant(monkeypatch, alpha):
    """Hand the harness alpha as every sample: it conjugates by a stack of
    u's through ad_matrices."""
    monkeypatch.setattr(biinner, "ad_matrices",
                        lambda a, us, tol: np.broadcast_to(alpha.matrix, (len(us),) + alpha.matrix.shape))


def test_harness_route_a_refuses_an_outer_hopf_automorphism(fs3, outer_automorphisms,
                                                           monkeypatch):
    # delta_x -> delta_(g^-1 x g) on C(S3) is a Hopf *-automorphism with an
    # inner dual action, yet not inner on C(S3): route A must ask that too
    alpha = outer_automorphisms["function:S3"][0]
    alpha_hat = induced_dual_action(alpha, fs3.dual, check=False)
    assert hopf_flags_fast(alpha, fs3.hopf) and inner_implementer(alpha_hat) is not None

    _plant(monkeypatch, alpha)
    rep = brute_force_biinner_consistency(fs3.hopf, fs3.dual, fs3.mu, fs3.model,
                                          samples=5, seed=3)
    assert rep.confusion.tolist() == [[5, 0], [0, 0]]


# -- the stacked harness against the per-sample loop -------------------------------------

def _loop_in_group(model, u, tol):
    """Oracle: membership in G_c by the kappa-twist defect and one product
    pair per cocentre element."""
    if model.hopf.ksym_defect(u) > tol:
        return False
    return all((u * c - c * u).norm() <= tol for c in model.cocentre)


def _loop_in_identity_component(alpha, model, rng):
    """Oracle: route B on one map, as in_identity_component was before its
    kernels took stacks, with the membership test above."""
    a = model.hopf.algebra
    n = a.dim
    rows = np.tensordot(alpha.matrix, ba.left_mult_tensor(a), axes=(0, 0)) \
        - ba.right_mult_tensor(a)
    null = ba.null_space(np.vstack([ba.realify_complex_linear(rows.reshape(n * n, n)),
                                    model.constant_stack]))
    if null.shape[1] == 0:
        return False, {"reason": "no kappa-symmetric intertwiner"}
    cands = ba.real_vec_to_coords(null @ rng.standard_normal((16, null.shape[1])).T)
    ratio = ba.smallest_svs(a, cands.T) / np.maximum(1.0, np.linalg.norm(cands, axis=0))
    best = int(np.argmax(ratio))
    if not ratio[best] > 1e-6:
        return False, {"reason": "no invertible kappa-symmetric intertwiner"}

    def unitarise(w):
        trace = np.trace(w.conj().swapaxes(-1, -2) @ w, axis1=-2, axis2=-1).real
        return w / np.sqrt(trace / w.shape[-1])[:, None, None]
    v = a.from_coords(cands[:, best]).blockwise(unitarise)
    if not _loop_in_group(model, v, 1e-7 * max(1.0, v.norm())):
        return False, {"reason": "the unitarised intertwiner leaves the group"}
    return True, {"witness": v}


def _loop_harness(wb, samples, seed, tol=DEFAULT_TOL):
    """Oracle: the consistency harness one sample at a time, one
    classify_biinner call (route A) and one route B call per sample, whose
    candidates come from route B's generator.  Yields, after each sample,
    its report so far and the states of the samples' generator and of route
    B's."""
    h, model = wb.hopf, wb.model
    rng = np.random.default_rng(seed)
    rng_b = np.random.default_rng((biinner.ROUTE_B_SEED, seed))
    a = h.algebra
    confusion = np.zeros((2, 2), dtype=int)
    mismatches = []
    positives_identity = True
    worst_comm = 0.0
    for k in range(samples):
        mode = k % 5
        if mode <= 2:
            u = ba.random_unitary(a, rng)
        elif mode == 3:
            u = ba.random_central_unitary(a, rng)
        else:
            if model.dim > 0:
                x = model.random_element(rng)
                u = exp_element((0.5 + rng.random()) * x)
            else:
                u = ba.random_central_unitary(a, rng)
        alpha = AlgebraMap.ad(u, tol)
        verdict = classify_biinner(alpha, h, wb.dual, wb.mu, None, tol)
        route_a = verdict.is_biinner
        route_b, _ = _loop_in_identity_component(alpha, model, rng_b)
        confusion[int(route_a), int(route_b)] += 1
        if route_a != route_b:
            mismatches.append({"sample": k, "route_a": route_a, "route_b": route_b})
        if route_a:
            if not alpha.is_identity(1e-7):
                positives_identity = False
            worst_comm = max(worst_comm, verdict.certificates["commutation"]["residual"])
        yield (ConsistencyReport(confusion.copy(), k + 1, model.dim, positives_identity,
                                 worst_comm, list(mismatches)),
               rng.bit_generator.state, rng_b.bit_generator.state)


@pytest.mark.parametrize("seed", [1, 7])
def test_stacked_harness_matches_the_per_sample_loop(workbenches, seed, monkeypatch):
    """Chunked stacks against the loop on the 11 workbenches, at sample
    counts that are not multiples of the 5-sample mode cycle, in chunks of
    8 and of chunk_samples(N): the same confusion matrix, mismatches,
    positives and Lie dimension, the same final states of the samples'
    generator and of route B's, and the same worst commutation residual up
    to 1e-15.  A run of n samples is the first n samples of a longer run,
    so one loop of 50 gives every oracle."""
    made = []
    real = np.random.default_rng

    def spy(*args):
        made.append((args, real(*args)))
        return made[-1][1]
    for key, wb in workbenches.items():
        loop = list(_loop_harness(wb, 50, seed))
        for samples, chunk in ((1, None), (7, 8), (23, 8), (23, None), (50, None)):
            want, want_state, want_b = loop[samples - 1]
            made.clear()
            monkeypatch.setattr(np.random, "default_rng", spy)
            if chunk:
                monkeypatch.setattr(biinner, "CHUNK_BYTES",
                                    chunk * biinner.SAMPLE_BYTES * wb.hopf.algebra.dim ** 3)
            got = brute_force_biinner_consistency(wb.hopf, wb.dual, wb.mu, wb.model,
                                                  samples=samples, seed=seed)
            monkeypatch.undo()
            shared = [g for args, g in made if args == (seed,)]
            route_b = [g for args, g in made if args == ((biinner.ROUTE_B_SEED, seed),)]
            assert len(shared) == len(route_b) == 1, key
            assert shared[0].bit_generator.state == want_state, (key, samples)
            assert route_b[0].bit_generator.state == want_b, (key, samples)
            assert got.confusion.tolist() == want.confusion.tolist(), (key, samples)
            assert got.mismatches == want.mismatches, (key, samples)
            assert got.positives_are_identity == want.positives_are_identity, (key, samples)
            assert got.lie_dim == want.lie_dim and got.samples == samples
            assert abs(got.worst_commutation - want.worst_commutation) <= 1e-15, (key, samples)


def test_stacked_routes_match_the_single_map_api_on_hard_maps(
        workbenches, group_likes, outer_automorphisms, hard_samples):
    """Criterion 12's maps (group-likes, group-likes times planted members
    of G_c, the outer automorphisms of C(S3) and C(D4)) as one stack per
    workbench: route A's kernel gives each map classify_biinner's verdict
    and refusal reason, and route B's kernel, on the candidates drawn in
    order, in_identity_component's verdict and the loop oracle's."""
    rng = np.random.default_rng(1212)
    seen = set()
    for key, wb in workbenches.items():
        maps = hard_samples(wb, group_likes[key], rng) + outer_automorphisms.get(key, [])
        ms = np.array([m.matrix for m in maps])

        refusal, _, _ = biinner._route_a(ms, wb.hopf, wb.dual, DEFAULT_TOL)
        reasons = [ROUTE_A_REFUSALS[r] if r >= 0 else "bi-inner" for r in refusal]
        assert reasons == [classify_biinner(m, wb.hopf, wb.dual).reason for m in maps], key
        seen.update(reasons)

        draw, single, loop = (np.random.default_rng(99) for _ in range(3))
        cands, has = biinner._intertwiner_candidates(ms, wb.model, draw)
        refusal = np.zeros(len(maps), int)
        if has.any():
            refusal[has] = biinner._route_b(wb.model, cands[has])[0]
        got = [(bool(r < 0), ROUTE_B_REFUSALS[r] if r >= 0 else None) for r in refusal]
        for calls in ((in_identity_component, single), (_loop_in_identity_component, loop)):
            fn, gen = calls
            want = [fn(m, wb.model, gen) for m in maps]
            assert got == [(ok, info.get("reason")) for ok, info in want], (key, fn.__name__)
    assert {"bi-inner", "not inner on the algebra", "dual action is not inner"} <= seen


def _full_stack_null(m, model):
    """Oracle: route B's intertwiner null space from the whole realified
    stack, the intertwiner rows above constant_stack, in 2N real coordinates."""
    a = model.hopf.algebra
    n = a.dim
    rows = np.tensordot(m, ba.left_mult_tensor(a), axes=(0, 0)) - ba.right_mult_tensor(a)
    return ba.null_space(np.vstack([ba.realify_complex_linear(rows.reshape(n * n, n)),
                                    model.constant_stack]))


def test_constraint_span_null_space_matches_the_full_stack(workbenches, group_likes,
                                                           outer_automorphisms, hard_samples):
    """Route B's null space taken inside K = null(constant_stack) is the one
    of the whole stack: the same dimension (so the candidate draw takes as
    many normals) and principal angles below 1e-12, on Haar, central and
    planted samples, criterion 12's hard maps and the outer automorphisms."""
    rng = np.random.default_rng(1214)
    dims = set()
    for key, wb in workbenches.items():
        a, model = wb.hopf.algebra, wb.model
        kc = model.constraint_span[0]
        k = np.concatenate([kc.real, kc.imag])
        assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-12), key
        assert np.linalg.norm(model.constant_stack @ k) < 1e-12, key
        us = [ba.random_unitary(a, rng), ba.random_central_unitary(a, rng),
              exp_element(model.random_element(rng))]
        maps = ([AlgebraMap.ad(u) for u in us] + hard_samples(wb, group_likes[key], rng)
                + outer_automorphisms.get(key, []))
        for alpha in maps:
            want = _full_stack_null(alpha.matrix, model)
            dim, vh = biinner._intertwiner_null(alpha.matrix[None], model)
            got = k @ vh[0, vh.shape[-1] - dim[0]:].conj().T
            assert got.shape == want.shape, key
            if want.shape[1]:
                assert np.linalg.norm(got - want @ (want.T @ got), 2) <= 1e-12, key
            dims.add(want.shape[1])
    assert len(dims) > 2


def test_stacked_partner_draw_matches_a_fresh_generator_per_map(workbenches, group_likes):
    """The partner kernel on one stack per workbench, whose maps have
    solution spaces of several dimensions, gives each map what a stack of
    one with its own default_rng(PARTNER_SEED) gives it: the same verdict,
    the partner within 1e-13 and the residual within 1e-15."""
    rng = np.random.default_rng(1215)
    for key, wb in workbenches.items():
        a = wb.hopf.algebra
        us = np.array([x.coords() for x in [a.unit(), ba.random_central_unitary(a, rng),
                                            ba.random_unitary(a, rng)] + group_likes[key]])
        found, uhats, resid = biinner._commutant_partners(us, wb.mu, DEFAULT_TOL)
        for j, u in enumerate(us):
            one = biinner._commutant_partners(u[None], wb.mu, DEFAULT_TOL,
                                              np.random.default_rng(biinner.PARTNER_SEED))
            assert one[0][0] == found[j], (key, j)
            assert np.abs(one[1][0] - uhats[j]).max() <= 1e-13, (key, j)
            assert abs(one[2][0] - resid[j]) <= 1e-15, (key, j)
        assert found[0], key


def test_partner_draw_refuses_by_both_of_its_gates(workbenches, monkeypatch):
    """For Haar unitaries u of kp, C[S3] and C[D4] the partner systems have
    solution spaces without an invertible element, so the kernel finds no
    partner: the polar parts of its draws leave the spaces.  Handed the span
    of one invertible element that is not a multiple of a unitary, it
    refuses too: the polar part leaves the span."""
    rng = np.random.default_rng(1216)
    for key in ("kp", "group:S3", "group:D4"):
        wb = workbenches[key]
        us = np.array([ba.random_unitary(wb.hopf.algebra, rng).coords() for _ in range(4)])
        rank = partner_null_spaces(partner_systems(us, wb.mu)[1])[0]
        assert np.all(rank < wb.mu.dim), key
        assert not biinner._commutant_partners(us, wb.mu, DEFAULT_TOL)[0].any(), key
    kp = workbenches["kp"]
    ahat = kp.dual.hopf.algebra
    w0 = ahat.unit_coords() + 0.5 * ahat.block_unit_coords()[:, 0]
    vh = np.zeros((1, ahat.dim, ahat.dim), complex)
    vh[0, -1] = w0.conj() / np.linalg.norm(w0)
    monkeypatch.setattr(biinner, "partner_null_spaces", lambda systems: (np.array([ahat.dim - 1]), vh))
    assert ba.smallest_svs(ahat, w0) > 1e-6
    assert not biinner._commutant_partners(kp.hopf.algebra.unit_coords()[None], kp.mu,
                                           DEFAULT_TOL)[0][0]


def test_singular_draws_are_refused_by_polar_membership_alone(kp, monkeypatch):
    """Handed a solution space with no invertible element (the matrix units
    of one row of the dual's 2 x 2 block, so every draw vanishes on the
    other blocks), the partner draw refuses every map: the polar part of a
    singular draw fills its null directions with unitary parts that leave
    the space, and no invertibility gate is needed."""
    ahat = kp.dual.hopf.algebra
    n = ahat.dim
    row = ahat.layout.by_size[2][0, 0]                 # coordinates of e_(b,0,0), e_(b,0,1)
    vh = np.zeros((3, n, n), complex)
    vh[:, -2:] = np.eye(n)[row]
    monkeypatch.setattr(biinner, "partner_null_spaces",
                        lambda systems: (np.full(len(systems), n - 2), vh[:len(systems)]))
    span = vh[0, -2:].conj().T
    rng = np.random.default_rng(1227)
    draws = span @ (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
    assert np.all(ba.smallest_svs(ahat, draws.T) == 0.0)
    us = np.array([ba.random_unitary(kp.hopf.algebra, rng).coords() for _ in range(3)])
    found, uhats, resid = biinner._commutant_partners(us, kp.mu, DEFAULT_TOL)
    assert not found.any() and not uhats.any() and not resid.any()


def test_group_defects_match_the_product_pairs(workbenches):
    """The defects route B's membership test reads off model.constant_stack
    are the kappa-twist defect and the cocentre commutator norms of the
    product-pair oracle, on random elements, unitaries and planted members."""
    rng = np.random.default_rng(1213)
    for key, wb in workbenches.items():
        a, model = wb.hopf.algebra, wb.model
        xs = [ba.random_element(a, rng), ba.random_unitary(a, rng),
              ba.random_central_unitary(a, rng), exp_element(model.random_element(rng))]
        got = biinner._group_defects(model, np.array([x.coords() for x in xs]))
        for x, row in zip(xs, got):
            want = [wb.hopf.ksym_defect(x)] + [(x * c - c * x).norm() for c in model.cocentre]
            assert np.allclose(row, want, rtol=1e-12, atol=1e-14), key
        # route B's gate on them: candidates that are all the unit pass it, a
        # random (not kappa-symmetric) invertible element leaves the group
        cands = np.array([[a.unit_coords()] * 16, [ba.random_element(a, rng).coords()] * 16])
        assert biinner._route_b(model, cands)[0].tolist() == [-1, 2], key


def _harness_peak(wb, samples, seed=5):
    tracemalloc.start()
    try:
        brute_force_biinner_consistency(wb.hopf, wb.dual, wb.mu, wb.model,
                                        samples=samples, seed=seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_harness_memory_does_not_grow_with_samples(kp, monkeypatch):
    """The harness holds one chunk's stacks at a time: with CHUNK_BYTES set
    so that chunk_samples gives 8 on kp, its tracemalloc peak on kp at 640
    samples exceeds the one at 64 by less than one chunk's temporaries,
    measured as the peak of one full chunk over that of one sample.
    (Holding every sample's map and candidates until the end would add
    about 1.9 MB at 640 samples.)"""
    n = kp.hopf.algebra.dim
    monkeypatch.setattr(biinner, "CHUNK_BYTES", 8 * biinner.SAMPLE_BYTES * n ** 3)
    chunk = biinner.chunk_samples(n)
    assert chunk == 8
    _harness_peak(kp, chunk)
    grows = _harness_peak(kp, chunk) - _harness_peak(kp, 1)
    assert _harness_peak(kp, 640) - _harness_peak(kp, 64) <= grows


@pytest.mark.parametrize("kind", ["group", "function"])
def test_harness_peak_stays_within_the_chunk_bound(kind):
    """At the harness's largest N = 12 (dihedral:6), 200 samples run in
    chunks of chunk_samples(12) and the tracemalloc peak of the run stays
    within 1.25 CHUNK_BYTES (measured on a second run, after the model's
    constraint span and the cached structure tensors are formed)."""
    h = (group_algebra if kind == "group" else function_algebra)(by_name("dihedral:6"))
    d = build_dual(h)
    wb = SimpleNamespace(hopf=h, dual=d, mu=build_multiplicative_unitary(build_gns(h), d),
                         model=build_group_model(h))
    assert wb.hopf.algebra.dim == 12 and biinner.chunk_samples(12) < 200
    _harness_peak(wb, 5)
    assert _harness_peak(wb, 200) <= 1.25 * biinner.CHUNK_BYTES


def test_route_b_null_dimensions_do_not_move_the_samples(workbenches, monkeypatch):
    """Route B's candidates come from their own generator: forcing every
    map's intertwiner null dimension to 0, or to the whole constraint span,
    changes how many normals route B draws and its verdicts, yet the
    harness's maps and route A's verdicts stay bit for bit, in chunks of 8."""
    real_route_a, real_null = biinner._route_a, biinner._intertwiner_null
    for key in ("kp", "group:D4", "function:S3"):
        wb = workbenches[key]
        n = wb.hopf.algebra.dim
        runs = {}
        for force in (None, "none", "all"):
            seen = []

            def route_a(ms, h, d, tol):
                out = real_route_a(ms, h, d, tol)
                seen.append((ms.copy(), out[0].copy()))
                return out

            def null(ms, model):
                dims, vh = real_null(ms, model)
                return np.full_like(dims, 0 if force == "none" else vh.shape[-1]), vh
            monkeypatch.setattr(biinner, "CHUNK_BYTES", 8 * biinner.SAMPLE_BYTES * n ** 3)
            monkeypatch.setattr(biinner, "_route_a", route_a)
            if force:
                monkeypatch.setattr(biinner, "_intertwiner_null", null)
            rep = brute_force_biinner_consistency(wb.hopf, wb.dual, wb.mu, wb.model,
                                                  samples=23, seed=4)
            monkeypatch.undo()
            runs[force] = rep, seen
        base, chunks = runs[None]
        assert len(chunks) == 3 and base.diagonal, key
        for force in ("none", "all"):
            rep, seen = runs[force]
            assert len(seen) == len(chunks), key
            for (ms, refusal), (ms0, refusal0) in zip(seen, chunks):
                assert np.array_equal(ms, ms0) and np.array_equal(refusal, refusal0), (key, force)
            assert rep.confusion.sum(axis=1).tolist() == base.confusion.sum(axis=1).tolist()
        # with no intertwiner, route B refuses every sample
        assert runs["none"][0].confusion[:, 1].sum() == 0, key


def test_harness_reports_a_positive_that_moves(kp, group_likes, monkeypatch):
    """kp's moving group-likes are bi-inner on both routes; handed one as
    every sample, the harness counts all positives and reports that they
    are not all the identity."""
    g = next(u for u in group_likes["kp"] if not AlgebraMap.ad(u).is_identity(1e-7))
    alpha = AlgebraMap.ad(g)

    _plant(monkeypatch, alpha)
    rep = brute_force_biinner_consistency(kp.hopf, kp.dual, kp.mu, kp.model,
                                          samples=11, seed=3)
    assert rep.confusion.tolist() == [[0, 0], [0, 11]]
    assert not rep.positives_are_identity and rep.worst_commutation < 1e-8
