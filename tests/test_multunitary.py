import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fqg import blockalg as ba
from fqg import multunitary
from fqg.cli import main
from fqg.errors import (LegMismatch, NotSimpleTensor, NotUnitary, PentagonFailed,
                        SpectrumFullCircle)
from fqg.groups import by_name, cyclic
from fqg.hopf import function_algebra, group_algebra
from fqg.duality import build_dual
from fqg.multunitary import (GnsSpace, build_gns, build_multiplicative_unitary,
                             column_classes, commutation_test, first_leg_basis,
                             fixed_and_cofixed, leg_inverse, pair_from_commutant,
                             partner_null_spaces, partner_residuals, partner_systems,
                             path_in_commutant, pentagon_certificates, solve_commutant_partner,
                             split_simple_tensor, unitary_fractional_power)

RNG = np.random.default_rng(606)


# -- GNS space ------------------------------------------------------------------

def test_gns_gram_group_z2(gz2):
    # tau(lam_g* lam_h) = [g = h]: identity Gram matrix on the group basis
    h = gz2.hopf
    phi = h.meta["group_basis"]
    lam = [h.algebra.from_coords(phi[:, g]) for g in range(2)]
    for g in range(2):
        for k in range(2):
            want = 1.0 if g == k else 0.0
            assert abs(h.tau(lam[g].adjoint() * lam[k]) - want) < 1e-12


def test_gns_gram_function_s3(fs3):
    assert np.allclose(fs3.gns.gram, np.eye(6) / 6)


def test_gns_rep_is_star_homomorphism(workbenches):
    for wb in workbenches.values():
        g = wb.gns
        x = ba.random_element(wb.hopf.algebra, RNG)
        y = ba.random_element(wb.hopf.algebra, RNG)
        assert np.linalg.norm(g.rep(x) @ g.rep(y) - g.rep(x * y)) < 1e-10
        assert np.linalg.norm(g.rep(x.adjoint()) - g.rep(x).conj().T) < 1e-10
        assert np.linalg.norm(g.rep(wb.hopf.algebra.unit()) - np.eye(g.dim)) < 1e-12


def test_gns_rep_matches_per_basis_loop(workbenches):
    # oracle: the columns x e_k of left multiplication, one basis element
    # at a time, in the orthonormal basis
    for wb in workbenches.values():
        g, a = wb.gns, wb.hopf.algebra

        def rep_loop(x):
            cols = np.column_stack([(x * a.basis_element(k)).coords() for k in range(a.dim)])
            return g.onb @ cols @ g.onb_inv

        for x in (ba.random_element(a, RNG), a.unit(), ba.random_unitary(a, RNG)):
            assert np.abs(g.rep(x) - rep_loop(x)).max() < 1e-13
        want = np.array([rep_loop(a.basis_element(k)) for k in range(a.dim)])
        assert np.abs(g.rep_basis - want).max() < 1e-13


# -- the multiplicative unitary ---------------------------------------------------

def test_v_is_permutation_type_on_function_z2():
    h = function_algebra(cyclic(2))
    d = build_dual(h)
    mu = build_multiplicative_unitary(build_gns(h), d)
    # oracle: direct evaluation of the defining formula on the four basis
    # vectors gives the permutation (a, b) -> (a b^{-1}, b) of delta pairs
    g = cyclic(2)
    oracle = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            oracle[g.mul(a, g.inv(b)) * 2 + b, a * 2 + b] = 1.0
    assert np.linalg.norm(mu.matrix - oracle) < 1e-12


def test_closed_form_v_matches_elementwise_products(workbenches):
    # oracle: column (i, j) of V on element coordinates is delta(e_i)(1 (x) e_j),
    # multiplied out in the tensor algebra
    for key, wb in workbenches.items():
        h, n = wb.hopf, wb.mu.dim
        one = h.algebra.unit()
        basis = [h.algebra.basis_element(k) for k in range(n)]
        v_el = np.empty((n * n, n * n), complex)
        for i in range(n):
            di = h.delta(basis[i])
            for j in range(n):
                v_el[h.perm2, i * n + j] = (di * ba.tensor_element(one, basis[j])).coords()
        w2 = np.kron(wb.gns.onb, wb.gns.onb)
        oracle = w2 @ v_el @ np.linalg.inv(w2)
        # the stored V, read off its Schmidt legs, is the oracle projected on the
        # column classes up to round-off, and what the projection drops is
        # round-off
        projected = multunitary.project_on_column_classes(oracle, h.algebra)
        assert np.abs(projected - wb.mu.matrix).max() <= 1e-14, key
        assert np.linalg.norm(oracle - projected) <= 1e-28, key


def test_unitarity_pentagon_legs_everywhere(workbenches):
    for key, wb in workbenches.items():
        c = wb.mu.certificates
        n = wb.hopf.algebra.dim
        assert c["unitarity"] < 1e-10, key
        assert c["pentagon"] < 1e-10, key
        assert c["leg_dim_first"] == n and c["leg_dim_second"] == n, key
        assert c["second_leg_span_distance"] < 1e-8, key
        assert c["second_leg_membership"] < 1e-8, key
        assert max(c["dual_rep_multiplicative"], c["dual_rep_star"],
                   c["dual_rep_unital"]) < 1e-8, key


def test_dual_leg_representation(workbenches):
    for wb in workbenches.values():
        mu = wb.mu
        xh = ba.random_element(wb.dual.hopf.algebra, RNG)
        yh = ba.random_element(wb.dual.hopf.algebra, RNG)
        assert np.linalg.norm(mu.rep_dual(xh * yh)
                              - mu.rep_dual(xh) @ mu.rep_dual(yh)) < 1e-9
        assert np.linalg.norm(mu.rep_dual(xh.adjoint())
                              - mu.rep_dual(xh).conj().T) < 1e-9


def test_dual_rep_and_pairing_certificates_match_basis_loops(workbenches):
    """The exact slice-map certificate against the pair loop over dual basis
    elements.  It is also the pairing certificate: the slices are formed
    from the pairing matrix (see test_a_wrong_pairing_is_refused)."""
    for key, wb in workbenches.items():
        mu, d, n = wb.mu, wb.dual, wb.mu.dim
        dual_alg = d.hopf.algebra
        basis = [dual_alg.basis_element(i) for i in range(n)]
        reps = [mu.rep_dual(x) for x in basis]
        worst_m = max(float(np.linalg.norm(mu.rep_dual(x * y) - reps[i] @ reps[j]))
                      for i, x in enumerate(basis) for j, y in enumerate(basis))
        worst_s = max(float(np.linalg.norm(mu.rep_dual(x.adjoint()) - reps[i].conj().T))
                      for i, x in enumerate(basis))
        c = mu.certificates
        assert abs(c["dual_rep_multiplicative"] - worst_m) <= 1e-13, key
        assert abs(c["dual_rep_star"] - worst_s) <= 1e-13, key


def test_schmidt_legs_match_the_least_squares_fit(workbenches):
    """The first legs read off the coproduct, X_k = rep_dual(t_k), are the
    least-squares Schmidt legs of the stored V over the S_k = rep(e_k), and
    second_leg_membership is that fit's relative residual, up to
    round-off."""
    for key, wb in workbenches.items():
        mu, n = wb.mu, wb.mu.dim
        v_schmidt = mu.matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        flat = mu.gns.rep_basis.reshape(n, n * n)
        fit = np.linalg.lstsq(flat.T, v_schmidt.T, rcond=None)[0]
        xs = np.tensordot(wb.dual.to_dual_mat, mu.rep_dual_basis, axes=(0, 0))
        assert np.abs(fit - xs.reshape(n, n * n)).max() <= 1e-13, key
        residual = np.linalg.norm(flat.T @ fit - v_schmidt.T) / max(1.0, mu.norm)
        assert abs(mu.certificates["second_leg_membership"] - residual) <= 1e-14, key


def test_a_wrong_pairing_is_refused(gs3):
    """The pairing row of fqg verify can fail: with a random invertible
    matrix in place of from_dual_mat, the first-leg slices do not represent
    the dual and the build refuses with LegMismatch."""
    rng = np.random.default_rng(2027)
    n = gs3.mu.dim
    wrong = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.linalg.svd(wrong, compute_uv=False)[-1] > 1e-3
    dual = dataclasses.replace(gs3.dual, from_dual_mat=wrong, to_dual_mat=np.linalg.inv(wrong))
    with pytest.raises(LegMismatch, match="do not represent the dual"):
        build_multiplicative_unitary(gs3.gns, dual)


def test_gns_certificate_refuses_a_broken_representation(gs3, monkeypatch):
    from fqg.errors import HaarNotFaithful
    broken = gs3.gns.rep_basis.copy()
    broken[1] += 1e-6 * np.eye(gs3.gns.dim)
    monkeypatch.setattr(multunitary.GnsSpace, "rep_basis", property(lambda self: broken))
    with pytest.raises(HaarNotFaithful):
        build_gns(gs3.hopf)


def _dense_pentagon_residual(v, n):
    """Oracle: the pentagon residual from dense n^3 x n^3 leg matrices."""
    eye = np.eye(n)
    v12 = np.kron(v, eye)
    v23 = np.kron(eye, v)
    v13 = np.einsum('abcd,ef->aebcfd', v.reshape(n, n, n, n), eye).reshape(n ** 3, n ** 3)
    pent = v12 @ v13 @ v23 - v23 @ v12
    return float(np.linalg.norm(pent)) / max(1.0, float(np.linalg.norm(v12)))


def leg2_classes(v, n):
    """Oracle: the classes of leg-2 indices that v couples, stacked by size.

    Leg-2 index r is coupled to j when some V[(a, r), (i, j)] is nonzero;
    the classes are the connected components of that relation, read from
    the exact zeros of v.  Returns one (count, size) index array per class
    size, in order of first appearance."""
    coupled = (v.reshape(n, n, n, n) != 0).any(axis=(0, 2))
    reach = coupled | coupled.T | np.eye(n, dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    by_size = {}
    for root in dict.fromkeys(reach.argmax(axis=1)):
        members = np.flatnonzero(reach[root])
        by_size.setdefault(len(members), []).append(members)
    return [np.stack(g) for g in by_size.values()]


def pentagon_residual(v, n):
    """Oracle: the pentagon residual split over the leg-3 classes only.

    V13 and V23 map leg 3 within the classes of leg2_classes(v), and V12
    does not touch it, so the pentagon operator is block-diagonal over those
    classes.  Both sides are applied to e_i (x) I (x) I_K, one first-leg
    index i at a time with the classes K of one size m stacked: O(n^6
    sum_K m^2) time.  For an unpartitioned v this is the single class
    K = {0..n-1}."""
    v4 = v.reshape(n, n, n, n)                 # axes (row1, row2, col1, col2)
    vt = v4.transpose(1, 3, 0, 2)              # axes (row2, col2, row1, col1)
    total = 0.0
    for cls in leg2_classes(v, n):
        g, m = cls.shape
        # sub[g, c, l, b, k] = <e_b e_(K c)|V|e_k e_(K l)>
        sub = vt[cls[:, :, None], cls[:, None, :]]
        # V23 on leg 3 in K: v23[g, k, (b, j, l)] = <e_b e_(K k)|V|e_j e_(K l)>
        v23 = sub.transpose(0, 1, 3, 4, 2).reshape(g, m, n * n * m)
        for i in range(n):
            # V13 on e_i, leg 3 in K: w13[g, (a, c), k] = <e_a e_(K c)|V|e_i e_(K k)>
            w13 = sub[..., i].transpose(0, 3, 1, 2).reshape(g, n * m, m)
            # V13 V23 at [g, a, c, b, j, l], then V12 on (a, b)
            left = (w13 @ v23).reshape(g, n, m, n, n, m)
            left = v @ left.transpose(1, 3, 0, 2, 4, 5).reshape(n * n, -1)
            # V23 V12: sum_k <e_a e_k|V|e_i e_j> <e_b e_(K c)|V|e_k e_(K l)>
            # at [a, j, g, c, l, b]
            right = np.tensordot(v4[:, :, i], sub, axes=(1, 4))
            left -= right.transpose(0, 5, 2, 3, 1, 4).reshape(n * n, -1)
            total += float(np.vdot(left, left).real)
    norm = max(1.0, float(np.sqrt(n) * np.linalg.norm(v)))
    return float(np.sqrt(total)) / norm


def _two_leg_certificates(mu, v=None):
    """pentagon_certificates of v (default: mu's V) in mu's first-leg basis."""
    dual_alg, a = mu.dual.hopf.algebra, mu.gns.hopf.algebra
    w = first_leg_basis(mu.rep_dual_basis, dual_alg)
    return pentagon_certificates(mu.matrix if v is None else v, w, dual_alg, a)


def test_pentagon_residual_matches_dense_oracle(workbenches):
    for key, wb in workbenches.items():
        n = wb.mu.dim
        want = _dense_pentagon_residual(wb.mu.matrix, n)
        assert abs(pentagon_residual(wb.mu.matrix, n) - want) < 1e-13, key
        assert abs(wb.mu.certificates["pentagon"] - want) < 1e-13, key


@pytest.fixture(scope="module")
def mus_n12_to_24():
    """V of the group and function algebras of dihedral:6, dihedral:8 and S4."""
    out = {}
    for g in ("dihedral:6", "dihedral:8", "S4"):
        for kind, build in (("group", group_algebra), ("function", function_algebra)):
            h = build(by_name(g))
            out[f"{kind}:{g}"] = build_multiplicative_unitary(build_gns(h), build_dual(h))
    return out


def test_two_leg_pentagon_matches_the_single_leg_oracle(mus_n12_to_24):
    for key, mu in mus_n12_to_24.items():
        c = mu.certificates
        assert abs(c["pentagon"] - pentagon_residual(mu.matrix, mu.dim)) < 1e-13, key
        assert c["first_leg_basis_defect"] < 1e-13, key
        assert c["first_leg_class_defect"] < 1e-13, key


def test_first_leg_basis_takes_the_slices_to_left_multiplication(workbenches):
    """W rep_dual(e) W* is the dual's left multiplication on its matrix-unit
    coordinates, for every dual basis element e."""
    for key, wb in workbenches.items():
        mu, dual_alg = wb.mu, wb.dual.hopf.algebra
        slices = mu.rep_dual_basis
        w = first_leg_basis(slices, dual_alg)
        got = w @ slices @ w.conj().T
        assert np.abs(got - ba.left_mult_tensor(dual_alg)).max() < 1e-12, key


def test_pentagon_split_keeps_an_off_pattern_coupling(kp):
    """One entry of V coupling two column classes on leg 2 merges them, and
    the split residual still equals the dense one."""
    n = kp.mu.dim
    label = column_classes(kp.hopf.algebra)
    r, j = 0, int(np.flatnonzero(label != label[0])[-1])
    bad = kp.mu.matrix.copy()
    bad.reshape(n, n, n, n)[3, r, 5, j] = 0.3
    merged = leg2_classes(bad, n)
    assert sum(len(c) for c in merged) < sum(len(c) for c in leg2_classes(kp.mu.matrix, n))
    assert any(r in c and j in c for g in merged for c in g)
    got, want = pentagon_residual(bad, n), _dense_pentagon_residual(bad, n)
    assert want > 1e-3
    assert abs(got - want) < 1e-13 * max(1.0, want)


@pytest.fixture(scope="module")
def mu_d8():
    h = group_algebra(by_name("dihedral:8"))
    return build_multiplicative_unitary(build_gns(h), build_dual(h))


@pytest.fixture(scope="module")
def mu_fd8():
    h = function_algebra(by_name("dihedral:8"))
    return build_multiplicative_unitary(build_gns(h), build_dual(h))


def test_pentagon_split_finds_every_column_class(workbenches, mu_d8):
    """The split of Pi(V) has exactly one class per column of each block:
    sum_b d_b classes, each a column class of rep(A), none merged."""
    mus = {key: wb.mu for key, wb in workbenches.items()}
    mus["group:dihedral:8"] = mu_d8
    for key, mu in mus.items():
        a = mu.gns.hopf.algebra
        label = column_classes(a)
        found = [frozenset(c.tolist()) for g in leg2_classes(mu.matrix, mu.dim) for c in g]
        assert len(found) == sum(a.block_dims), key
        assert set(found) == {frozenset(np.flatnonzero(label == x).tolist())
                              for x in np.unique(label)}, key


@pytest.mark.parametrize("key", ["kp", "group:S3", "function:D4"])
def test_pentagon_residual_detects_non_pentagonal_unitary(workbenches, key):
    mu = workbenches[key].mu
    n = mu.dim
    rng = np.random.default_rng(4242)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    bad = mu.matrix @ np.kron(u, np.eye(n))       # unitary, not pentagonal
    assert np.linalg.norm(bad.conj().T @ bad - np.eye(n * n)) < 1e-12
    got = pentagon_residual(bad, n)
    want = _dense_pentagon_residual(bad, n)
    assert got > 1e-3 and want > 1e-3
    assert abs(got - want) < 1e-13 * max(1.0, want)
    # the two-leg certificate refuses it too: its first leg leaves the
    # dual's classes, or what is left has a large residual
    c = _two_leg_certificates(mu, bad)
    assert c["first_leg_class_defect"] > 1e-8 or c["pentagon"] > 1e-3


@pytest.mark.parametrize("key", ["kp", "group:S3", "function:D4"])
def test_two_leg_pentagon_matches_dense_off_the_pentagon(workbenches, key):
    """V times a unitary of the leg algebras on either side keeps both legs
    in their classes but breaks the pentagon; the split residual is still
    the dense one."""
    wb = workbenches[key]
    mu, n = wb.mu, wb.mu.dim
    rng = np.random.default_rng(4343)
    t = mu.rep(ba.random_unitary(wb.hopf.algebra, rng))
    t_hat = mu.rep_dual(ba.random_unitary(wb.dual.hopf.algebra, rng))
    for bad in (mu.matrix @ np.kron(np.eye(n), t), np.kron(t_hat, np.eye(n)) @ mu.matrix):
        c = _two_leg_certificates(mu, bad)
        want = _dense_pentagon_residual(bad, n)
        assert c["first_leg_class_defect"] < 1e-13 and want > 1e-3
        assert abs(c["pentagon"] - want) < 1e-13 * max(1.0, want)


@pytest.mark.parametrize("residual, fails", [(2e-8, True), (0.5e-8, False)])
def test_pentagon_gate_threshold(monkeypatch, residual, fails):
    h = function_algebra(cyclic(3))
    d, gns = build_dual(h), build_gns(h)
    monkeypatch.setattr(multunitary, "pentagon_residual", lambda v, vt, first, second: residual)
    if fails:
        with pytest.raises(PentagonFailed):
            build_multiplicative_unitary(gns, d)
    else:
        assert build_multiplicative_unitary(gns, d).certificates["pentagon"] == residual


def _rotated_gns(gns, angle, seed=31):
    """The GNS space in another orthonormal basis, exp(i angle H) onb for a
    random Hermitian H: rep(A) no longer respects the column classes."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(gns.dim,) * 2) + 1j * rng.normal(size=(gns.dim,) * 2)
    vals, vecs = np.linalg.eigh(z + z.conj().T)
    q = (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T
    onb = q @ gns.onb
    return GnsSpace(gns.hopf, gns.gram, onb, np.linalg.inv(onb))


@pytest.mark.parametrize("angle, fails", [(1e-5, True), (1e-11, False)])
def test_column_class_gate(gs3, angle, fails):
    gns = _rotated_gns(gs3.gns, angle)
    if fails:
        with pytest.raises(LegMismatch, match="column classes"):
            build_multiplicative_unitary(gns, gs3.dual)
    else:
        c = build_multiplicative_unitary(gns, gs3.dual).certificates
        assert 1e-14 < c["second_leg_membership"] < 1e-8
        assert c["pentagon"] < 1e-8


@pytest.mark.parametrize("angle, fails", [(1e-5, True), (1e-11, False)])
def test_first_leg_class_gate(gs3, monkeypatch, angle, fails):
    """A first-leg basis rotated by exp(i angle H) no longer takes the
    slices into the dual's column classes."""
    rot = _rotated_gns(gs3.gns, angle).onb @ gs3.gns.onb_inv
    keep = multunitary.first_leg_basis
    monkeypatch.setattr(multunitary, "first_leg_basis", lambda s, a: rot @ keep(s, a))
    if fails:
        with pytest.raises(LegMismatch, match="column classes of the dual"):
            build_multiplicative_unitary(gs3.gns, gs3.dual)
    else:
        c = build_multiplicative_unitary(gs3.gns, gs3.dual).certificates
        assert 1e-14 < c["first_leg_class_defect"] < 1e-8
        assert c["first_leg_basis_defect"] < 1e-13
        assert c["pentagon"] < 1e-8


@pytest.mark.parametrize("scale, fails", [(1e-5, True), (1e-11, False)])
def test_first_leg_basis_gate(gs3, monkeypatch, scale, fails):
    keep = multunitary.first_leg_basis
    monkeypatch.setattr(multunitary, "first_leg_basis",
                        lambda s, a: (1 + scale) * keep(s, a))
    if fails:
        with pytest.raises(LegMismatch, match="not orthonormal"):
            build_multiplicative_unitary(gs3.gns, gs3.dual)
    else:
        c = build_multiplicative_unitary(gs3.gns, gs3.dual).certificates
        assert 1e-11 < c["first_leg_basis_defect"] < 1e-8
        assert c["pentagon"] < 1e-8


def test_cli_refuses_v_off_the_column_classes(monkeypatch, capsys):
    monkeypatch.setattr("fqg.cli.build_gns",
                        lambda h, tol: _rotated_gns(build_gns(h, tol), 1e-3))
    rc = main(["verify", "--group", "S3", "--samples", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: LegMismatch: V leaves the column classes")


def test_column_class_defect_is_round_off(workbenches):
    for key, wb in workbenches.items():
        assert wb.mu.certificates["second_leg_membership"] <= 1e-28, key


@pytest.mark.parametrize("kind", ["group", "function"])
def test_build_gns_peak_on_s4_stays_within_the_slab_bound(kind):
    """The GNS certificate forms rep(e_i) rep(e_j) in slabs of i within
    HOM_CHUNK_BYTES: a second build on C[S4] or C(S4) peaks at most 3 MiB
    (measured 2.3-2.6 MiB), where all pair products in one array took
    5.9-6.7 MiB, more than their N^4 complex entries (5.1 MiB)."""
    h = (group_algebra if kind == "group" else function_algebra)(by_name("S4"))
    build_gns(h)
    tracemalloc.start()
    try:
        gns = build_gns(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gns.rep_defects["multiplicative"] < 1e-8
    assert peak <= 3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_multiplicative_unitary_memory_at_dim_16():
    # n^3 x n^3 leg matrices alone would take ~1.3 GB at N = 16
    h = group_algebra(by_name("dihedral:8"))
    d, gns = build_dual(h), build_gns(h)
    tracemalloc.start()
    try:
        mu = build_multiplicative_unitary(gns, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.certificates["pentagon"] < 1e-10
    assert peak < 256 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"


def test_multiplicative_unitary_at_dim_24():
    # the split pentagon makes N = 24 a Tier-1 rung: the former O(N^8)
    # slices took ~14 s and a 385 MiB peak (2-core machine), the split over
    # leg 2 ~2 s and 67 MiB, the split over both legs ~0.15 s and 25 MiB
    h = group_algebra(by_name("S4"))
    d, gns = build_dual(h), build_gns(h)
    tracemalloc.start()
    try:
        mu = build_multiplicative_unitary(gns, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.certificates["pentagon"] < 1e-10
    assert peak < 128 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"


def test_multiplicative_unitary_memory_at_dim_32():
    # the pentagon's stacks once dominated the build (11.1 times the bytes of
    # V on C[D16]); split over both legs and chunked they stay below it
    h = group_algebra(by_name("dihedral:16"))
    d, gns = build_dual(h), build_gns(h)
    tracemalloc.start()
    try:
        mu = build_multiplicative_unitary(gns, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.certificates["pentagon"] < 1e-8
    assert peak <= 6 * mu.matrix.nbytes, f"peak {peak / mu.matrix.nbytes:.1f} x V"


# -- fixed and cofixed vectors -----------------------------------------------------

def _selector_stacks(mu):
    """Oracle: V - 1 restricted to xi (x) e_k and to e_k (x) eta by
    Kronecker selectors, stacked over k: the two dense n^3 x n systems."""
    n, v = mu.dim, mu.matrix
    eye = np.eye(n)
    rows_fixed = [(v - np.eye(n * n)) @ np.kron(eye, eye[:, [k]]) for k in range(n)]
    rows_cofixed = [(v - np.eye(n * n)) @ np.kron(eye[:, [k]], eye) for k in range(n)]
    return np.vstack(rows_fixed), np.vstack(rows_cofixed)


def test_fixed_cofixed_match_selector_products(workbenches):
    """The spaces read off the Schmidt legs are those of the dense selector
    systems: equal orthogonal projectors to 1e-12."""
    for key, wb in workbenches.items():
        fx = fixed_and_cofixed(wb.mu)
        for got, rows in zip((fx.fixed, fx.cofixed), _selector_stacks(wb.mu)):
            want = ba.null_space(rows)
            assert got.shape == want.shape, key
            assert np.abs(got @ got.conj().T - want @ want.conj().T).max() <= 1e-12, key


def test_leg_systems_keep_the_singular_values_of_the_dense_stacks(workbenches, monkeypatch):
    """The two weighted n^2 x n leg systems that fixed_and_cofixed hands to
    null_space have the singular values of the dense n^3 x n stacks of
    V - 1, to 1e-13.  The legs' trace Gram matrices are diagonal there, so
    the weighting is also checked on random stacks with full Gram matrices,
    against the dense stack of sum_q ops[q] xi (x) other[q] e_k."""
    seen = []
    null_space = ba.null_space
    monkeypatch.setattr(ba, "null_space", lambda mat: seen.append(mat) or null_space(mat))
    rng = np.random.default_rng(1227)
    ops, other = (rng.standard_normal((2, 5, 5, 5)) + 1j * rng.standard_normal((2, 5, 5, 5)))
    flat = other.reshape(5, 25)
    multunitary._leg_null_space(ops, flat.conj() @ flat.T)
    dense = np.einsum("qac,qbk->abkc", ops, other).reshape(5 ** 3, 5)
    assert np.allclose(np.linalg.svd(seen.pop(), compute_uv=False),
                       np.linalg.svd(dense, compute_uv=False), rtol=0, atol=1e-12)
    for key, wb in workbenches.items():
        n = wb.mu.dim
        seen.clear()
        fixed_and_cofixed(wb.mu)
        assert [m.shape for m in seen] == [(n * n, n)] * 2, key
        for system, rows in zip(seen, _selector_stacks(wb.mu)):
            got = np.linalg.svd(system, compute_uv=False)
            want = np.linalg.svd(rows, compute_uv=False)
            assert np.abs(got - want).max() <= 1e-13, key


def test_fixed_and_cofixed_memory_stays_below_n_cubed_stacks():
    """fixed_and_cofixed on C[D16] (N = 32) forms no n^3 x n stack and does
    not read the dense V: its tracemalloc peak stays below one such stack,
    16 MiB (the dense stacks of V - 1 took it to about 81 MiB)."""
    h = group_algebra(by_name("dihedral:16"))
    mu = dataclasses.replace(build_multiplicative_unitary(build_gns(h), build_dual(h)),
                             matrix=None)
    n = mu.dim
    tracemalloc.start()
    try:
        fx = fixed_and_cofixed(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fx.fixed.shape[1], fx.cofixed.shape[1]) == (1, 1)
    assert peak < n ** 4 * 16, peak / 2 ** 20


def _first_legs(v, n):
    """Oracle: all slices (id (x) omega)(V), entry (i,j) of every block of V."""
    v4 = v.reshape(n, n, n, n)
    return v4.transpose(1, 3, 0, 2).reshape(n * n, n, n)


def test_first_legs_are_the_per_slice_list(workbenches):
    for key, wb in workbenches.items():
        n, v4 = wb.mu.dim, wb.mu.matrix.reshape((wb.mu.dim,) * 4)
        want = np.array([v4[:, i, :, j].reshape(-1) for i in range(n) for j in range(n)])
        got = _first_legs(wb.mu.matrix, n).reshape(-1, n * n)
        assert np.array_equal(got, want), key


def test_fixed_cofixed_function_z2_explicit():
    h = function_algebra(cyclic(2))
    d = build_dual(h)
    mu = build_multiplicative_unitary(build_gns(h), d)
    fx = fixed_and_cofixed(mu)
    assert fx.fixed.shape[1] == 1 and fx.cofixed.shape[1] == 1
    # fixed vectors are the constants = image of the unit; cofixed = delta_e
    fvec = fx.fixed[:, 0]
    assert np.linalg.norm(fvec - fvec.mean()
                          * np.ones(2) / np.linalg.norm(np.ones(2)) * np.sqrt(2)) < 1e-9 \
        or np.allclose(np.abs(fvec), np.abs(fvec[0]))
    cvec = np.abs(fx.cofixed[:, 0])
    assert cvec[0] > 1 - 1e-9 and cvec[1] < 1e-9


def test_fixed_cofixed_dims_and_eigenproperty(workbenches):
    for key, wb in workbenches.items():
        fx = fixed_and_cofixed(wb.mu)
        assert fx.fixed.shape[1] == 1, key      # multiplicity one
        assert fx.cofixed.shape[1] == 1, key
        assert fx.eigenvector_residual < 1e-9, key


def test_fixed_cofixed_invariant_under_commuting_conjugation(kp):
    mu = kp.mu
    one = kp.hopf.algebra.unit()
    one_hat = kp.dual.hopf.algebra.unit()
    t = np.kron(mu.rep_dual(one_hat), mu.rep(one))
    v_conj = t.conj().T @ mu.matrix @ t
    fx0 = fixed_and_cofixed(mu)
    from fqg.multunitary import MultiplicativeUnitary
    mu_c = MultiplicativeUnitary(mu.gns, mu.dual, v_conj, mu.rep_dual_basis,
                                 dict(mu.certificates))
    fx1 = fixed_and_cofixed(mu_c)
    # same spaces up to phase
    for a, b in [(fx0.fixed, fx1.fixed), (fx0.cofixed, fx1.cofixed)]:
        overlap = np.abs(np.vdot(a[:, 0], b[:, 0]))
        assert overlap > 1 - 1e-9


# -- commutation tests --------------------------------------------------------------

def test_commutation_trivial_pair(workbenches):
    for wb in workbenches.values():
        rep = commutation_test(wb.dual.hopf.algebra.unit(),
                               wb.hopf.algebra.unit(), wb.mu)
        assert rep["residual"] < 1e-12


def test_commutation_opposite_phases(kp):
    th = 0.7
    uhat = np.exp(1j * th) * kp.dual.hopf.algebra.unit()
    u = np.exp(-1j * th) * kp.hopf.algebra.unit()
    rep = commutation_test(uhat, u, kp.mu)
    assert rep["residual"] < 1e-12


def test_commutation_rejects_nonunitary(kp):
    with pytest.raises(NotUnitary):
        commutation_test(kp.dual.hopf.algebra.unit(),
                         2.0 * kp.hopf.algebra.unit(), kp.mu)


def _commutant_partner_loop(u, mu):
    """Oracle: one Kronecker matrix X_k (x) rep(u) per dual basis element and
    two dense products with V, one column of the system each."""
    n = mu.dim
    t = mu.rep(u)
    cols = []
    for k in range(n):
        big = np.kron(mu.rep_dual_basis[k], t)
        cols.append((mu.matrix @ big - big @ mu.matrix).reshape(-1))
    return ba.null_space(np.array(cols).T)


def test_commutant_partner_matches_kron_loop(workbenches, mu_d8):
    """The reduced n^3 x n system has the null space of the n^4 x n one, for
    unitary and for non-unitary u (no inverse of u is taken)."""
    rng = np.random.default_rng(12)
    mus = {key: wb.mu for key, wb in workbenches.items()}
    mus["group:dihedral:8"] = mu_d8
    for key, mu in mus.items():
        a = mu.gns.hopf.algebra
        for u in (a.unit(), ba.random_central_unitary(a, rng), ba.random_unitary(a, rng),
                  ba.random_element(a, rng)):
            want = _commutant_partner_loop(u, mu)
            sols = solve_commutant_partner(u, mu)
            assert len(sols) == want.shape[1], key
            if sols:
                got = np.column_stack([s.coords() for s in sols])
                assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T, 2) < 1e-10, key


def _operator_partner_null_space(u, mu):
    """Oracle: the partner system on operators.  With Y_j = sum_k (e_k u)_j X_k
    and Z_j = sum_k (u e_k)_j X_k, W = sum_c w_c Xhat_c commutes with V as
    W (x) rep(u) exactly when Y_j W = W Z_j for every j: an n^3 x n system
    in w, reduced by one thin QR."""
    n = mu.dim
    a = mu.gns.hopf.algebra
    xhat = mu.rep_dual_basis
    to_hat = mu.dual.to_dual_mat.T
    ys = np.tensordot(np.tensordot(u.coords(), ba.right_mult_tensor(a), axes=(0, 0)) @ to_hat,
                      xhat, axes=(1, 0))
    zs = np.tensordot(np.tensordot(u.coords(), ba.left_mult_tensor(a), axes=(0, 0)) @ to_hat,
                      xhat, axes=(1, 0))
    # Y_j Xhat_c at [j, p, c, q] and Xhat_c Z_j at [c, p, j, q]
    yx = (ys.reshape(n * n, n) @ xhat.transpose(1, 0, 2).reshape(n, n * n)).reshape((n,) * 4)
    xz = (xhat.reshape(n * n, n) @ zs.transpose(1, 0, 2).reshape(n, n * n)).reshape((n,) * 4)
    system = yx.transpose(0, 1, 3, 2) - xz.transpose(2, 1, 3, 0)
    return ba.null_space(np.linalg.qr(system.reshape(n ** 3, n), mode="r"))


def _sin_largest_angle(p, q):
    """Sine of the largest principal angle between the column spans of two
    orthonormal bases of equal dimension."""
    return float(np.linalg.norm(p - q @ (q.conj().T @ p), 2)) if p.shape[1] else 0.0


def _ladder_mus(workbenches, mu_d8, mu_fd8):
    mus = {key: wb.mu for key, wb in workbenches.items()}
    mus.update({"group:dihedral:8": mu_d8, "function:dihedral:8": mu_fd8})
    return mus


def test_dual_coordinate_partner_system_matches_the_operator_one(workbenches, mu_d8, mu_fd8,
                                                                group_likes):
    """The n^2 x n system in the dual's coordinates has the null space of the
    n^3 x n system on operators: the same dimension and principal angles
    below 1e-12, on the 11 workbenches and C[D8], C(D8), for the unit,
    central and Haar unitaries, a non-unitary element and the group-likes,
    one stack per algebra."""
    rng = np.random.default_rng(21)
    dims = set()
    for key, mu in _ladder_mus(workbenches, mu_d8, mu_fd8).items():
        a = mu.gns.hopf.algebra
        us = [a.unit(), ba.random_central_unitary(a, rng), ba.random_unitary(a, rng),
              ba.random_element(a, rng)] + group_likes.get(key, [])
        yz, systems = partner_systems(np.array([u.coords() for u in us]), mu)
        assert systems.shape == (len(us), a.dim ** 2, a.dim), key
        rank, vh = partner_null_spaces(systems)
        for u, r, rows in zip(us, rank, vh):
            want = _operator_partner_null_space(u, mu)
            got = rows[r:].conj().T
            assert got.shape == want.shape, key
            assert _sin_largest_angle(got, want) <= 1e-12, key
            dims.add(got.shape[1])
    assert len(dims) > 2


def _commuting_pairs(mu, rng, count=3):
    """(uhat, u) pairs with uhat (x) u in the commutant of V: u the unit or a
    central unitary, uhat the polar part of a random solution."""
    a = mu.gns.hopf.algebra
    out = []
    for u in [a.unit()] + [ba.random_central_unitary(a, rng) for _ in range(count - 1)]:
        sols = np.column_stack([s.coords() for s in solve_commutant_partner(u, mu)])
        for _ in range(12):
            w = sols @ (rng.standard_normal(sols.shape[1]) + 1j * rng.standard_normal(sols.shape[1]))
            if ba.smallest_svs(mu.dual.hopf.algebra, w) > 1e-6:
                break
        uhat = mu.dual.hopf.algebra.from_coords(w).blockwise(
            lambda s: np.matmul(*np.linalg.svd(s)[::2]))
        out.append((uhat, u))
    return out


def _gram_certificate(mu, pairs):
    uhats = np.array([x.coords() for x, _ in pairs])
    us = np.array([y.coords() for _, y in pairs])
    yz, systems = partner_systems(us, mu)
    return partner_residuals(yz, systems, uhats, us, mu)


def test_gram_certificate_bounds_the_operator_residual(workbenches, mu_d8, mu_fd8):
    """On commuting pairs the Gram-form certificate is at least the
    residual of V itself (commutation_test), and below 1e-11; on Haar pairs
    of the two algebras, which do not commute unless both are commutative,
    it is O(1) and within 1e-12 of that residual, so the certificate can
    fail."""
    rng = np.random.default_rng(22)
    for key, mu in _ladder_mus(workbenches, mu_d8, mu_fd8).items():
        a, ahat = mu.gns.hopf.algebra, mu.dual.hopf.algebra
        pairs = _commuting_pairs(mu, rng)
        got = _gram_certificate(mu, pairs)
        want = np.array([commutation_test(x, y, mu)["residual"] for x, y in pairs])
        assert np.all(got >= want) and got.max() < 1e-11, (key, got, want)
        if a.nblocks == a.dim and ahat.nblocks == ahat.dim:
            continue            # both legs commutative: every pair commutes
        haar = [(ba.random_unitary(ahat, rng), ba.random_unitary(a, rng)) for _ in range(3)]
        got = _gram_certificate(mu, haar)
        want = np.array([commutation_test(x, y, mu)["residual"] for x, y in haar])
        assert np.all(got >= want) and np.all(got - want < 1e-12), (key, got, want)
        assert got.min() > 0.1, (key, got)


def test_gram_certificate_checks_both_legs_for_unitarity(kp):
    pair = _commuting_pairs(kp.mu, np.random.default_rng(23), count=1)[0]
    for uhat, u in ((2.0 * pair[0], pair[1]), (pair[0], 2.0 * pair[1])):
        with pytest.raises(NotUnitary):
            _gram_certificate(kp.mu, [(uhat, u)])


def _commutation_dense(uhat, u, mu):
    """Oracle: the commutator of V with the dense kron(That, T)."""
    big = np.kron(mu.rep_dual(uhat), mu.rep(u))
    return {"residual": float(np.linalg.norm(mu.matrix @ big - big @ mu.matrix))
            / max(1.0, float(np.linalg.norm(mu.matrix)))}


def _haar_operator(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_commutation_test_reads_cached_leg_spans(workbenches, monkeypatch):
    """The report matches the dense formula within 1e-14: for a commuting
    pair, for a Haar pair of the two algebras (which does not commute), and
    for Haar unitaries of the whole space."""
    rng = np.random.default_rng(13)
    for key, wb in workbenches.items():
        mu, n = wb.mu, wb.mu.dim
        u = ba.random_central_unitary(wb.hopf.algebra, rng)
        pairs = [(_aligned_pair(wb, u, rng), u),
                 (ba.random_unitary(wb.dual.hopf.algebra, rng),
                  ba.random_unitary(wb.hopf.algebra, rng))]
        reports = [(commutation_test(x, y, mu), _commutation_dense(x, y, mu)) for x, y in pairs]
        with monkeypatch.context() as m:
            m.setattr(mu, "rep_dual", lambda x, w=_haar_operator(n, rng): w)
            m.setattr(mu, "rep", lambda x, w=_haar_operator(n, rng): w)
            reports.append((commutation_test(*pairs[1], mu), _commutation_dense(*pairs[1], mu)))
        for got, want in reports:
            assert got.keys() == want.keys(), key
            for entry in want:
                assert abs(got[entry] - want[entry]) < 1e-14, (key, entry, got, want)
        assert reports[0][1]["residual"] < 1e-12, key


def _dense_leg_span(mu):
    """Oracle: rank of all second-leg slices (omega (x) id)(V) and the sine of
    the largest principal angle between their span and rep(A), from an SVD
    of the n^2 x n^2 slice matrix (1.0 for unequal dimensions)."""
    n = mu.dim
    slices = mu.matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    rank, qa, _ = ba.numerical_rank(slices.T)
    rank_s, qb, _ = ba.numerical_rank(mu.gns.rep_basis.reshape(n, n * n).T)
    if rank != rank_s:
        return rank, 1.0
    qa, qb = qa[:, :rank], qb[:, :rank]
    return rank, float(np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2))


def test_leg_span_certificate_matches_dense_formula(workbenches):
    for key, wb in workbenches.items():
        rank, distance = _dense_leg_span(wb.mu)
        c = wb.mu.certificates
        assert c["leg_dim_second"] == rank == wb.mu.dim, key
        assert abs(c["second_leg_span_distance"] - distance) < 1e-13, key


def _recording_factorisations(monkeypatch):
    """Record the input shape of every numpy svd, qr, inv and lstsq call."""
    shapes = {"svd": [], "qr": [], "inv": [], "lstsq": []}

    def recording(name, fn):
        def wrapped(mat, *args, **kwargs):
            shapes[name].append(np.shape(mat))
            return fn(mat, *args, **kwargs)
        return wrapped

    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg   # numpy 2 / numpy 1
    for mod in (np.linalg, linalg):
        monkeypatch.setattr(mod, "svd", recording("svd", linalg.svd))
        monkeypatch.setattr(mod, "qr", recording("qr", linalg.qr))
        monkeypatch.setattr(mod, "inv", recording("inv", linalg.inv))
        monkeypatch.setattr(mod, "lstsq", recording("lstsq", linalg.lstsq))
    return shapes


def test_build_factorises_nothing_of_n_squared_size(kp, monkeypatch):
    """The build's svd and qr inputs all have a side shorter than n^2: the
    second-leg certificate no longer factorises the n^2 x n^2 slice matrix."""
    h = group_algebra(by_name("dihedral:6"))
    gns_d6, dual_d6 = build_gns(h), build_dual(h)
    shapes = _recording_factorisations(monkeypatch)
    for gns, dual in ((kp.gns, kp.dual), (gns_d6, dual_d6)):
        n = gns.dim
        shapes["svd"].clear()
        shapes["qr"].clear()
        build_multiplicative_unitary(gns, dual)
        assert shapes["svd"], n
        assert max(min(s[-2:]) for s in shapes["svd"] + shapes["qr"]) < n * n, shapes


def test_build_inverts_nothing_larger_than_n_by_n(monkeypatch):
    """V is built from its Schmidt legs X_q = onb D_q onb^-1 and rep(e_q):
    no inverse of the n^2 x n^2 matrix kron(onb, onb) is taken, and no
    least-squares fit recovers the legs."""
    h = group_algebra(by_name("S4"))
    gns, dual = build_gns(h), build_dual(h)
    shapes = _recording_factorisations(monkeypatch)
    mu = build_multiplicative_unitary(gns, dual)
    assert mu.dim == 24
    assert all(max(s[-2:]) <= mu.dim for s in shapes["inv"]), shapes["inv"]
    assert shapes["lstsq"] == []


def test_leg_inverse_recovers_both_legs(workbenches):
    """leg_inverse on rep_basis and on rep_dual_basis returns the
    coordinates of a represented element, and None for an operator
    orthogonal to the leg's span."""
    rng = np.random.default_rng(15)
    for key, wb in workbenches.items():
        mu, n = wb.mu, wb.mu.dim
        for alg, stack, rep in ((wb.hopf.algebra, mu.gns.rep_basis, mu.rep),
                                (wb.dual.hopf.algebra, mu.rep_dual_basis, mu.rep_dual)):
            x = ba.random_element(alg, rng)
            got = leg_inverse(stack, rep(x))
            assert got is not None and np.abs(got - x.coords()).max() <= 1e-12, key
            flat = stack.reshape(n, n * n).T
            z = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            off = z - flat @ np.linalg.lstsq(flat, z, rcond=None)[0]
            assert leg_inverse(stack, (off / np.linalg.norm(off)).reshape(n, n)) is None, key


def test_commutant_factorises_nothing_above_n_cubed_rows(workbenches, monkeypatch):
    """Neither commutant solver factorises a matrix with more than n^3 rows
    or an SVD input wider than n: the n^2 x n^2 and n^4 x n paths are gone."""
    h = group_algebra(by_name("dihedral:6"))
    d6 = build_multiplicative_unitary(build_gns(h), build_dual(h))
    shapes = _recording_factorisations(monkeypatch)
    rng = np.random.default_rng(14)
    for mu in (workbenches["kp"].mu, d6):
        n = mu.dim
        a, dual = mu.gns.hopf.algebra, mu.dual.hopf.algebra
        shapes["svd"].clear()
        shapes["qr"].clear()
        for u in (a.unit(), ba.random_unitary(a, rng), ba.random_element(a, rng)):
            solve_commutant_partner(u, mu)
        commutation_test(dual.unit(), a.unit(), mu)
        commutation_test(ba.random_unitary(dual, rng), ba.random_unitary(a, rng), mu)
        assert shapes["svd"] and shapes["qr"], n
        assert max(min(s[-2:]) for s in shapes["svd"]) <= n, shapes["svd"]
        assert max(s[-2] for s in shapes["svd"] + shapes["qr"]) <= n ** 3, shapes


def _aligned_pair(wb, u, rng):
    sols = solve_commutant_partner(u, wb.mu)
    span = np.column_stack([s.coords() for s in sols]) if sols else None
    if span is None:
        return None
    for _ in range(12):
        coef = rng.standard_normal(len(sols)) + 1j * rng.standard_normal(len(sols))
        w = wb.dual.hopf.algebra.from_coords(span @ coef)
        if not w.is_invertible(1e-6):
            continue
        blocks = []
        for b in w.blocks:
            uu, _, vh = np.linalg.svd(b)
            blocks.append(uu @ vh)
        cand = wb.dual.hopf.algebra.element(blocks)
        resid, *_ = np.linalg.lstsq(span, cand.coords(), rcond=None)
        if np.linalg.norm(span @ resid - cand.coords()) < 1e-8:
            return cand
    return None


def test_planted_pairs_commute_and_roundtrip(workbenches):
    rng = np.random.default_rng(11)
    for key, wb in workbenches.items():
        u = ba.random_central_unitary(wb.hopf.algebra, rng)
        partner = _aligned_pair(wb, u, rng)
        assert partner is not None, key
        rep = commutation_test(partner, u, wb.mu)
        assert rep["residual"] < 1e-8, key
        big = np.kron(wb.mu.rep_dual(partner), wb.mu.rep(u))
        res = pair_from_commutant(big, wb.mu)
        assert res["commutation_residual"] < 1e-8
        assert res["pairing_invariance"] < 1e-8
        # round trip: the recovered conjugations match the planted ones
        assert res["alpha"].distance_to(
            __import__("fqg.morphisms", fromlist=["AlgebraMap"]).AlgebraMap.ad(u)) < 1e-8


def test_pair_from_commutant_rejects_entangled(kp):
    v = kp.mu.matrix  # commutes with itself but is far from a simple tensor
    with pytest.raises(NotSimpleTensor):
        pair_from_commutant(v, kp.mu)


def test_pair_from_commutant_rejects_noncommuting(kp):
    from fqg.errors import CommutantViolation
    n = kp.mu.dim
    rng = np.random.default_rng(77)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    with pytest.raises(CommutantViolation):
        pair_from_commutant(np.kron(q, q), kp.mu)


def test_fractional_power_full_circle_guard():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    with pytest.raises(SpectrumFullCircle):
        unitary_fractional_power(q, 0.5, min_gap=7.0)


def test_split_simple_tensor_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got_x, got_y = split_simple_tensor(np.kron(x, y), 3)
    assert np.linalg.norm(np.kron(got_x, got_y) - np.kron(x, y)) < 1e-10


# -- fractional powers and paths -----------------------------------------------------

def test_fractional_power_r1_recovers():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    assert np.linalg.norm(unitary_fractional_power(q, 1.0) - q) < 1e-10


def test_fractional_power_tends_to_identity_monotone():
    # spectrum confined away from the cut: the gap branch is the principal
    # one and the distance to the identity decreases monotonically
    rng = np.random.default_rng(10)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    angles = np.array([-1.2, -0.3, 0.4, 1.4])
    u = (q * np.exp(1j * angles)) @ q.conj().T
    prev = np.inf
    for r in (0.8, 0.6, 0.4, 0.2, 0.05):
        dist = np.linalg.norm(unitary_fractional_power(u, r) - np.eye(4), 2)
        assert dist <= prev + 1e-12
        prev = dist
    assert prev < 0.1


def test_fractional_power_limit_for_generic_spectrum():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    assert np.linalg.norm(unitary_fractional_power(q, 0.01) - np.eye(4), 2) < 0.2


def _schur_fractional_power(op, r, min_gap=1e-6):
    """The former Schur-form implementation, kept as an oracle: the angles
    of the diagonal of the complex Schur form, moved into the branch
    (cut - 2 pi, cut] of the cut in the largest gap."""
    vals, vecs = scipy.linalg.schur(op, output="complex")
    angles = np.angle(np.diag(vals))
    sorted_ang = np.sort(angles)
    gaps = np.diff(np.concatenate([sorted_ang, [sorted_ang[0] + 2 * np.pi]]))
    imax = int(np.argmax(gaps))
    if gaps[imax] < min_gap:
        raise SpectrumFullCircle("no usable gap on the unit circle")
    cut = sorted_ang[imax] + gaps[imax] / 2
    shifted = np.where(angles > cut, angles - 2 * np.pi, angles)
    shifted = np.where(shifted <= cut - 2 * np.pi, shifted + 2 * np.pi, shifted)
    powered = np.exp(1j * np.multiply.outer(r, shifted))
    return (vecs * powered[..., None, :]) @ vecs.conj().T


def test_fractional_power_matches_the_schur_formula(workbenches):
    rng = np.random.default_rng(23)
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    cases = []
    for n in (1, 2, 3, 5, 8, 12):                       # Haar-random unitaries
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases.append((np.linalg.qr(z)[0], 1e-6))
    for wb in workbenches.values():                     # repeated eigenvalues
        cases.append((wb.mu.rep(ba.random_central_unitary(wb.hopf.algebra, rng)), 1e-6))
    for n in (3, 6, 9):
        # one gap 1e-3 wider than the others, and min_gap just below it
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        angles = np.linspace(-np.pi, np.pi, n, endpoint=False) + 0.1
        angles[0] -= 1e-3
        gap = 2 * np.pi / n + 1e-3
        cases.append(((q * np.exp(1j * angles)) @ q.conj().T, gap * (1 - 1e-6)))
    for op, min_gap in cases:
        got = unitary_fractional_power(op, radii, min_gap)
        want = _schur_fractional_power(op, radii, min_gap)
        assert np.abs(got - want).max() <= 1e-13
        assert np.array_equal(got[1], unitary_fractional_power(op, 0.5, min_gap))
    with pytest.raises(SpectrumFullCircle):
        unitary_fractional_power(op, 0.5, gap * (1 + 1e-6))


def test_path_commutes_at_sampled_r(workbenches):
    rng = np.random.default_rng(21)
    for key, wb in workbenches.items():
        u = ba.random_central_unitary(wb.hopf.algebra, rng)
        partner = _aligned_pair(wb, u, rng)
        assert partner is not None, key
        for r in (0.25, 0.5, 0.75, 1.0):
            _, _, resid = path_in_commutant(partner, u, wb.mu, r)
            assert resid < 1e-8, (key, r)


def test_path_radii_share_one_eigh_per_factor(workbenches, monkeypatch):
    """All radii from one call: one Hermitian eigendecomposition per factor,
    and each residual within round-off of the per-radius Kronecker
    commutator."""
    rng = np.random.default_rng(22)
    radii = (0.25, 0.5, 0.75, 1.0)
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    for key, wb in workbenches.items():
        mu = wb.mu
        u = ba.random_central_unitary(wb.hopf.algebra, rng)
        pairs = [(_aligned_pair(wb, u, rng), u),
                 (ba.random_unitary(wb.dual.hopf.algebra, rng),
                  ba.random_unitary(wb.hopf.algebra, rng))]
        for uhat, v in pairs:
            calls.clear()
            t_hats, ts, resids = path_in_commutant(uhat, v, mu, radii)
            assert len(calls) == 2, key
            assert t_hats.shape == ts.shape == (4, mu.dim, mu.dim)
            for k, r in enumerate(radii):
                t_hat, t, resid = path_in_commutant(uhat, v, mu, r)
                assert isinstance(resid, float)
                assert np.array_equal(t_hat, t_hats[k]) and np.array_equal(t, ts[k]), key
                big = np.kron(t_hat, t)
                want = (np.linalg.norm(mu.matrix @ big - big @ mu.matrix)
                        / max(1.0, np.linalg.norm(mu.matrix)))
                assert abs(resids[k] - want) <= 1e-15 * max(1.0, want), (key, r)
                assert abs(resid - resids[k]) <= 1e-15 * max(1.0, want), (key, r)


def test_norm_of_v_is_cached(kp):
    assert kp.mu.norm is kp.mu.norm
    assert kp.mu.norm == float(np.linalg.norm(kp.mu.matrix))
