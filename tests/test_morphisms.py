import numpy as np
import pytest
import scipy.linalg

from fqg import blockalg as ba
from fqg import morphisms
from fqg.blockalg import DEFAULT_TOL, AlgebraElement, BlockAlgebra, spectrum
from fqg.errors import (NeitherAutoNorAnti, NotBlockPreserving,
                        PreconditionFailed)
from fqg.groups import by_name, cyclic, symmetric
from fqg.hopf import cocentre_basis, group_algebra, ksymmetric_basis
from fqg.morphisms import (AlgebraMap, classify_map, dual_sandwich,
                           hopf_flags_fast, induced_dual_action,
                           inner_implementer, per_block_jordan_decomposition,
                           perturbation_inverse_residual, proposition_pipeline)
from tensor_maps import tensor_map

RNG = np.random.default_rng(31337)


def _lam(wb, g):
    phi = wb.hopf.meta["group_basis"]
    return wb.hopf.algebra.from_coords(phi[:, g])


def _random_ksym_cocentre_commuting(wb, rng, need_fourier_invertible=True):
    """Seeded invertible kappa-symmetric element commuting with the cocentre,
    drawn from the real solution space of those two linear conditions."""
    span = ba.null_space(wb.model.constant_stack)
    for _ in range(200):
        v = wb.hopf.algebra.from_coords(
            ba.real_vec_to_coords(span @ rng.standard_normal(span.shape[1])))
        if not v.is_invertible(1e-3):
            continue
        if need_fourier_invertible:
            if wb.dual.fourier(v).smallest_sv() < 1e-3:
                continue
            if wb.dual.fourier(ba.invert(v)).smallest_sv() < 1e-3:
                continue
        return v
    return None


# -- classify_map ---------------------------------------------------------------

def test_identity_has_all_structure_flags(gs3):
    rep = classify_map(AlgebraMap.identity(gs3.hopf.algebra), gs3.hopf, gs3.hopf)
    f = rep["flags"]
    for name in ["multiplicative", "star_preserving", "unital", "positive",
                 "jordan", "hopf", "centre_fixing", "cocentre_fixing", "bijective"]:
        assert f[name], name


def test_transpose_is_jordan_not_multiplicative(gs3):
    tr = AlgebraMap.blockwise_transpose(gs3.hopf.algebra)
    rep = classify_map(tr, gs3.hopf, gs3.hopf)
    f = rep["flags"]
    assert f["jordan"] and f["anti_multiplicative"] and f["positive"]
    assert not f["multiplicative"]


def test_group_conjugation_is_hopf_automorphism(gs3):
    adl = AlgebraMap.ad(_lam(gs3, 1))
    rep = classify_map(adl, gs3.hopf, gs3.hopf)
    f = rep["flags"]
    assert f["multiplicative"] and f["star_preserving"] and f["hopf"]
    assert hopf_flags_fast(adl, gs3.hopf)


def test_classify_flags_backed_by_residuals(gs3):
    tr = AlgebraMap.blockwise_transpose(gs3.hopf.algebra)
    rep = classify_map(tr, gs3.hopf, gs3.hopf)
    assert rep["residuals"]["anti_multiplicative"] < 1e-12
    assert rep["residuals"]["multiplicative"] > 1e-3


def _hom_loop_oracle(phi):
    """The pair loops classify_map ran before its residuals came from
    blockalg.hom_residuals, kept as the oracle."""
    basis = [phi.source.basis_element(k) for k in range(phi.source.dim)]
    img = [phi(b) for b in basis]
    wm = wa = wj = 0.0
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            lhs = phi(x * y)
            wm = max(wm, (lhs - img[i] * img[j]).norm())
            wa = max(wa, (lhs - img[j] * img[i]).norm())
            jor = phi(x * y + y * x)
            wj = max(wj, (jor - (img[i] * img[j] + img[j] * img[i])).norm())
    star = max((phi(b.adjoint()) - img[k].adjoint()).norm() for k, b in enumerate(basis))
    return {"multiplicative": wm, "anti_multiplicative": wa, "jordan": wj,
            "star_preserving": star,
            "unital": (phi(phi.source.unit()) - phi.target.unit()).norm()}


def _positivity_family_loop(a, rng):
    """classify_map's former positivity family: b*b for b = e_k, e_k + e_{k+1}
    and e_k + i e_{k+1}, then 24 seeded random elements, one product at a time."""
    basis = [a.basis_element(k) for k in range(a.dim)]
    fam = []
    for i, x in enumerate(basis):
        y = basis[(i + 1) % a.dim]
        fam += [x.adjoint() * x, (x + y).adjoint() * (x + y),
                (x + 1j * y).adjoint() * (x + 1j * y)]
    return fam + [b.adjoint() * b for b in (ba.random_element(a, rng) for _ in range(24))]


def _positivity_loop_oracle(phi, seed=0xC1A):
    """classify_map's former positivity residual: one map application and one
    eigenvalue solve per block at a time."""
    pos = 0.0
    for p in _positivity_family_loop(phi.source, np.random.default_rng(seed)):
        fp = phi(p)
        low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in fp.blocks)
        pos = max(pos, (fp - fp.adjoint()).norm(), max(0.0, -low))
    return pos


def _oracle_maps(a, rng):
    perturbed = np.eye(a.dim) + 1e-3 * rng.standard_normal((a.dim, a.dim))
    return {"identity": AlgebraMap.identity(a),
            "transpose": AlgebraMap.blockwise_transpose(a),
            "ad_unitary": AlgebraMap.ad(ba.random_unitary(a, rng)),
            "perturbed": AlgebraMap(a, a, perturbed)}


def _hopf_kron_oracle(phi, h):
    """classify_map's former Hopf residuals, through the n^2 x n^2 matrix of
    phi (x) phi."""
    lhs = h.coproduct @ phi.matrix
    rhs = tensor_map(phi.matrix, phi.matrix, h.perm2, h.perm2) @ h.coproduct
    scale = max(1.0, np.linalg.norm(lhs))
    return {"hopf": float(np.linalg.norm(lhs - rhs)) / scale,
            "co_anti_hopf": float(np.linalg.norm(lhs - rhs[h.flip, :])) / scale}


def test_classify_map_matches_the_pair_loops(workbenches):
    rng = np.random.default_rng(77)
    thresh = DEFAULT_TOL.eq_tol * 100
    for key, wb in workbenches.items():
        a = wb.hopf.algebra
        # x -> -x is *-preserving and far from positive: its positivity
        # residual is the largest eigenvalue over the whole family
        maps = {**_oracle_maps(a, rng), "negated": AlgebraMap(a, a, -np.eye(a.dim))}
        for name, phi in maps.items():
            rep = classify_map(phi, wb.hopf, wb.hopf)
            want = {**_hom_loop_oracle(phi), **_hopf_kron_oracle(phi, wb.hopf),
                    "positive": _positivity_loop_oracle(phi)}
            for k, w in want.items():
                assert abs(rep["residuals"][k] - w) <= 1e-13, (key, name, k)
                assert rep["flags"][k] == (w < thresh), (key, name, k)


def test_positivity_family_matches_the_element_loop(workbenches):
    for seed, wb in enumerate(workbenches.values()):
        a = wb.hopf.algebra
        got = morphisms._positivity_family(a, np.random.default_rng(seed))
        want = np.array([p.coords() for p in _positivity_family_loop(a, np.random.default_rng(seed))])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_hopf_flags_fast_refuses_each_failed_condition():
    """On a coproduct every map intertwines (zero), bijectivity and each
    *-homomorphism condition decide alone (a bijective multiplicative map
    is unital, so the unit check cannot fail alone)."""
    from fqg.hopf import HopfAlgebra
    a = BlockAlgebra((1, 2))
    h = HopfAlgebra(a, np.zeros((a.dim ** 2, a.dim)), np.zeros(a.dim), np.eye(a.dim),
                    np.zeros(a.dim))
    g = a.element([np.eye(1), np.array([[1.0, 1.0], [0.0, 1.0]])])
    assert hopf_flags_fast(AlgebraMap.identity(a), h)
    assert not hopf_flags_fast(AlgebraMap.ad(g), h)                  # star only
    assert not hopf_flags_fast(AlgebraMap.blockwise_transpose(a), h)  # multiplicative only
    assert not hopf_flags_fast(AlgebraMap(a, a, np.zeros((a.dim, a.dim))), h)  # singular


def test_hopf_flags_fast_agrees_with_classify_map(workbenches):
    rng = np.random.default_rng(78)
    for key, wb in workbenches.items():
        for name, phi in _oracle_maps(wb.hopf.algebra, rng).items():
            f = classify_map(phi, wb.hopf, wb.hopf)["flags"]
            want = f["bijective"] and f["multiplicative"] and f["star_preserving"] \
                and f["unital"] and f["hopf"]
            assert hopf_flags_fast(phi, wb.hopf) == want, (key, name)


# -- per-block tagging ------------------------------------------------------------

def test_transpose_tags_anti_on_matrix_blocks(gs3):
    tr = AlgebraMap.blockwise_transpose(gs3.hopf.algebra)
    tags, _ = per_block_jordan_decomposition(tr)
    assert tags == ["auto", "auto", "anti"]  # 1x1 blocks are both; auto wins


def test_mixed_ad_and_transpose_tags():
    a = BlockAlgebra((2, 2))
    u = ba.random_unitary(a, RNG)
    ad = AlgebraMap.ad(u)
    tr = AlgebraMap.blockwise_transpose(a)
    mixed = np.zeros((8, 8), complex)
    mixed[:4, :4] = ad.matrix[:4, :4]
    mixed[4:, 4:] = tr.matrix[4:, 4:]
    tags, _ = per_block_jordan_decomposition(AlgebraMap(a, a, mixed))
    assert tags == ["auto", "anti"]


def test_block_swap_is_not_block_preserving():
    a = BlockAlgebra((2, 2))
    swap = np.zeros((8, 8))
    swap[:4, 4:] = np.eye(4)
    swap[4:, :4] = np.eye(4)
    with pytest.raises(NotBlockPreserving):
        per_block_jordan_decomposition(AlgebraMap(a, a, swap))


def test_neither_auto_nor_anti_detected():
    a = BlockAlgebra((2,))
    # unital block-preserving bijection that is no Jordan map: scales both
    # off-diagonal matrix units by 2
    m = np.diag([1.0, 2.0, 2.0, 1.0])
    with pytest.raises(NeitherAutoNorAnti):
        per_block_jordan_decomposition(AlgebraMap(a, a, m))


def test_dual_sandwich_per_block_tags(kp):
    # conjugation by the order-two generator x: a genuine nontrivial Hopf
    # automorphism of the Kac-Paljutkin algebra
    from fqg.kacpaljutkin import _generators
    x, _, _ = _generators(kp.hopf.algebra)
    sw, _, _ = dual_sandwich(x, kp.dual)
    tags, residuals = per_block_jordan_decomposition(sw)
    assert len(tags) == 5
    assert max(residuals) < 1e-9
    assert not AlgebraMap.ad(x).is_identity()


def test_per_block_dichotomy_fails_off_the_unitary_locus(kp):
    """Counterexample kept as a regression anchor: an invertible
    kappa-symmetric cocentre-commuting element whose dual sandwich is
    neither multiplicative nor anti-multiplicative on the matrix block.
    The positivity that the block classification relies on genuinely fails
    here (the sandwich moves spectra), so the error is the correct verdict."""
    c = kp.hopf.algebra.element([np.eye(1)] * 4 + [np.diag([2.0, 1.0])])
    assert kp.hopf.ksym_defect(c) < 1e-12
    assert all((c * z - z * c).norm() < 1e-12 for z in kp.model.cocentre)
    sw, _, _ = dual_sandwich(c, kp.dual)
    with pytest.raises(NeitherAutoNorAnti):
        per_block_jordan_decomposition(sw)


def _per_block_loop_oracle(phi):
    """per_block_jordan_decomposition's former n_b^4 pair loop: per block the
    tag and residual, or (None, (wm, wa)) where it raised NeitherAutoNorAnti."""
    a, thresh = phi.source, DEFAULT_TOL.eq_tol * 100
    out = []
    for off, nb in zip(a.offsets, a.block_dims):
        sl = slice(off, off + nb * nb)
        sub = phi.matrix[sl, sl]
        leak = float(np.linalg.norm(phi.matrix[:, sl])) ** 2 - float(np.linalg.norm(sub)) ** 2
        leak = np.sqrt(max(leak, 0.0))
        mblock = BlockAlgebra((nb,))
        sub_map = AlgebraMap(mblock, mblock, sub)
        basis = [mblock.basis_element(k) for k in range(nb * nb)]
        img = [sub_map(x) for x in basis]
        wm = wa = 0.0
        for i in range(nb * nb):
            for j in range(nb * nb):
                lhs = sub_map(basis[i] * basis[j])
                wm = max(wm, (lhs - img[i] * img[j]).norm())
                wa = max(wa, (lhs - img[j] * img[i]).norm())
        wm, wa = max(wm, leak), max(wa, leak)
        out.append(("auto", wm) if wm < thresh else ("anti", wa) if wa < thresh
                   else (None, (wm, wa)))
    return out


def test_per_block_tags_match_the_pair_loop(workbenches):
    rng = np.random.default_rng(79)
    from fqg.kacpaljutkin import _generators
    kp = workbenches["kp"]
    maps = [dual_sandwich(_generators(kp.hopf.algebra)[0], kp.dual)[0],
            dual_sandwich(kp.hopf.algebra.element([np.eye(1)] * 4 + [np.diag([2.0, 1.0])]),
                          kp.dual)[0],
            AlgebraMap(BlockAlgebra((2,)), BlockAlgebra((2,)), np.diag([1.0, 2.0, 2.0, 1.0]))]
    for wb in workbenches.values():
        for a in (wb.hopf.algebra, wb.dual.hopf.algebra):
            maps += [m for name, m in _oracle_maps(a, rng).items() if name != "perturbed"]
    for phi in maps:
        want = _per_block_loop_oracle(phi)
        if any(tag is None for tag, _ in want):
            with pytest.raises(NeitherAutoNorAnti):
                per_block_jordan_decomposition(phi)
            continue
        tags, residuals = per_block_jordan_decomposition(phi)
        assert tags == [tag for tag, _ in want]
        assert np.abs(np.array(residuals) - [r for _, r in want]).max() <= 1e-13


# -- induced dual action -----------------------------------------------------------

def test_induced_dual_action_of_identity(gs3):
    ih = induced_dual_action(AlgebraMap.identity(gs3.hopf.algebra), gs3.dual)
    assert ih.is_identity()


def test_induced_dual_action_pairing_invariance(gs3):
    adl = AlgebraMap.ad(_lam(gs3, 2))
    ah = induced_dual_action(adl, gs3.dual)
    for _ in range(10):
        x = ba.random_element(gs3.hopf.algebra, RNG)
        yh = ba.random_element(gs3.dual.hopf.algebra, RNG)
        assert abs(gs3.dual.pairing(adl(x), ah(yh)) - gs3.dual.pairing(x, yh)) < 1e-10


def test_induced_dual_action_is_hopf_automorphism(gs3):
    adl = AlgebraMap.ad(_lam(gs3, 1))
    ah = induced_dual_action(adl, gs3.dual)
    rep = classify_map(ah, gs3.dual.hopf, gs3.dual.hopf)
    f = rep["flags"]
    assert f["multiplicative"] and f["star_preserving"] and f["hopf"]


def test_induced_dual_action_group_oracle(gs3):
    """On C(G) the dual of Ad(lam_h) acts by f -> f(h^{-1} . h)."""
    g = symmetric(3)
    hh = 1
    adl = AlgebraMap.ad(_lam(gs3, hh))
    ah = induced_dual_action(adl, gs3.dual)
    # dual basis elements correspond to evaluations; check on the pairing
    for s in range(6):
        x = _lam(gs3, s)
        for k in range(6):
            ehat = gs3.dual.hopf.algebra.basis_element(k)
            lhs = gs3.dual.pairing(x, ah(ehat))
            rhs = gs3.dual.pairing(_lam(gs3, g.mul(g.mul(g.inv(hh), s), hh)), ehat)
            assert abs(lhs - rhs) < 1e-9


def test_composition_convention_covariant(gs3):
    """With the pairing-invariance definition, (alpha o beta)^ = alpha^ o beta^."""
    a1 = AlgebraMap.ad(_lam(gs3, 1))
    a2 = AlgebraMap.ad(_lam(gs3, 2))
    lhs = induced_dual_action(a1.compose(a2), gs3.dual)
    rhs = induced_dual_action(a1, gs3.dual).compose(induced_dual_action(a2, gs3.dual))
    assert lhs.distance_to(rhs) < 1e-10


# -- dual sandwich ------------------------------------------------------------------

def test_dual_sandwich_unit_is_identity(kp):
    sw, a, b = dual_sandwich(kp.hopf.algebra.unit(), kp.dual)
    assert sw.is_identity()


def test_dual_sandwich_matches_induced_action(gs3):
    c = _lam(gs3, 1)
    sw, a, b = dual_sandwich(c, gs3.dual)
    ah = induced_dual_action(AlgebraMap.ad(c), gs3.dual)
    assert sw.distance_to(ah) < 1e-10
    # a and b are the Fourier images
    assert (a - gs3.dual.fourier(c)).norm() < 1e-12
    assert (b - gs3.dual.fourier(ba.invert(c))).norm() < 1e-12


def test_dual_sandwich_preserves_selfadjoint_invertibles(kp):
    rng = np.random.default_rng(8)
    c = _random_ksym_cocentre_commuting(kp, rng)
    sw, fc, fcinv = dual_sandwich(c, kp.dual)
    assert fc.is_selfadjoint() and fcinv.is_selfadjoint()
    for _ in range(20):
        y = ba.random_selfadjoint_invertible(kp.dual.hopf.algebra, rng)
        im = sw(y)
        assert (im - im.adjoint()).norm() < 1e-9
        assert im.smallest_sv() > 1e-8


# -- inner implementers ---------------------------------------------------------------

def test_inner_implementer_identity():
    a = BlockAlgebra((2, 3))
    u = inner_implementer(AlgebraMap.identity(a))
    assert u.allclose(a.unit())


def test_inner_implementer_recovers_planted_unitary():
    a = BlockAlgebra((2, 3))
    w = ba.random_unitary(a, RNG)
    u = inner_implementer(AlgebraMap.ad(w))
    for k in range(a.dim):
        x = a.basis_element(k)
        assert (u * x * u.adjoint() - w * x * w.adjoint()).norm() < 1e-9
    # equality up to a per-block phase
    for bu, bw in zip(u.blocks, w.blocks):
        ratio = bu @ np.linalg.inv(bw)
        ph = ratio[0, 0]
        assert abs(abs(ph) - 1) < 1e-9
        assert np.linalg.norm(ratio - ph * np.eye(len(bu))) < 1e-9


def test_inner_implementer_none_for_block_swap():
    a = BlockAlgebra((2, 2))
    swap = np.zeros((8, 8))
    swap[:4, 4:] = np.eye(4)
    swap[4:, :4] = np.eye(4)
    assert inner_implementer(AlgebraMap(a, a, swap)) is None


def test_inner_implementer_none_for_transpose():
    a = BlockAlgebra((2,))
    assert inner_implementer(AlgebraMap.blockwise_transpose(a)) is None


def _ad_loop(u):
    """Oracle: Ad(u) column by column, u e_k u^-1 for every matrix unit."""
    a = u.algebra
    uinv = ba.invert(u)
    return np.column_stack([(u * a.basis_element(k) * uinv).coords()
                            for k in range(a.dim)])


def _inner_implementer_loop(alpha, tol=DEFAULT_TOL):
    """Oracle: the intertwiner system built row by row from the matrix units
    of each block, then the same unitarisation and phase rule."""
    a = alpha.source
    for p in a.central_projections():
        if (alpha(p) - p).norm() > tol.eq_tol * 1e3:
            return None
    blocks = []
    for off, nb in zip(a.offsets, a.block_dims):
        sl = slice(off, off + nb * nb)
        mblock = BlockAlgebra((nb,))
        sub_map = AlgebraMap(mblock, mblock, alpha.matrix[sl, sl])
        rows = []
        for k in range(nb * nb):
            x = mblock.basis_element(k)
            rows.append(np.kron(sub_map(x).blocks[0], np.eye(nb))
                        - np.kron(np.eye(nb), x.blocks[0].T))
        _, sv, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
        if int(np.sum(sv <= 1e-9 * max(1.0, sv[0]))) == 0:
            return None
        u = vh.conj().T[:, -1].reshape(nb, nb)
        uu = u.conj().T @ u
        scale = np.trace(uu).real / nb
        if scale <= tol.inv_tol or np.linalg.norm(uu - scale * np.eye(nb)) > 1e-7 * scale * nb:
            return None
        u = u / np.sqrt(scale)
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        blocks.append(u * (np.abs(u[idx]) / u[idx]))
    u_el = AlgebraElement(a, blocks)
    residual = max((alpha(x) - u_el * x * u_el.adjoint()).norm()
                   for x in (a.basis_element(k) for k in range(a.dim)))
    return None if residual > tol.eq_tol * 1e3 else u_el


def _algebras(workbenches):
    out = [BlockAlgebra((2, 3)), BlockAlgebra((1, 3, 1, 2))]
    for wb in workbenches.values():
        out += [wb.hopf.algebra, wb.dual.hopf.algebra]
    return out


def test_ad_matches_per_basis_loop(workbenches):
    rng = np.random.default_rng(41)
    for a in _algebras(workbenches):
        for u in (ba.random_unitary(a, rng), ba.random_positive_invertible(a, rng, 0.5)):
            got = AlgebraMap.ad(u).matrix
            want = _ad_loop(u)
            assert np.linalg.norm(got - want) < 1e-13 * max(1.0, np.linalg.norm(want))


def _same_implementer(alpha):
    got, want = inner_implementer(alpha), _inner_implementer_loop(alpha)
    assert (got is None) == (want is None)
    if got is not None:
        assert max(np.abs(g - w).max() for g, w in zip(got.blocks, want.blocks)) < 1e-13
    return got


def test_inner_implementer_matches_per_basis_loop(workbenches):
    rng = np.random.default_rng(42)
    for a in _algebras(workbenches):
        assert _same_implementer(AlgebraMap.identity(a)) is not None
        for _ in range(2):
            assert _same_implementer(AlgebraMap.ad(ba.random_unitary(a, rng))) is not None
        _same_implementer(AlgebraMap.blockwise_transpose(a))
    # the induced dual actions the bi-inner harness asks about: group
    # conjugations on C[S3] (dual action not inner) and central unitaries
    gs3 = workbenches["group:S3"]
    for g in range(6):
        alpha = AlgebraMap.ad(_lam(gs3, g))
        _same_implementer(induced_dual_action(alpha, gs3.dual, check=False))
    for wb in workbenches.values():
        alpha = AlgebraMap.ad(ba.random_central_unitary(wb.hopf.algebra, rng))
        assert _same_implementer(induced_dual_action(alpha, wb.dual, check=False)) \
            is not None


def test_inner_implementer_refusals_match_per_basis_loop(gs3):
    # a block-permuting map and a non-unitary intertwiner both give None
    a = BlockAlgebra((2, 1, 2))
    perm = np.arange(a.dim)
    perm[:4], perm[5:] = np.arange(5, 9), np.arange(4)
    swap = AlgebraMap(a, a, np.eye(a.dim)[perm])
    assert inner_implementer(swap) is None and _inner_implementer_loop(swap) is None
    w = ba.random_positive_invertible(gs3.hopf.algebra, np.random.default_rng(43))
    ad_w = AlgebraMap.ad(w)
    assert inner_implementer(ad_w) is None and _inner_implementer_loop(ad_w) is None


def test_sandwich_matrix_matches_block_diag(workbenches, kp):
    """The per-size scatter equals scipy's block_diag of the per-block
    Kronecker products, entry for entry; kp (x) kp has blocks of one size
    that are not adjacent."""
    rng = np.random.default_rng(44)
    algebras = _algebras(workbenches) + [ba.tensor_algebra(kp.hopf.algebra, kp.hopf.algebra)]
    for a in algebras:
        left, right = ba.random_element(a, rng), ba.random_unitary(a, rng)
        want = scipy.linalg.block_diag(*[np.kron(lb, rb.T)
                                         for lb, rb in zip(left.blocks, right.blocks)])
        got = morphisms._sandwich_matrix(a, left.coords(), right.coords())
        assert got.tobytes() == want.tobytes()


def test_inner_implementer_refuses_a_block_without_intertwiner(monkeypatch):
    """C[D8] has three 2x2 blocks; a map that is the identity on two of them
    and the transpose on the third has no intertwiner on the third, so the
    implementer refuses there, before any 2x2 intertwiner is unitarised or a
    residual is formed."""
    a = group_algebra(by_name("dihedral:8")).algebra
    assert a.block_dims.count(2) == 3
    m = np.eye(a.dim, dtype=complex)
    third = a.layout.by_size[2][2]
    m[np.ix_(third.reshape(-1), third.reshape(-1))] = np.eye(4)[[0, 2, 1, 3]]
    seen = []
    unitarise, sandwich = morphisms._unitary_intertwiners, morphisms._sandwich_matrix
    monkeypatch.setattr(morphisms, "_unitary_intertwiners",
                        lambda u, tol: seen.append(u.shape[-1]) or unitarise(u, tol))
    monkeypatch.setattr(morphisms, "_sandwich_matrix",
                        lambda *args: seen.append("residual") or sandwich(*args))
    assert inner_implementer(AlgebraMap(a, a, m)) is None
    assert seen == [1]


def test_inner_implementer_refuses_a_leak_between_blocks():
    """Ad(u) on C + M_2 with e_{1,0,1} leaking into the 1x1 block: the block
    units stay fixed and every diagonal block has a unitary intertwiner, so
    only the final residual gate sees that the map is not Ad(u)."""
    a = BlockAlgebra((1, 2))
    m = AlgebraMap.ad(ba.random_unitary(a, np.random.default_rng(5))).matrix
    m[0, 2] += 0.5
    ok, coords = morphisms.inner_implementers(m[None], a)
    assert not ok[0] and not coords.any()
    assert inner_implementer(AlgebraMap(a, a, m)) is None


# -- proposition pipeline ---------------------------------------------------------------

def test_pipeline_unit_is_hopf_auto(workbenches):
    for wb in workbenches.values():
        res = proposition_pipeline(wb.hopf.algebra.unit(), wb.hopf, wb.dual)
        assert res.verdict == "hopf_auto"


def test_pipeline_central_ksymmetric_gives_identity(gs3):
    # invertible kappa-symmetric central element of C[S3]
    h = gs3.hopf
    zs = h.algebra.central_projections()
    v = 1.0 * zs[0] + 2.0 * zs[1] + 0.5 * zs[2]
    assert h.ksym_defect(v) < 1e-9
    res = proposition_pipeline(v, h, gs3.dual)
    assert res.verdict == "hopf_auto"
    assert AlgebraMap.ad(v).is_identity()


def test_pipeline_rejects_bad_inputs(gs3):
    with pytest.raises(PreconditionFailed):
        proposition_pipeline(_lam(gs3, 1), gs3.hopf, gs3.dual)  # not cocentre-fixing


def test_pipeline_perturbation_branch_z2(gz2):
    # v = lam_1 has singular Fourier image: the perturbation branch runs
    v = _lam(gz2, 1)
    res = proposition_pipeline(v, gz2.hopf, gz2.dual)
    assert res.perturbed and res.epsilon_used is not None
    assert res.verdict == "hopf_auto"


def test_pipeline_on_unitary_group_elements(kp):
    """Kappa-symmetric unitaries commuting with the cocentre (the sign
    patterns of the group model) classify cleanly."""
    for z in kp.model.sign_patterns[:8]:
        v = kp.hopf.algebra.from_coords(z)
        res = proposition_pipeline(v, kp.hopf, kp.dual)
        assert res.verdict == "hopf_auto"
        rep = classify_map(AlgebraMap.ad(v), kp.hopf, kp.hopf)
        assert rep["flags"]["hopf"]


def test_pipeline_surfaces_dichotomy_failure(kp):
    """For the counterexample element the claimed automorphism/co-anti
    dichotomy does not hold; the pipeline refuses to classify instead of
    picking a side."""
    from fqg.errors import ClassificationUnstable
    v = kp.hopf.algebra.element([np.eye(1)] * 4 + [np.diag([2.0, 1.0])])
    with pytest.raises((ClassificationUnstable, NeitherAutoNorAnti)):
        proposition_pipeline(v, kp.hopf, kp.dual)


# -- perturbation identity -----------------------------------------------------------

def test_perturbation_inverse_identity(workbenches):
    rng = np.random.default_rng(61)
    for wb in workbenches.values():
        for _ in range(10):
            v = ba.random_element(wb.hopf.algebra, rng)
            if not v.is_invertible(1e-4):
                continue
            for eps in (1e-3, 1e-6):
                assert perturbation_inverse_residual(v, wb.hopf, eps) < 1e-9


def test_norm_limit_is_exact(workbenches):
    """Ad(v + eps j) converges to Ad(v); in fact the convergence is exact at
    every eps, because v + eps j = v (1 + eps phi(v)^{-1} j) and the
    correction is central.  This beats the linear rate the limit argument
    asks for."""
    from fqg.hopf import counit_support
    rng = np.random.default_rng(3)
    for wb in [workbenches["kp"], workbenches["group:S3"]]:
        v = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
        j = counit_support(wb.hopf).element
        ad_v = AlgebraMap.ad(v)
        for e in (1e-3, 5e-4, 2.5e-4):
            assert AlgebraMap.ad(v + e * j).distance_to(ad_v) < 1e-10


# -- Kadison-Schwartz bimodule property ------------------------------------------------

def _qualifying_maps(wb, rng):
    maps = [AlgebraMap.identity(wb.hopf.algebra),
            AlgebraMap.blockwise_transpose(wb.hopf.algebra),
            AlgebraMap.ad(ba.random_unitary(wb.hopf.algebra, rng))]
    out = []
    for m in maps:
        rep = classify_map(m, wb.hopf, wb.hopf)
        f = rep["flags"]
        if not (f["unital"] and f["positive"] and f["bijective"]):
            continue
        inv = m.inverse()
        rep_inv = classify_map(inv, wb.hopf, wb.hopf)
        if not rep_inv["flags"]["positive"]:
            continue
        # centre bijectivity: the map permutes the central projections' span
        zs = wb.hopf.algebra.central_projections()
        span = np.column_stack([z.coords() for z in zs])
        img = np.column_stack([m(z).coords() for z in zs])
        resid = np.linalg.lstsq(span, img, rcond=None)[1]
        if resid.size and float(np.max(resid)) > 1e-16:
            continue
        out.append(m)
    return out


def test_bimodule_over_centre(workbenches):
    rng = np.random.default_rng(17)
    for key, wb in workbenches.items():
        for m in _qualifying_maps(wb, rng):
            zs = wb.hopf.algebra.central_projections()
            for _ in range(10):
                a = ba.random_element(wb.hopf.algebra, rng)
                z = wb.hopf.algebra.zero()
                for c, p in zip(rng.standard_normal(len(zs)), zs):
                    z = z + complex(c) * p
                assert (m(a * z) - m(a) * m(z)).norm() < 1e-8, key


def test_squares_forced_equal(workbenches):
    """For qualifying maps, phi(b^2) = phi(b)^2 on self-adjoint b."""
    rng = np.random.default_rng(23)
    for wb in [workbenches["group:S3"], workbenches["kp"]]:
        for m in _qualifying_maps(wb, rng):
            if not m.flags["flags"]["multiplicative"] and \
               not m.flags["flags"]["anti_multiplicative"]:
                continue
            b = ba.random_selfadjoint(wb.hopf.algebra, rng)
            assert (m(b * b) - m(b) * m(b)).norm() < 1e-8


def test_pipeline_result_serialises(gz2):
    import json
    res = proposition_pipeline(_lam(gz2, 1), gz2.hopf, gz2.dual)
    doc = res.to_dict()
    json.dumps(doc)
    assert doc["verdict"] == "hopf_auto" and doc["perturbed"]
