"""The numerical-rank primitive and the per-site rules it replaced.

Every rank and null-space decision goes through blockalg.numerical_rank.
The rules it replaced (relative thresholds 1e-10, 1e-9 and 1e-8, and an
absolute np.linalg.matrix_rank(tol=1e-8)) are kept here only as oracles:
on the bundled workbenches they decide every dimension and verdict the same
way, because no singular value comes anywhere near a threshold.
"""

import numpy as np

from fqg import blockalg as ba
from fqg.biinner import build_group_model
from fqg.duality import Functional, build_dual
from fqg.errors import NonUniqueHaar
from fqg.groups import by_name
from fqg.hopf import cocentre_basis, compute_haar, group_algebra, ksymmetric_basis
from fqg.morphisms import AlgebraMap, induced_dual_action, inner_implementer
from fqg.multunitary import (build_multiplicative_unitary, fixed_and_cofixed,
                             solve_commutant_partner)

RNG = np.random.default_rng(2718)


def _planted(shape, sv, rng=RNG):
    """Real matrix of the given shape with singular values sv (zero-padded)."""
    m, n = shape
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros(shape)
    s[np.arange(len(sv)), np.arange(len(sv))] = sv
    return q1 @ s @ q2.T


def _assert_null_basis(mat, null, dim):
    assert null.shape == (mat.shape[1], dim)
    assert np.allclose(null.conj().T @ null, np.eye(dim), atol=1e-12)
    assert np.linalg.norm(mat @ null) < 1e-12 * max(1.0, np.linalg.norm(mat))


# -- the primitive ---------------------------------------------------------------------

def test_numerical_rank_of_a_tall_matrix():
    mat = _planted((7, 4), [3.0, 2.0, 0.5])
    rank, u, vh = ba.numerical_rank(mat)
    assert rank == 3 and isinstance(rank, int)
    assert u.shape == (7, 4) and vh.shape == (4, 4)
    assert np.allclose((u * np.linalg.svd(mat, compute_uv=False)) @ vh, mat)
    _assert_null_basis(mat, ba.null_space(mat), 1)


def test_null_space_pads_wide_matrices():
    real = _planted((2, 5), [4.0, 1.0])
    cplx = real + 1j * _planted((2, 5), [2.0, 0.3])
    for mat in (real, cplx):
        assert ba.numerical_rank(mat)[0] == 2
        # the thin SVD of the unpadded 2 x 5 matrix has only two right vectors
        _assert_null_basis(mat, ba.null_space(mat), 3)
    assert ba.null_space(real).dtype == np.float64
    assert ba.null_space(cplx).dtype == np.complex128


def test_numerical_rank_of_a_stack_floors_each_matrix_on_its_own():
    svs = ([5.0, 4.0, 3.0, 2.0], [9.0, 1.0], [], [1e3, 1e2], [1.0, 1e-7])
    stack = np.stack([_planted((6, 4), sv) for sv in svs])
    rank, u, vh = ba.numerical_rank(stack)
    # 1e-7 is kept next to sigma_1 = 1, though it sits below 1e-9 * 1e3
    assert rank.tolist() == [4, 2, 0, 2, 2]
    assert rank.tolist() == [ba.numerical_rank(m)[0] for m in stack]
    assert u.shape == (5, 6, 4) and vh.shape == (5, 4, 4)


def test_planted_singular_values_drop_at_1e12_and_stay_at_1e6():
    for s1 in (1.0, 50.0):
        assert ba.numerical_rank(_planted((5, 5), [s1, 1.0, 1e-12 * s1]))[0] == 2
        assert ba.numerical_rank(_planted((5, 5), [s1, 1.0, 1e-6 * s1]))[0] == 3
        mat = _planted((5, 5), [s1, 1.0, 1e-12 * s1])
        assert ba.null_space(mat).shape == (5, 3)


def test_zero_matrix_has_rank_zero_and_the_identity_as_null_space():
    for shape in ((4, 4), (3, 5), (5, 3), (0, 3)):
        for dtype in (float, complex):
            mat = np.zeros(shape, dtype)
            assert ba.numerical_rank(mat)[0] == 0
            assert np.array_equal(ba.null_space(mat), np.eye(shape[1]))


def test_tiny_matrices_have_rank_zero_by_the_floor_of_one():
    mat = 1e-12 * RNG.standard_normal((5, 5))
    assert ba.numerical_rank(mat)[0] == 0
    assert ba.null_space(mat).shape == (5, 5)
    # the same matrix scaled up has full rank: the rule is relative above 1
    assert ba.numerical_rank(1e12 * mat)[0] == 5


# -- the replaced per-site rules as oracles --------------------------------------------

def _rule(rtol, absolute=False):
    """numerical_rank under a replaced per-site rule: sv > rtol, as
    np.linalg.matrix_rank(tol=rtol) decides, or sv > rtol * max(1, sigma_1)."""
    def rank(mat):
        u, sv, vh = np.linalg.svd(mat, full_matrices=False)
        r = np.sum(sv > (rtol if absolute else rtol * np.maximum(1.0, sv[..., :1])), axis=-1)
        return (int(r) if r.ndim == 0 else r), u, vh
    return rank


def _null_rule(rtol):
    """null_space under a replaced per-site rule, without the primitive."""
    def null(mat):
        if mat.shape[0] < mat.shape[1]:
            mat = np.vstack([mat, np.zeros((mat.shape[1] - mat.shape[0], mat.shape[1]))])
        r, _, vh = _rule(rtol)(mat)
        return vh.conj().T[:, r:]
    return null


def _haar_null_dim(h):
    try:
        compute_haar(h.algebra, h.coproduct)
    except NonUniqueHaar as err:
        return str(err)
    return 1


def _fixed_dims(mu):
    fx = fixed_and_cofixed(mu)
    return [fx.fixed.shape[1], fx.cofixed.shape[1]]


def _sites(wb, rng):
    """(decision, {blockalg name: replaced rule}, thunk) for every rank
    decision on one workbench."""
    h, d, mu = wb.hopf, wb.dual, wb.mu
    a = h.algebra
    ad_maps = [AlgebraMap.identity(a), AlgebraMap.ad(ba.random_unitary(a, rng)),
               AlgebraMap.ad(ba.random_central_unitary(a, rng))]
    maps = ad_maps + [AlgebraMap.blockwise_transpose(a)] + [
        induced_dual_action(m, d, check=False) for m in ad_maps]
    units = [a.unit(), ba.random_unitary(a, rng), ba.random_central_unitary(a, rng)]
    rel = _rule(1e-10)
    groups = [group_algebra(by_name(wb.key.partition(":")[2]))] \
        if wb.key.startswith("group:") else []
    return [
        ("centre", {"numerical_rank": rel},
         lambda: [len(ba.centre_basis(x.algebra)) for x in (h, d.hopf)]),
        ("cocentre", {"numerical_rank": rel},
         lambda: [len(cocentre_basis(x)) for x in (h, d.hopf)]),
        ("ksymmetric", {"numerical_rank": rel},
         lambda: [len(ksymmetric_basis(x)) for x in (h, d.hopf)]),
        ("lie", {"numerical_rank": rel}, lambda: build_group_model(h).dim),
        ("haar", {"numerical_rank": rel}, lambda: [_haar_null_dim(x) for x in (h, d.hopf)]),
        ("annihilator", {"numerical_rank": rel},
         lambda: [Functional(h, x).annihilator_rank_defect()
                  for x in (a.unit(), a.block_unit(0))]),
        ("legs", {"numerical_rank": _rule(1e-8, absolute=True)},
         lambda: [build_multiplicative_unitary(wb.gns, d).certificates[k]
                  for k in ("leg_dim_first", "leg_dim_second")]),
        ("fixed", {"numerical_rank": _rule(1e-9)}, lambda: _fixed_dims(mu)),
        # Wedderburn: centre at 1e-10, corner ranks at 1e-8 (and the dual
        # Haar state, also at 1e-10, through null_space)
        ("wedderburn", {"null_space": _null_rule(1e-10), "numerical_rank": _rule(1e-8)},
         lambda: [build_dual(h).hopf.algebra.block_dims]
         + [g.algebra.block_dims for g in groups]),
        ("inner", {"numerical_rank": _rule(1e-9)},
         lambda: [inner_implementer(m) is None for m in maps]),
        ("partner", {"numerical_rank": _rule(1e-8)},
         lambda: [len(solve_commutant_partner(u, mu)) for u in units]),
    ]


def test_primitive_decides_as_the_replaced_rules(workbenches, monkeypatch):
    primitive = ba.numerical_rank
    relative = []   # sv / max(1, sigma_1) of every matrix the primitive sees

    def recording(mat):
        sv = np.linalg.svd(mat, compute_uv=False)
        relative.append((sv / np.maximum(1.0, sv[..., :1])).ravel())
        return primitive(mat)

    rng = np.random.default_rng(5)
    decided = {}
    for wb in workbenches.values():
        for name, rules, thunk in _sites(wb, rng):
            monkeypatch.setattr(ba, "numerical_rank", recording)
            got = thunk()
            for attr, rule in rules.items():
                monkeypatch.setattr(ba, attr, rule)
            want = thunk()
            monkeypatch.undo()
            assert got == want, (wb.key, name, got, want)
            decided.setdefault(name, []).append(got)
        assert decided["haar"][-1] == [1, 1], wb.key
    assert len(decided) == 11
    # both verdicts occur: the transpose is not inner on the matrix blocks
    verdicts = sum(decided["inner"], [])
    assert any(verdicts) and not all(verdicts)
    rel = np.concatenate(relative)
    near = rel[(rel > 1e-11) & (rel < 1e-2)]
    assert near.size == 0, near
    # both sides of the gap occur
    assert rel.min() < 1e-11 and rel.max() > 1e-2
