import numpy as np
import pytest

from fqg import blockalg as ba, duality, hopf
from fqg import wedderburn as wd_module
from fqg.blockalg import BlockAlgebra
from fqg.duality import build_dual
from fqg.groups import by_name
from fqg.hopf import function_algebra, group_algebra
from fqg.kacpaljutkin import build_kac_paljutkin
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


def test_trace_row_matches_the_per_element_trace(workbenches):
    for key, wb in workbenches.items():
        h = wb.hopf
        n = h.algebra.dim
        # the convolution algebra as build_dual hands it over (a transposed
        # view), and the contiguous left multiplication tensor of the algebra
        for left in (h.coproduct_kron.transpose(0, 2, 1), ba.left_mult_tensor(h.algebra)):
            alg = AbstractStarAlgebra(left, np.eye(n), h.counit)
            assert np.array_equal(alg.trace_row(),
                                  np.array([np.trace(left[a]) for a in range(n)])), key
    alg, _, _ = _scrambled((2, 3), seed=5)
    assert np.array_equal(alg.trace_row(),
                          np.array([np.trace(alg.left_mult[a]) for a in range(alg.dim)]))


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


# -- the isomorphism certificate ---------------------------------------------

def _pair_loop_residual(alg, phi, target):
    """The per-pair loop _wedderburn_once certified its isomorphism with
    before blockalg.hom_residuals, kept as the oracle."""
    n = alg.dim
    res = float(np.linalg.norm(phi @ alg.unit - target.unit().coords()))
    for a in range(n):
        ea = np.zeros(n, complex)
        ea[a] = 1.0
        xa = target.from_coords(phi @ ea)
        res = max(res, float(np.linalg.norm(phi @ alg.star_of(ea) - xa.adjoint().coords())))
        for b in range(n):
            eb = np.zeros(n, complex)
            eb[b] = 1.0
            xb = target.from_coords(phi @ eb)
            res = max(res, float(np.linalg.norm(phi @ alg.mult(ea, eb) - (xa * xb).coords())))
    return res


def _recorded_wedderburns(build):
    """Run build() and return (algebra, result, AlgebraElements made inside)
    for every wedderburn call that hopf and duality make meanwhile."""
    calls, made = [], [0]
    init = ba.AlgebraElement.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    def recording(alg, **kwargs):
        before = made[0]
        wd = wd_module.wedderburn(alg, **kwargs)
        calls.append((alg, wd, made[0] - before))
        return wd

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ba.AlgebraElement, "__init__", counting)
        m.setattr(hopf, "wedderburn", recording)
        m.setattr(duality, "wedderburn", recording)
        build()
    return calls


@pytest.fixture(scope="module")
def s4_wedderburns():
    def build():
        build_dual(group_algebra(by_name("S4")))
        build_dual(function_algebra(by_name("S4")))
    return _recorded_wedderburns(build)


def test_wedderburn_builds_no_algebra_element(s4_wedderburns):
    """C[S4], its dual and the dual of C(S4) are decomposed and certified
    on coordinate arrays: no AlgebraElement per basis pair."""
    assert [wd.algebra.dim for _, wd, _ in s4_wedderburns] == [24, 24, 24]
    assert [count for _, _, count in s4_wedderburns] == [0, 0, 0]


def _certified(case, s4_wedderburns):
    """(algebra, wedderburn result) of each certified case."""
    if case == "kp-dual":
        return _recorded_wedderburns(lambda: build_dual(build_kac_paljutkin()))[0][:2]
    if case == "group:S4":
        return s4_wedderburns[0][:2]     # C[S4] on the group basis
    dims, seed = {"m2+m3": ((2, 3), 5), "c4": ((1, 1, 1, 1), 9)}[case]
    alg = _scrambled(dims, seed)[0]
    return alg, wedderburn(alg)


@pytest.mark.parametrize("case", ["m2+m3", "c4", "kp-dual", "group:S4"])
def test_certificate_matches_the_pair_loop(case, s4_wedderburns):
    alg, wd = _certified(case, s4_wedderburns)
    want = _pair_loop_residual(alg, wd.iso, wd.algebra)
    assert abs(wd.residual - want) <= 1e-12 * max(1.0, want)
    assert wd.residual < 1e-7
    # one column off by 1e-6: both read the same defect, above the gate
    phi = wd.iso.copy()
    phi[:, 1] += 1e-6
    got = max(ba.hom_residuals(phi, alg, wd.algebra).values())
    want = _pair_loop_residual(alg, phi, wd.algebra)
    assert got > 1e-7 and abs(got - want) <= 1e-12 * max(1.0, want)


def test_operator_off_the_algebra_image_is_refused(monkeypatch):
    """A minimal projection moved off rep(A) reads back as some q with
    rep(q) != P, and the image gate refuses it."""
    alg, _, _ = _scrambled((2, 3), seed=5)
    real = wd_module._preimages
    noise = np.random.default_rng(3).standard_normal((alg.dim, alg.dim))
    monkeypatch.setattr(wd_module, "_preimages",
                        lambda rep, w, winv, unit, ops: real(rep, w, winv, unit, ops + 1e-4 * noise))
    with pytest.raises(WedderburnRetry, match="operator not in the algebra image"):
        wd_module._wedderburn_once(alg, np.random.default_rng(11))


@pytest.mark.parametrize("case", ["c4", "group:S4"])
def test_corrupted_size_one_idempotent_is_refused_by_the_iso_certificate(case, s4_wedderburns,
                                                                         monkeypatch):
    """A size-1 block's idempotent moved by 1e-2 off its block: the Newton
    step leaves an O(1e-4) error in its extraction row, which the final
    *-isomorphism certificate refuses."""
    alg = _certified(case, s4_wedderburns)[0]
    real = wd_module._corner_blocks

    def corrupt(alg, idems):
        blocks = real(alg, idems)
        j = next(i for i, (d, _, _) in enumerate(blocks) if d == 1)
        d, p, corner = blocks[j]
        blocks[j] = (d, p + 1e-2 * np.random.default_rng(1).standard_normal(alg.dim), corner)
        return blocks
    monkeypatch.setattr(wd_module, "_corner_blocks", corrupt)
    with pytest.raises(WedderburnRetry, match="iso residual"):
        wd_module._wedderburn_once(alg, np.random.default_rng(11))


# -- the stacked steps against the former loops ------------------------------

def _tensordot_lmat(alg, v):
    """The former AbstractStarAlgebra.lmat, one tensordot per element."""
    if v.ndim == 2:
        return np.array([_tensordot_lmat(alg, x) for x in v])
    return np.tensordot(v, alg.left_mult, axes=(0, 0))


def _loop_minimal_central_idempotents(alg, centre, gram_w, rng):
    """The former central idempotents: the central element and its image
    on the centre one column at a time."""
    k = centre.shape[1]
    q, _ = np.linalg.qr(gram_w @ centre)
    zon = np.linalg.lstsq(gram_w, q, rcond=None)[0]
    c1 = rng.standard_normal(k)
    c2 = rng.standard_normal(k)
    zs = np.zeros(alg.dim, complex)
    for i in range(k):
        zi = zon[:, i]
        zs = zs + c1[i] * 0.5 * (zi + alg.star_of(zi)) + c2[i] * 0.5j * (zi - alg.star_of(zi))
    img = np.column_stack([alg.mult(zs, zon[:, j]) for j in range(k)])
    b = (gram_w @ zon).conj().T @ (gram_w @ img)
    vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
    if k > 1 and np.min(np.diff(vals)) < 1e-6 * max(1.0, np.max(np.abs(vals))):
        raise WedderburnRetry("central spectrum not separated")
    idems = []
    for j in range(k):
        w = zon @ vecs[:, j]
        scale = np.vdot(w, alg.mult(w, w)) / np.vdot(w, w)
        if abs(scale) < 1e-8:
            raise WedderburnRetry("degenerate central eigenvector")
        idems.append(w / scale)
    return idems


def _loop_corner_blocks(alg, idems):
    """The former corner rank, one SVD per central idempotent."""
    blocks = []
    for p in idems:
        r, u_corner, _ = ba.numerical_rank(_tensordot_lmat(alg, p))
        d = int(round(np.sqrt(r)))
        if d * d != r:
            raise WedderburnRetry(f"corner rank {r} is not a perfect square")
        blocks.append((d, p, u_corner[:, :r]))
    return blocks


def _loop_unit_rows(alg, us, tr_l):
    """The former matrix units and extraction rows, one (r, s) at a time."""
    d, n = us.shape
    tr = alg.trace_row()
    rows = np.empty((d * d, n), complex)
    for r in range(d):
        for s in range(d):
            e_sr = _tensordot_lmat(alg, alg.star_of(us[s])) @ us[r]
            rows[r * d + s] = tr @ _tensordot_lmat(alg, e_sr)
    return rows


def _loop_character_rows(alg, ps, tr, tr_l):
    """The rows of the blocks of size 1, one idempotent at a time: the Newton
    step p <- 3p^2 - 2p^3 through the former lmat, the self-adjoint part,
    and the former loop's row of the unit p* p over tr(p)."""
    rows = []
    for p in ps:
        lp = _tensordot_lmat(alg, p)
        p2 = lp @ p
        q = 3 * p2 - 2 * (lp @ p2)
        q = 0.5 * (q + alg.star_of(q))
        rows.append(_loop_unit_rows(alg, q[None], tr_l)[0] / (tr @ q))
    return np.array(rows)


def _abstract_case(case, s4_wedderburns):
    if case == "S4-dual":
        return s4_wedderburns[1][0]    # the convolution algebra of C[S4]: 24 blocks of size 1
    return _certified(case, s4_wedderburns)[0]


def _spy(monkeypatch, name, seen, real=None):
    real = real or getattr(wd_module, name)

    def spy(*args):
        out = real(*args)
        seen.append((args, list(out)))    # the caller sorts the blocks in place
        return out
    monkeypatch.setattr(wd_module, name, spy)


CASES = ["m2+m3", "c4", "kp-dual", "group:S4", "S4-dual"]


@pytest.mark.parametrize("case", CASES)
def test_stacked_corners_and_unit_rows_match_the_loops(case, s4_wedderburns, monkeypatch):
    """Each stacked step of one decomposition against its former loop on
    the same input.  The block sizes agree, and the corners of blocks of
    size > 1 are equal bit for bit: the stacked left multiplications make
    one matrix-vector product per idempotent, as the tensordot did, and the
    stacked SVD factors each matrix alone.  That matters: a corner whose
    singular values are equal has no preferred basis, and round-off would
    rotate it and the corner element drawn in it.  A block of size 1 takes
    no SVD (tr(p) = 1 gives its rank); its corner p / |p| spans the same
    line as the loop's.  The extraction rows read tr(e_a .) once for all
    units, which sums in another order, so they agree within 1e-12.  A
    block of size 1 is its central idempotent p, refined by one Newton
    step: the stacked rows agree with those refined and read one idempotent
    at a time within the same bound."""
    alg = _abstract_case(case, s4_wedderburns)
    corners, rows, characters = [], [], []
    _spy(monkeypatch, "_corner_blocks", corners)
    _spy(monkeypatch, "_unit_rows", rows)
    _spy(monkeypatch, "_character_rows", characters)
    wd_module._wedderburn_once(alg, np.random.default_rng(11))
    (args, got), = corners
    want = _loop_corner_blocks(*args)
    assert [d for d, _, _ in got] == [d for d, _, _ in want]
    for (d, p, u), (_, q, v) in zip(got, want):
        assert p is q
        if d == 1:      # p / |p| spans the range of the loop's SVD, up to a phase
            assert abs(abs(np.vdot(v[:, 0], u[:, 0])) - 1) <= 1e-12
        else:
            assert u.tobytes() == v.tobytes()
    assert [len(us) for (_, us, _), _ in rows] == sorted(d for d, _, _ in got if d > 1)
    for args, got_rows in rows:
        want = _loop_unit_rows(*args)
        assert np.abs(got_rows - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    ones = sum(d == 1 for d, _, _ in got)
    assert [len(ps) for (_, ps, _, _), _ in characters] == ([ones] if ones else [])
    for args, got_rows in characters:
        want = _loop_character_rows(*args)
        assert np.abs(np.array(got_rows) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("case", CASES)
def test_stacked_decomposition_draws_as_the_loops(case, s4_wedderburns, monkeypatch):
    """With every stacked step swapped back for its former loop, one
    decomposition from the same generator takes the same draws: the
    generator ends in the same state, the central idempotents are equal bit
    for bit (their trace, which ties in exact arithmetic, orders blocks of
    equal size) and phi moves by the round-off of the extraction rows."""
    alg = _abstract_case(case, s4_wedderburns)
    idems = []
    _spy(monkeypatch, "_minimal_central_idempotents", idems)
    rng = np.random.default_rng(11)
    got = wd_module._wedderburn_once(alg, rng)
    monkeypatch.setattr(AbstractStarAlgebra, "lmat", _tensordot_lmat)
    _spy(monkeypatch, "_minimal_central_idempotents", idems, _loop_minimal_central_idempotents)
    for name, loop in (("_corner_blocks", _loop_corner_blocks), ("_unit_rows", _loop_unit_rows)):
        monkeypatch.setattr(wd_module, name, loop)
    loop_rng = np.random.default_rng(11)
    want = wd_module._wedderburn_once(alg, loop_rng)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    (_, new_idems), (_, loop_idems) = idems
    assert np.array(new_idems).tobytes() == np.array(loop_idems).tobytes()
    assert got.algebra == want.algebra
    assert np.abs(got.iso - want.iso).max() <= 1e-12 * np.abs(want.iso).max()
