"""The stacked sampling checks of `fqg verify` against the per-sample loops
they replaced: the same draws and generator state, the same reports, the
same typed errors, and no AlgebraElement per sample."""

import numpy as np
import pytest

from fqg import blockalg as ba
from fqg import cli
from fqg.blockalg import DEFAULT_TOL, spectrum
from fqg.cli import main
from fqg.duality import Functional, build_dual, jordan_decompose, jordan_splits
from fqg.errors import NotInvertible, NotSelfAdjoint
from fqg.groups import by_name
from fqg.hopf import function_algebra, group_algebra
from fqg.io import load_bundled_kac_paljutkin


# -- per-sample oracles: the draw helpers and suites before stacking ---------------

def _loop_element(a, rng):
    return a.from_coords(ba.random_coords(a, rng))


def _loop_selfadjoint(a, rng):
    x = _loop_element(a, rng)
    return 0.5 * (x + x.adjoint())


def _loop_selfadjoint_invertible(a, rng, min_sv=1e-3):
    for _ in range(64):
        x = _loop_selfadjoint(a, rng)
        if x.smallest_sv() > min_sv:
            return x
    raise NotInvertible("failed to sample a well-conditioned self-adjoint element")


LOOP = {"e": _loop_element, "s": _loop_selfadjoint, "i": _loop_selfadjoint_invertible}
HELPERS = {"e": ba.random_element, "s": ba.random_selfadjoint,
           "i": ba.random_selfadjoint_invertible}


def _loop_plan(draw, a, rng, plan, count, min_sv, gate=None):
    """random_stacks as a loop: one draw helper call per role, in order."""
    stacks, kept = [[] for _ in plan], []
    for _ in range(count):
        for j, kind in enumerate(plan):
            x = draw[kind](a, rng, min_sv) if kind == "i" else draw[kind](a, rng)
            stacks[j].append(x.coords())
            if j == 0 and gate is not None:
                kept.append(bool(gate(x.coords()[None])[0]))
                if not kept[-1]:
                    break
    return [np.array(s).reshape(-1, a.dim) for s in stacks], kept


def _loop_sampled_checks(h, d, rng, samples, tol):
    """The five sampling suites of cmd_verify, one sample at a time."""
    a = h.algebra
    checks = []
    worst = 0.0
    for _ in range(samples):
        x = _loop_element(a, rng)
        worst = max(worst, (d.inverse_fourier(d.fourier(x)) - x).norm()
                    / max(1e-12, x.norm()))
    checks.append(cli._check("fourier_bijectivity", worst, tol.eq_tol))

    one = a.unit()
    worst = 0.0
    for _ in range(samples):
        c = _loop_selfadjoint(a, rng)
        worst = max(worst, (d.convolve(c, one) - h.tau(c) * one).norm(),
                    (d.convolve(one, c) - h.tau(c) * one).norm())
    checks.append(cli._check("convolution_unit_law", worst, tol.eq_tol))

    worst_sa, min_sv = 0.0, np.inf
    for _ in range(samples):
        c = _loop_selfadjoint_invertible(a, rng)
        y = _loop_selfadjoint_invertible(a, rng)
        w = d.convolve(c, y)
        worst_sa = max(worst_sa, (w - w.adjoint()).norm())
        min_sv = min(min_sv, w.smallest_sv())
    checks.append(cli._check("convolution_selfadjoint", worst_sa, tol.eq_tol))
    checks.append(cli._check("convolution_invertible", None, None,
                             passed=min_sv > tol.inv_tol,
                             info=f"min singular value {min_sv:.3e}"))

    placements = {"left": 0, "right": 0}
    trials = 0
    for _ in range(min(samples, 50)):
        c = _loop_selfadjoint_invertible(a, rng)
        tc = h.tau(c)
        if abs(tc) < 0.1:
            continue
        trials += 1
        c = (1.0 / tc) * c
        y = _loop_selfadjoint(a, rng)
        sy = spectrum(y, tol)
        if np.max(np.abs(spectrum(d.convolve(y, c), tol) - sy)) < 1e-8:
            placements["right"] += 1
        if np.max(np.abs(spectrum(d.convolve(c, y), tol) - sy)) < 1e-8:
            placements["left"] += 1
    validated = [k for k, v in placements.items() if trials and v == trials]
    checks.append(cli._check("spectrum_preservation", None, None, gating=False,
                             info={"validated_placement": validated or "none",
                                   "agreeing": placements, "trials": trials}))

    worst = 0.0
    for _ in range(samples):
        v = _loop_selfadjoint_invertible(a, rng)
        f1, f2, p = jordan_decompose(Functional(h, v), tol)
        neg = max(-spectrum(f1.density, tol)[0], -spectrum(f2.density, tol)[0], 0.0)
        x = _loop_element(a, rng)
        ortho = max(abs(f1((one - p) * x)), abs(f2(p * x)))
        recon = abs((f1(x) - f2(x)) - h.tau(v * x))
        worst = max(worst, neg, ortho, recon)
    checks.append(cli._check("jordan_decomposition", worst, tol.eq_tol * 100))
    return checks


def _hopf(rung):
    if rung == "kp":
        return load_bundled_kac_paljutkin()
    kind, _, group = rung.partition(":")
    build = group_algebra if kind == "group" else function_algebra
    return build(by_name(group))


# the six verify rungs of the benchmark, the smallest group and the trivial one
RUNGS = ["kp", "group:S3", "function:D4", "group:dihedral:6", "function:dihedral:6",
         "group:dihedral:8", "function:Z2", "function:cyclic:1"]


@pytest.fixture(scope="module")
def duals():
    return {rung: build_dual(_hopf(rung)) for rung in RUNGS}


# -- the drawer -------------------------------------------------------------------

def _tau_gate(h):
    return lambda s: np.abs(ba.matvec(h.haar, s)) >= 0.1


@pytest.mark.parametrize("rung,min_sv", [("kp", 1e-3), ("group:S3", 1e-3),
                                         ("function:D4", 1e-3), ("function:D4", 0.15)])
@pytest.mark.parametrize("plan,gated", [("ii", False), ("ie", False), ("is", True)])
def test_stacked_draws_match_per_sample_calls(duals, rung, min_sv, plan, gated):
    """Bitwise the coordinates of the per-sample helpers and of the loop they
    replaced, and the same generator state after.  On C(D4) with min_sv 0.15
    about three draws in four are rejected, so rounds end mid-role and the
    gate skips repetitions."""
    h = duals[rung].base
    a = h.algebra
    gate = _tau_gate(h) if gated else None
    count = 50
    rng = np.random.default_rng(3)
    stacks, kept = ba.random_stacks(a, rng, plan, count, min_sv, gate)
    for draw in (HELPERS, LOOP):
        rng_loop = np.random.default_rng(3)
        want, want_kept = _loop_plan(draw, a, rng_loop, plan, count, min_sv, gate)
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        for got, ref in zip(stacks, want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        assert kept.tolist() == (want_kept if gated else [True] * count)
    if min_sv > 0.1:
        # rejections happened: one draw per filled role ends elsewhere
        one_each = np.random.default_rng(3)
        ba.random_coords(a, one_each, sum(len(s) for s in stacks))
        assert one_each.bit_generator.state != rng.bit_generator.state


@pytest.mark.parametrize("plan", ["ii", "ei"])
def test_sixty_four_rejections_raise_with_the_loop_state(duals, plan):
    """NotInvertible after 64 consecutive rejections of one role, with rng
    left where the per-sample loop leaves it: a round never draws past the
    rejections left (for "ei", 1 element, then 63 + 1 rejections over two
    rounds)."""
    a = duals["function:D4"].base.algebra
    rng, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(NotInvertible):
        ba.random_stacks(a, rng, plan, 3, min_sv=1e9)
    with pytest.raises(NotInvertible):
        _loop_plan(LOOP, a, rng_loop, plan, 3, 1e9)
    assert rng.bit_generator.state == rng_loop.bit_generator.state
    plain = np.random.default_rng(5)
    ba.random_coords(a, plain, 64 + plan.index("i"))
    assert rng.bit_generator.state == plain.bit_generator.state


# -- the reports --------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7])
def test_stacked_checks_match_the_per_sample_suites(duals, seed):
    """Every check name, threshold, gating flag, verdict and info (spectrum
    placements included) equal, residuals within 1e-14, and the generator in
    the same state after, on every rung at 100 samples."""
    for rung, d in duals.items():
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cli._sampled_checks(d.base, d, rng, 100, DEFAULT_TOL)
        want = _loop_sampled_checks(d.base, d, rng_loop, 100, DEFAULT_TOL)
        assert rng.bit_generator.state == rng_loop.bit_generator.state, rung
        assert [c["name"] for c in got] == [c["name"] for c in want], rung
        for g, w in zip(got, want):
            assert {k: v for k, v in g.items() if k != "residual"} == \
                {k: v for k, v in w.items() if k != "residual"}, (rung, g, w)
            if w["residual"] is None:
                assert g["residual"] is None
            else:
                assert abs(g["residual"] - w["residual"]) < 1e-14, (rung, g, w)


def test_a_bad_sample_in_a_stack_raises_the_loop_error(duals):
    """A non-self-adjoint or a singular density among good ones raises the
    typed error the per-sample calls raise on it."""
    h = duals["kp"].base
    a = h.algebra
    rng = np.random.default_rng(11)
    (good,), _ = ba.random_stacks(a, rng, "i", 3)
    not_sa = ba.random_coords(a, rng)
    singular = good[0] * (1.0 - a.block_unit_coords()[:, 0])    # 1x1 block 0 set to 0
    for bad, error in ((not_sa, NotSelfAdjoint), (singular, NotInvertible)):
        stack = np.vstack([good[:2], bad, good[2:]])
        with pytest.raises(error):
            jordan_decompose(Functional(h, a.from_coords(bad)))
        with pytest.raises(error):
            jordan_splits(a, stack)
        with pytest.raises(error):
            ba.polar_symmetries(a, stack)
    with pytest.raises(NotSelfAdjoint):
        spectrum(a.from_coords(not_sa))
    with pytest.raises(NotSelfAdjoint):
        ba.spectra(a, np.vstack([good, not_sa]))
    assert ba.smallest_svs(a, np.vstack([good, singular]))[-1] == 0.0


def test_verify_builds_no_element_per_sample(monkeypatch, capsys):
    """`fqg verify` constructs as many AlgebraElements at 200 samples as at
    10: the sampling checks work on coordinate stacks only."""
    init = ba.AlgebraElement.__init__
    made = [0]

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    counts = []
    with monkeypatch.context() as m:
        m.setattr(ba.AlgebraElement, "__init__", counting)
        for samples in (10, 10, 200):       # the first call fills the caches
            made[0] = 0
            assert main(["verify", "--kac-paljutkin", "--json", "--samples",
                         str(samples)]) == 0
            counts.append(made[0])
    capsys.readouterr()
    assert counts[1] == counts[2]
