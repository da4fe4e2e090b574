"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion must pass.
Criterion 11 asks whether one-sided convolution by a normalised self-adjoint
invertible c preserves spectra; the claim is false (see the README), and the
criterion certifies the refutation: the README counterexample on C(Z2), both
placements refuted on all eleven bundled algebras by shifts far above
round-off, and a trivial-group control on which the same loop validates both
placements.  Its seed, sample count, tau-guard and decision threshold are
never weakened.
"""

import numpy as np
import pytest

from fqg import blockalg as ba
from fqg.blockalg import spectrum
from fqg.duality import Functional, build_dual, jordan_decompose
from fqg.errors import ClassificationUnstable, NeitherAutoNorAnti
from fqg.groups import cyclic
from fqg.hopf import function_algebra, group_algebra, verify_axioms
from fqg.morphisms import (AlgebraMap, classify_map, hopf_flags_fast,
                           perturbation_inverse_residual, proposition_pipeline)
from fqg.multunitary import (commutation_test, pair_from_commutant,
                             path_in_commutant, solve_commutant_partner)
from fqg.biinner import (brute_force_biinner_consistency, classify_biinner, exp_element,
                         in_identity_component)

SEED = 20240211


def _line(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_hopf_axiom_suite(workbenches):
    worst = 0.0
    for key, wb in workbenches.items():
        rep = verify_axioms(wb.hopf)
        worst = max(worst, rep.max_residual)
    ok = worst < 1e-9
    _line(1, ok, f"axiom residuals over 11 algebras, worst {worst:.2e} < 1e-9")
    assert ok


def test_criterion_02_fourier_bijectivity(workbenches):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for wb in workbenches.values():
        for _ in range(100):
            x = ba.random_element(wb.hopf.algebra, rng)
            worst = max(worst, (wb.dual.inverse_fourier(wb.dual.fourier(x)) - x).norm()
                        / max(1e-12, x.norm()))
    ok = worst < 1e-9
    _line(2, ok, f"100 samples/algebra, worst relative residual {worst:.2e} < 1e-9")
    assert ok


def test_criterion_03_convolution_unit_law(workbenches):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for wb in workbenches.values():
        one = wb.hopf.algebra.unit()
        for _ in range(100):
            c = ba.random_element(wb.hopf.algebra, rng)
            worst = max(worst,
                        (wb.dual.convolve(c, one) - wb.hopf.tau(c) * one).norm(),
                        (wb.dual.convolve(one, c) - wb.hopf.tau(c) * one).norm())
    ok = worst < 1e-9
    _line(3, ok, f"c<>1 = tau(c)1 both sides, worst {worst:.2e} < 1e-9")
    assert ok


def test_criterion_04_convolution_stability(workbenches):
    rng = np.random.default_rng(SEED + 2)
    worst_sa, min_sv, failures = 0.0, np.inf, 0
    for wb in workbenches.values():
        for _ in range(100):
            c = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
            y = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
            w = wb.dual.convolve(c, y)
            sa = (w - w.adjoint()).norm()
            sv = w.smallest_sv()
            worst_sa = max(worst_sa, sa)
            min_sv = min(min_sv, sv)
            if sa >= 1e-9 or sv <= 1e-8:
                failures += 1
    ok = failures == 0
    _line(4, ok, f"1100 seeded pairs: sa defect {worst_sa:.2e} < 1e-9, "
                 f"min sv {min_sv:.2e} > 1e-8, failures {failures}")
    assert ok


def test_criterion_05_jordan_decomposition(workbenches):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for wb in workbenches.values():
        one = wb.hopf.algebra.unit()
        for _ in range(100):
            v = ba.random_selfadjoint_invertible(wb.hopf.algebra, rng)
            f = Functional(wb.hopf, v)
            f1, f2, p = jordan_decompose(f)
            floor = min(spectrum(f1.density)[0], spectrum(f2.density)[0])
            x = ba.random_element(wb.hopf.algebra, rng)
            ortho = max(abs(f1((one - p) * x)), abs(f2(p * x)))
            recon = abs((f1(x) - f2(x)) - f(x))
            worst = max(worst, -floor, ortho, recon)
    ok = worst < 1e-9
    _line(5, ok, f"1100 functionals: positivity/orthogonality/reconstruction "
                 f"worst {worst:.2e} < 1e-9")
    assert ok


def test_criterion_06_bimodule_over_centre(workbenches):
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    qualified = 0
    for wb in workbenches.values():
        cands = [AlgebraMap.identity(wb.hopf.algebra),
                 AlgebraMap.blockwise_transpose(wb.hopf.algebra),
                 AlgebraMap.ad(ba.random_unitary(wb.hopf.algebra, rng))]
        zs = wb.hopf.algebra.central_projections()
        for m in cands:
            rep = classify_map(m, wb.hopf, wb.hopf)
            f = rep["flags"]
            if not (f["unital"] and f["positive"] and f["bijective"]):
                continue
            if not classify_map(m.inverse(), wb.hopf, wb.hopf)["flags"]["positive"]:
                continue
            span = np.column_stack([z.coords() for z in zs])
            img = np.column_stack([m(z).coords() for z in zs])
            coef, res2, *_ = np.linalg.lstsq(span, img, rcond=None)
            if np.linalg.norm(span @ coef - img) > 1e-9:
                continue
            qualified += 1
            for _ in range(20):
                a = ba.random_element(wb.hopf.algebra, rng)
                z = wb.hopf.algebra.zero()
                for cz, pz in zip(rng.standard_normal(len(zs)), zs):
                    z = z + complex(cz) * pz
                worst = max(worst, (m(a * z) - m(a) * m(z)).norm())
    ok = worst < 1e-8 and qualified >= 33
    _line(6, ok, f"{qualified} qualifying maps: phi(az)=phi(a)phi(z) "
                 f"worst {worst:.2e} < 1e-8")
    assert ok


def _antipode_block_map(h) -> list[int]:
    """j at index i when the antipode maps the unit of block i to that of
    block j."""
    units = h.algebra.block_unit_coords()
    hits = np.linalg.norm((h.antipode @ units)[:, :, None] - units[:, None, :], axis=0) < 1e-8
    return [int(np.argmax(row)) if row.any() else -1 for row in hits]


def test_criterion_07_perturbation_identity_and_stability(workbenches):
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for wb in workbenches.values():
        done = 0
        while done < 50:
            v = ba.random_element(wb.hopf.algebra, rng)
            if not v.is_invertible(1e-4):
                continue
            done += 1
            for eps in (1e-3, 1e-6):
                worst = max(worst, perturbation_inverse_residual(v, wb.hopf, eps))
    identity_ok = worst < 1e-9

    # pipeline stability: every run that reaches the perturbation branch
    # classifies at eps and eps/2 and raises on disagreement
    runs = perturbed_runs = 0
    for wb in workbenches.values():
        zs = wb.hopf.algebra.central_projections()
        cands = [wb.hopf.algebra.unit()]
        cands += [wb.hopf.algebra.from_coords(z) for z in wb.model.sign_patterns[:4]]
        # central kappa-symmetric invertible: real coefficients constant on
        # the antipode's block orbits
        coeffs = 1.0 + rng.random(len(zs))
        for i, j in enumerate(_antipode_block_map(wb.hopf)):
            coeffs[j] = coeffs[i]
        w = wb.hopf.algebra.zero()
        for cz, pz in zip(coeffs, zs):
            w = w + complex(cz) * pz
        cands.append(w)
        if wb.model.dim > 0:
            cands.append(exp_element(wb.model.random_element(rng)))
        for v in cands:
            res = proposition_pipeline(v, wb.hopf, wb.dual)
            runs += 1
            perturbed_runs += int(res.perturbed)
            assert res.verdict in ("hopf_auto", "co_anti_auto")
    ok = identity_ok and runs > 0
    _line(7, ok, f"inverse identity worst {worst:.2e} < 1e-9 over 1100 (v,eps); "
                 f"{runs} pipeline runs ({perturbed_runs} perturbed), all stable")
    assert ok


def test_criterion_08_pentagon_and_legs(workbenches):
    worst_p = worst_l = 0.0
    for wb in workbenches.values():
        worst_p = max(worst_p, wb.mu.certificates["pentagon"])
        worst_l = max(worst_l, wb.mu.certificates["second_leg_span_distance"],
                      wb.mu.certificates["second_leg_membership"])
    ok = worst_p < 1e-8 and worst_l < 1e-8
    _line(8, ok, f"pentagon worst {worst_p:.2e} < 1e-8, "
                 f"leg distances worst {worst_l:.2e} < 1e-8")
    assert ok


def _planted_commutant_pairs(wb, rng):
    """Unitary simple-tensor commutant witnesses for planted bi-inner maps."""
    pairs = []
    us = [wb.hopf.algebra.unit(), ba.random_central_unitary(wb.hopf.algebra, rng)]
    if wb.model.dim > 0:
        us.append(exp_element(wb.model.random_element(rng)))
    for u in us:
        if not hopf_flags_fast(AlgebraMap.ad(u), wb.hopf):
            continue
        sols = solve_commutant_partner(u, wb.mu)
        if not sols:
            continue
        span = np.column_stack([s.coords() for s in sols])
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
            proj, *_ = np.linalg.lstsq(span, cand.coords(), rcond=None)
            if np.linalg.norm(span @ proj - cand.coords()) < 1e-8:
                pairs.append((cand, u))
                break
    return pairs


def test_criterion_09_biinner_roundtrip_and_paths(workbenches):
    rng = np.random.default_rng(SEED + 6)
    worst_comm = worst_path = 0.0
    n_pairs = 0
    flags_ok = True
    for key, wb in workbenches.items():
        # every bi-inner verdict carries a commutation certificate
        verdict = classify_biinner(AlgebraMap.identity(wb.hopf.algebra),
                                   wb.hopf, wb.dual, wb.mu, wb.model)
        assert verdict.is_biinner
        worst_comm = max(worst_comm, verdict.certificates["commutation"]["residual"])
        worst_path = max(worst_path, *verdict.certificates["path_residuals"].values())
        # sampled simple-tensor commutant unitaries
        for uhat, u in _planted_commutant_pairs(wb, rng):
            n_pairs += 1
            rep = commutation_test(uhat, u, wb.mu)
            worst_comm = max(worst_comm, rep["residual"])
            big = np.kron(wb.mu.rep_dual(uhat), wb.mu.rep(u))
            res = pair_from_commutant(big, wb.mu)
            flags_ok &= hopf_flags_fast(res["alpha"], wb.hopf)
            for r in (0.25, 0.5, 0.75, 1.0):
                _, _, resid = path_in_commutant(uhat, u, wb.mu, r)
                worst_path = max(worst_path, resid)
    ok = worst_comm < 1e-8 and worst_path < 1e-8 and flags_ok and n_pairs >= 11
    _line(9, ok, f"{n_pairs} commutant pairs: commutation worst {worst_comm:.2e}, "
                 f"paths worst {worst_path:.2e} < 1e-8, Hopf flags {flags_ok}")
    assert ok


def test_criterion_10_biinner_consistency(workbenches):
    all_diag = True
    identity_only_ok = True
    details = []
    for key, wb in workbenches.items():
        rep = brute_force_biinner_consistency(wb.hopf, wb.dual, wb.mu, wb.model,
                                              samples=200, seed=SEED)
        all_diag &= rep.diagonal
        if key in ("group:S3", "function:S3"):
            identity_only_ok &= rep.positives_are_identity
        details.append(f"{key}:{rep.confusion.tolist()}")
    ok = all_diag and identity_only_ok
    _line(10, ok, f"200 samples x 11 algebras, all confusion matrices diagonal: "
                  f"{all_diag}; S3 bi-inner groups = {{id}}: {identity_only_ok}")
    assert ok


def _spectral_shifts(hopf, dual, rng, samples=100):
    """Spectral shifts of y -> y<>c and y -> c<>y on seeded Hermitian y.

    c is a self-adjoint invertible draw normalised to tau(c) = 1; draws with
    |tau(c)| < 0.05 are skipped.  Returns the per-sample shifts by placement.
    """
    shifts = {"left": [], "right": []}
    done = 0
    while done < samples:
        c = ba.random_selfadjoint_invertible(hopf.algebra, rng)
        tc = hopf.tau(c)
        if abs(tc) < 0.05:
            continue
        done += 1
        c = (1.0 / tc) * c
        y = ba.random_selfadjoint(hopf.algebra, rng)
        sy = spectrum(y)
        shifts["right"].append(np.max(np.abs(spectrum(dual.convolve(y, c)) - sy)))
        shifts["left"].append(np.max(np.abs(spectrum(dual.convolve(c, y)) - sy)))
    return shifts


def _validated(shifts):
    """Placements whose every sample preserved the spectrum to 1e-8."""
    return [k for k, v in shifts.items() if max(v) < 1e-8]


def test_criterion_11_spectrum_preservation(workbenches):
    """Certifies that one-sided convolution does not preserve spectra.

    The claim under test: y -> y<>c or y -> c<>y, for self-adjoint invertible
    c with tau(c) = 1, preserves the spectrum of Hermitian y.  It is false,
    and the criterion asserts the refutation without weakening the check:

    * the README counterexample on C(Z2), c = 3delta_0 - delta_1 and
      y = delta_0 + 2delta_1, where y<>c = c<>y has spectrum {0.5, 2.5};
    * on every bundled algebra both placements fail on seeded samples, each
      by a shift of at least 1e-2, far above round-off;
    * positive control: on the trivial quantum group convolution by the
      normalised c is the identity, and the same loop validates both
      placements, so "none" is a finding and not an artefact of the loop.
    """
    wb = workbenches["function:Z2"]
    c = wb.hopf.algebra.element([[[3.0]], [[-1.0]]])
    y = wb.hopf.algebra.element([[[1.0]], [[2.0]]])
    tc = wb.hopf.tau(c)
    example_ok = (abs(tc - 1) < 1e-12
                  and np.allclose(spectrum(wb.dual.convolve(y, c)), [0.5, 2.5],
                                  rtol=0, atol=1e-12)
                  and np.allclose(spectrum(wb.dual.convolve(c, y)), [0.5, 2.5],
                                  rtol=0, atol=1e-12))

    rng = np.random.default_rng(SEED + 7)
    refuted, weakest = [], np.inf
    for key, wb in workbenches.items():
        shifts = _spectral_shifts(wb.hopf, wb.dual, rng)
        largest = min(max(v) for v in shifts.values())
        weakest = min(weakest, largest)
        if not _validated(shifts) and largest >= 1e-2:
            refuted.append(key)

    controls = {}
    for h in (function_algebra(cyclic(1)), group_algebra(cyclic(1))):
        controls[h.name] = _validated(_spectral_shifts(h, build_dual(h), rng))
    control_ok = all(v == ["left", "right"] for v in controls.values())

    ok = example_ok and len(refuted) == len(workbenches) and control_ok
    _line(11, ok, f"validated placement: none on {len(refuted)}/{len(workbenches)} "
                  f"algebras (smallest largest shift {weakest:.2e} >= 1e-2); "
                  f"README C(Z2) counterexample {example_ok}; "
                  f"trivial-group control validates {controls}")
    assert example_ok, "README counterexample on C(Z2) not reproduced"
    assert refuted == list(workbenches), "a convolution placement preserved spectra"
    assert control_ok, "trivial-group control did not validate both placements"


def test_criterion_12_biinner_hard_samples(workbenches, group_likes, outer_automorphisms,
                                           hard_samples):
    """The samples criterion 10's mix rarely draws: conjugation by group-likes
    (on kp two of them act non-trivially although its Lie algebra is 0),
    group-likes times planted members of G_c, and the outer Hopf
    *-automorphisms delta_x -> delta_(g^-1 x g) of C(S3) and C(D4), which
    route A must refuse as not inner."""
    rng = np.random.default_rng(SEED + 12)
    all_diag = True
    worst_comm = 0.0
    details = []
    for key, wb in workbenches.items():
        maps = hard_samples(wb, group_likes[key], rng) + outer_automorphisms.get(key, [])
        confusion = np.zeros((2, 2), dtype=int)
        for alpha in maps:
            verdict = classify_biinner(alpha, wb.hopf, wb.dual, wb.mu)
            member, _ = in_identity_component(alpha, wb.model, rng=rng)
            confusion[int(verdict.is_biinner), int(member)] += 1
            if verdict.is_biinner:
                worst_comm = max(worst_comm, verdict.certificates["commutation"]["residual"])
        all_diag &= confusion[0, 1] == 0 and confusion[1, 0] == 0
        details.append(f"{key}:{confusion.tolist()}")
    ok = bool(all_diag) and worst_comm < 1e-8
    _line(12, ok, f"group-like, planted and outer samples on 11 algebras, all confusion "
                  f"matrices diagonal: {bool(all_diag)}; commutation worst {worst_comm:.2e}; "
                  + " ".join(details))
    assert ok
