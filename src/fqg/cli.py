"""Command-line surface: build algebras, run verification suites, convolve.

Exit code 0 iff every gating check passes, 1 if one fails, 2 if the input is
refused or a step runs out of memory (a typed FqgError), 3 if fqg itself
failed with any other exception (an internal error).  Reports are
deterministic for a fixed (seed, spec, tolerances, version); the JSON form
never includes timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from . import blockalg as ba
from .blockalg import ToleranceConfig
from .duality import DualHopfAlgebra, build_dual, fourier_of_counit_support, jordan_splits
from .errors import FqgError, ParseError, ResourceLimit
from .groups import by_name, from_cayley_csv, from_permutation_file
from .hopf import HopfAlgebra, function_algebra, group_algebra, verify_axioms
from .io import (element_from_json, element_to_json, load_hopf_file,
                 load_bundled_kac_paljutkin, read_json_file, report_to_json)
from .multunitary import build_gns, build_multiplicative_unitary, fixed_and_cofixed
from .biinner import (brute_force_biinner_consistency, build_group_model,
                      require_desk_scale)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fqg",
                                description="finite quantum group workbench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--group", help="named group (Z2..Z8, S3, S4, D3..D5) "
                                        "or cyclic:n / dihedral:n / symmetric:n")
        sp.add_argument("--algebra", choices=["group", "function"], default="function",
                        help="which Hopf algebra to build on the group")
        sp.add_argument("--file", help="structure-constants JSON file")
        sp.add_argument("--cayley-file", help="Cayley table CSV (identity = index 0)")
        sp.add_argument("--perm-file", help="permutation generators, one per line")
        sp.add_argument("--kac-paljutkin", action="store_true",
                        help="use the bundled Kac-Paljutkin algebra")
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed (default: FQG_SEED or 0)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--tol-eq", type=float, default=1e-9)
        sp.add_argument("--tol-inv", type=float, default=1e-8)
        sp.add_argument("--tol-psd", type=float, default=1e-9)

    v = sub.add_parser("verify", help="run the verification suites")
    common(v)
    v.add_argument("--samples", type=_positive_int, default=100)

    b = sub.add_parser("biinner", help="bi-inner automorphism consistency report")
    common(b)
    b.add_argument("--samples", type=_positive_int, default=200)

    c = sub.add_parser("convolve", help="convolve two elements")
    common(c)
    c.add_argument("--a", required=True, help="element as inline JSON or @file")
    c.add_argument("--b", required=True, help="element as inline JSON or @file")
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FQG_SEED")
    return int(env) if env else 0


def _build_algebra(args, tol: ToleranceConfig) -> HopfAlgebra:
    picked = [x for x in (args.group, args.file, args.cayley_file, args.perm_file,
                          args.kac_paljutkin or None) if x]
    if len(picked) != 1:
        raise ParseError("choose exactly one of --group / --file / --cayley-file "
                         "/ --perm-file / --kac-paljutkin")
    if args.kac_paljutkin:
        return load_bundled_kac_paljutkin(tol)
    if args.file:
        return load_hopf_file(args.file, tol)
    if args.cayley_file:
        g = from_cayley_csv(args.cayley_file)
    elif args.perm_file:
        g = from_permutation_file(args.perm_file)
    else:
        g = by_name(args.group)
    return group_algebra(g) if args.algebra == "group" else function_algebra(g)


def _check(name, residual, threshold, gating=True, info=None, passed=None):
    if passed is None:
        passed = bool(residual < threshold) if threshold is not None else True
    row = {"name": name, "residual": None if residual is None else float(residual),
           "threshold": threshold, "passed": bool(passed), "gating": gating}
    if info is not None:
        row["info"] = info
    return row


def _emit(report: dict, tol: ToleranceConfig, as_json: bool, started: float) -> int:
    report["tolerances"] = dataclasses.asdict(tol)
    ok = all(c["passed"] or not c.get("gating", True) for c in report["checks"])
    report["passed"] = ok
    if as_json:
        sys.stdout.write(report_to_json(report))
    else:
        print(f"fqg {report['command']}  (version {report['version']}, "
              f"seed {report['seed']})")
        for c in report["checks"]:
            if not c.get("gating", True):
                mark = "info"
            else:
                mark = "PASS" if c["passed"] else "FAIL"
            res = "" if c["residual"] is None else f"  residual={c['residual']:.3e}"
            extra = f"  {c['info']}" if "info" in c else ""
            print(f"  [{mark}] {c['name']}{res}{extra}")
        for k, v in report.get("verdicts", {}).items():
            print(f"  {k}: {v}")
        print(f"  overall: {'PASS' if ok else 'FAIL'}  ({time.time() - started:.2f}s)")
    return 0 if ok else 1


def _sampled_checks(h: HopfAlgebra, d: DualHopfAlgebra, rng: np.random.Generator, samples: int,
                    tol: ToleranceConfig) -> list[dict]:
    """The sampled convolution checks of `fqg verify`: the Fourier bijection,
    the unit law of convolution, that c<>y is self-adjoint and invertible,
    whether spectra are preserved, and the Jordan decomposition of faithful
    functionals.

    Each check is evaluated at once on the (samples, N) stack of its draws.
    ba.random_stacks gives every sample the draw a loop of per-sample
    random_* calls would give it, and leaves rng in the same state.
    """
    a = h.algebra
    one = a.unit_coords()
    checks = []

    x = ba.random_coords(a, rng, samples)
    back = ba.matvec(d.fourier_inv, ba.matvec(d.fourier_mat, x))
    worst = np.max(ba.norms(back - x) / np.maximum(1e-12, ba.norms(x)))
    checks.append(_check("fourier_bijectivity", worst, tol.eq_tol))

    c = ba.selfadjoint_parts(a, ba.random_coords(a, rng, samples))
    scaled_one = ba.matvec(h.haar, c)[:, None] * one
    worst = max(np.max(ba.norms(d.convolutions(c, one) - scaled_one)),
                np.max(ba.norms(d.convolutions(one, c) - scaled_one)))
    checks.append(_check("convolution_unit_law", worst, tol.eq_tol))

    (c, y), _ = ba.random_stacks(a, rng, "ii", samples)
    w = d.convolutions(c, y)
    checks.append(_check("convolution_selfadjoint",
                         np.max(ba.norms(w - ba.adjoints(a, w))), tol.eq_tol))
    min_sv = float(np.min(ba.smallest_svs(a, w)))
    checks.append(_check("convolution_invertible", None, None,
                         passed=min_sv > tol.inv_tol,
                         info=f"min singular value {min_sv:.3e}"))

    # spectrum preservation is reported, not gated: no placement is expected
    # to survive on generic inputs (see the README).  A placement is validated
    # when it agrees on every evaluated sample; draws with small tau(c) are
    # skipped (no y is drawn for them) and do not count.
    (c, y), kept = ba.random_stacks(a, rng, "is", min(samples, 50),
                                    gate=lambda s: np.abs(ba.matvec(h.haar, s)) >= 0.1)
    c = c[kept]
    c = (1.0 / ba.matvec(h.haar, c))[:, None] * c
    sy = ba.spectra(a, y, tol)

    def agreeing(conv):
        return int(np.sum(np.max(np.abs(ba.spectra(a, conv, tol) - sy), axis=-1) < 1e-8))
    placements = {"left": agreeing(d.convolutions(c, y)),
                  "right": agreeing(d.convolutions(y, c))}
    trials = len(c)
    validated = [k for k, v in placements.items() if trials and v == trials]
    checks.append(_check("spectrum_preservation", None, None, gating=False,
                         info={"validated_placement": validated or "none",
                               "agreeing": placements, "trials": trials}))

    (v, x), _ = ba.random_stacks(a, rng, "ie", samples)
    d1, d2, p = jordan_splits(a, v, tol)

    def pair(density, z):
        return ba.matvec(h.haar, ba.products(a, density, z))     # tau(density z)
    neg = np.maximum(-ba.spectra(a, d1, tol)[:, 0], -ba.spectra(a, d2, tol)[:, 0])
    ortho = np.maximum(np.abs(pair(d1, ba.products(a, one - p, x))),
                       np.abs(pair(d2, ba.products(a, p, x))))
    recon = np.abs((pair(d1, x) - pair(d2, x)) - pair(v, x))
    worst = max(np.max(neg), np.max(ortho), np.max(recon), 0.0)
    checks.append(_check("jordan_decomposition", worst, tol.eq_tol * 100))
    return checks


def cmd_verify(args, tol: ToleranceConfig) -> int:
    started = time.time()
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    checks = []
    h = _build_algebra(args, tol)

    rep = verify_axioms(h, tol)
    checks.append(_check("hopf_axioms", rep.max_residual, tol.eq_tol,
                         info=",".join(rep.failing()) or None))
    d = build_dual(h, tol)
    rep_d = verify_axioms(d.hopf, tol)
    checks.append(_check("dual_axioms", rep_d.max_residual, tol.eq_tol,
                         info=f"dual blocks {list(d.hopf.algebra.block_dims)}"))

    checks += _sampled_checks(h, d, rng, args.samples, tol)

    scalar, resid = fourier_of_counit_support(h, d, tol)
    # an imaginary part at round-off level is left out
    imag = f"{scalar.imag:+.2g}j" if abs(scalar.imag) > tol.eq_tol * max(1.0, abs(scalar)) else ""
    checks.append(_check("fourier_counit_support_scalar", resid, tol.eq_tol,
                         info=f"scalar {scalar.real:.6g}{imag}"))

    gns = build_gns(h, tol)
    mu = build_multiplicative_unitary(gns, d, tol)
    checks.append(_check("pentagon", mu.certificates["pentagon"], 1e-8))
    checks.append(_check("leg_spans", mu.certificates["second_leg_span_distance"], 1e-8,
                         info=f"leg dims ({mu.certificates['leg_dim_first']},"
                              f"{mu.certificates['leg_dim_second']})"))
    checks.append(_check("pairing_via_multiplicative_unitary",
                         max(mu.certificates[f"dual_rep_{k}"]
                             for k in ("multiplicative", "star", "unital")), 1e-8))
    fx = fixed_and_cofixed(mu)
    checks.append(_check("fixed_cofixed_eigenvector_property",
                         fx.eigenvector_residual, tol.eq_tol,
                         info=f"dims ({fx.fixed.shape[1]},{fx.cofixed.shape[1]})"))

    report = {"command": "verify", "version": __version__, "seed": seed,
              "checks": checks, "verdicts": {"algebra": h.name}}
    return _emit(report, tol, args.json, started)


def cmd_biinner(args, tol: ToleranceConfig) -> int:
    started = time.time()
    seed = _resolve_seed(args)
    h = _build_algebra(args, tol)
    require_desk_scale(h)
    d = build_dual(h, tol)
    gns = build_gns(h, tol)
    mu = build_multiplicative_unitary(gns, d, tol)
    model = build_group_model(h)
    rep = brute_force_biinner_consistency(h, d, mu, model,
                                          samples=args.samples, seed=seed, tol=tol)
    checks = [
        _check("confusion_diagonal", 0.0 if rep.diagonal else 1.0, 0.5,
               info={"confusion": rep.confusion.tolist()}),
        _check("biinner_commutation", rep.worst_commutation, 1e-8),
    ]
    report = {"command": "biinner", "version": __version__, "seed": seed,
              "checks": checks,
              "verdicts": {"algebra": h.name, "lie_algebra_dim": rep.lie_dim,
                           "samples": rep.samples,
                           "positives_are_identity": rep.positives_are_identity}}
    return _emit(report, tol, args.json, started)


def _load_element(spec: str, algebra) -> "ba.AlgebraElement":
    if spec.startswith("@"):
        doc = read_json_file(spec[1:])
    else:
        try:
            doc = json.loads(spec)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad element JSON: {err}") from err
    return element_from_json(algebra, doc)


def cmd_convolve(args, tol: ToleranceConfig) -> int:
    started = time.time()
    seed = _resolve_seed(args)
    h = _build_algebra(args, tol)
    d = build_dual(h, tol)
    x = _load_element(args.a, h.algebra)
    y = _load_element(args.b, h.algebra)
    conv = d.convolve(x, y)
    checks = []
    verdicts = {"algebra": h.name,
                "a_conv_b": element_to_json(conv),
                "fourier_a": element_to_json(d.fourier(x)),
                "fourier_b": element_to_json(d.fourier(y))}
    if y.allclose(h.algebra.unit(), tol.eq_tol):
        resid = (conv - h.tau(x) * h.algebra.unit()).norm()
        checks.append(_check("unit_law", resid, tol.eq_tol,
                             info=f"tau(a) = {h.tau(x):.6g}"))
    report = {"command": "convolve", "version": __version__, "seed": seed,
              "checks": checks, "verdicts": verdicts}
    return _emit(report, tol, args.json, started)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        tol = ToleranceConfig(args.tol_eq, args.tol_inv, args.tol_psd)
    except ValueError as err:
        parser.error(f"--tol-eq/--tol-inv/--tol-psd: {err}")
    try:
        if args.command == "verify":
            return cmd_verify(args, tol)
        if args.command == "biinner":
            return cmd_biinner(args, tol)
        if args.command == "convolve":
            return cmd_convolve(args, tol)
    except (FqgError, MemoryError) as err:
        if isinstance(err, MemoryError):
            err = ResourceLimit(str(err) or "out of memory")
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001  not a refusal: a fault in fqg
        traceback.print_exc()
        print(f"error: InternalError: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
