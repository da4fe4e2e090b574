"""One cold pass of a workload, or the size-wall probe, in a fresh interpreter.

run.py starts this file once per pass, so the lru_cached structure tensors
and cached_property Gram matrices start empty as they do for a CLI user.
The result is printed as one JSON line, last on standard output.

    python3 perfbench/worker.py pass --workload verify --rungs kp,group:S3 \
        --seed 1 --reference perfbench/reference.json [--trace] [--spans-out F]
    python3 perfbench/worker.py probe --rung group:S4 --seed 1 \
        --reference perfbench/reference.json --headroom-mib 2048
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (sibling module of this script)


def cli_args(rung: str) -> list[str]:
    """'kp' -> --kac-paljutkin; 'group:dihedral:8' -> --group dihedral:8 --algebra group."""
    if rung == "kp":
        return ["--kac-paljutkin"]
    kind, _, group = rung.partition(":")
    return ["--group", group, "--algebra", kind]


def import_fqg():
    import fqg
    src = (ROOT / "src").resolve()
    if src not in Path(fqg.__file__).resolve().parents:
        raise SystemExit(f"fqg imported from {fqg.__file__}, not from {src}")
    return fqg


def versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    from fqg import cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _structure_ops(rung: str):
    """(op name, call(ctx), observe(value)) for one rung of `structure`."""
    from fqg import biinner, duality, groups, hopf, io as fio, multunitary

    def construct(ctx):
        if rung == "kp":
            return fio.load_hopf_file(fio.bundled_kac_paljutkin_path())
        kind, _, group = rung.partition(":")
        build = hopf.group_algebra if kind == "group" else hopf.function_algebra
        return build(groups.by_name(group))

    def axioms(rep):
        return {"passed": bool(rep.passed), "failing": rep.failing()}

    return [
        ("construct", construct,
         lambda h: {"dim": h.algebra.dim, "block_dims": list(h.algebra.block_dims)}),
        ("verify_axioms", lambda c: hopf.verify_axioms(c["construct"]), axioms),
        ("build_dual", lambda c: duality.build_dual(c["construct"]),
         lambda d: {"dual_blocks": list(d.hopf.algebra.block_dims)}),
        ("dual_verify_axioms", lambda c: hopf.verify_axioms(c["build_dual"].hopf), axioms),
        ("cocentre_basis", lambda c: hopf.cocentre_basis(c["construct"]),
         lambda b: {"cocentre_dim": len(b)}),
        ("ksymmetric_basis", lambda c: hopf.ksymmetric_basis(c["construct"]),
         lambda b: {"ksymmetric_dim": len(b)}),
        ("build_gns", lambda c: multunitary.build_gns(c["construct"]),
         lambda g: {"gns_dim": int(g.onb.shape[0])}),
        ("build_group_model", lambda c: biinner.build_group_model(c["construct"]),
         lambda m: {"lie_dim": m.dim, "sign_patterns": len(m.sign_patterns)}),
    ]


def run_structure(rung: str, ref: dict) -> list[dict]:
    results, ctx = [], {}
    for name, call, observe in _structure_ops(rung):
        res = {"rung": rung, "op": name, "ok": False, "seconds": 0.0, "digest": None}
        results.append(res)
        if name != "construct" and "construct" not in ctx:
            res["problems"] = ["not run: construct failed"]
            continue
        if name == "dual_verify_axioms" and "build_dual" not in ctx:
            res["problems"] = ["not run: build_dual failed"]
            continue
        start = time.perf_counter()
        try:
            value = call(ctx)
        except Exception as err:  # noqa: BLE001  an operation failure is a result
            res["seconds"] = time.perf_counter() - start
            res["problems"] = [f"raised {type(err).__name__}: {err}"[:300]]
            continue
        res["seconds"] = time.perf_counter() - start
        ctx[name] = value
        res["observed"] = observe(value)
        res["problems"] = oracle.check_structure(name, res["observed"], ref)
        res["ok"] = not res["problems"]
    return results


def run_command(command: str, rung: str, seed: int, samples: int | None,
                ref: dict, ref_checks: list[str], schema: dict) -> list[dict]:
    argv = [command, *cli_args(rung), "--json", "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    res = {"rung": rung, "op": command, "ok": False, "digest": None}
    start = time.perf_counter()
    try:
        rc, out, err = call_cli(argv)
    except Exception as exc:  # noqa: BLE001  an operation failure is a result
        res["seconds"] = time.perf_counter() - start
        res["problems"] = [f"raised {type(exc).__name__}: {exc}"[:300]]
        return [res]
    res["seconds"] = time.perf_counter() - start
    res["digest"] = hashlib.sha256(out.encode()).hexdigest()
    res["problems"] = oracle.check_report(command, rc, out, seed, samples,
                                          ref, ref_checks, schema)
    if rc != 0 and err:
        res["problems"].append(err.strip()[-300:])
    with contextlib.suppress(ValueError, KeyError, TypeError, AttributeError):
        res["observed"] = oracle.observe_report(out)
    res["ok"] = not res["problems"]
    return [res]


def load_schema() -> dict:
    with open(ROOT / "src" / "fqg" / "data" / "report.schema.json") as fh:
        return json.load(fh)


def run_pass(args) -> dict:
    with open(args.reference) as fh:
        reference = json.load(fh)[args.workload]
    rungs = args.rungs.split(",")
    import_fqg()
    schema = load_schema()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = []
    for rung in rungs:
        ref = reference["rungs"].get(rung, {})
        if tracer is not None:
            tracer.rung = rung
        if args.workload == "structure":
            rung_ops = run_structure(rung, ref)
        else:
            rung_ops = run_command(args.workload, rung, args.seed, args.samples,
                                   ref, reference["checks"], schema)
        if not ref:
            for op in rung_ops:
                op["ok"] = False
                op["problems"].append(f"no reference verdicts for {rung}")
        ops += rung_ops
    out = {"ops": ops, "peak_rss_mb": maxrss_mb(), "versions": versions()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    return out


# ---------------------------------------------------------------------------
# the size-wall probe
# ---------------------------------------------------------------------------

def _address_space_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


def _requested_bytes(err: MemoryError) -> int | None:
    """Size of the refused numpy allocation (shape x itemsize)."""
    total = getattr(err, "_total_size", None)
    if total is not None:
        return int(total)
    if len(err.args) == 2:
        shape, dtype = err.args
        try:
            import numpy as np
            return int(np.prod(shape, dtype=object)) * np.dtype(dtype).itemsize
        except TypeError:
            return None
    return None


def run_probe(args) -> dict:
    """Run `fqg verify` on the probe rung under a soft RLIMIT_AS cap that this
    process sets on itself and lifts afterwards, so an oversized allocation is
    refused by the allocator and never left to the OOM killer."""
    with open(args.reference) as fh:
        reference = json.load(fh)["verify"]
    import_fqg()
    schema = load_schema()
    argv = ["verify", *cli_args(args.rung), "--json", "--seed", str(args.seed)]
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space_bytes() + args.headroom_mib * 2 ** 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    out = {"rung": args.rung, "cap_bytes": cap, "headroom_mib": args.headroom_mib,
           "requested_bytes": None, "type": None, "ok": False}
    start = time.perf_counter()
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        rc, text, err = call_cli(argv)
    except MemoryError as exc:
        out.update(status="memory_error", type=type(exc).__name__,
                   requested_bytes=_requested_bytes(exc))
    except Exception as exc:  # noqa: BLE001  any other failure is recorded
        out.update(status="exception", type=type(exc).__name__,
                   message=str(exc)[:300])
    else:
        if rc == 2:
            out.update(status="refused", message=err.strip()[-300:])
        else:
            problems = oracle.check_report(
                "verify", rc, text, args.seed, None,
                reference["rungs"].get(args.rung, {}), reference["checks"], schema)
            out.update(status="ok" if not problems else "wrong_output",
                       problems=problems, ok=not problems,
                       digest=hashlib.sha256(text.encode()).hexdigest())
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    out["seconds"] = time.perf_counter() - start
    out["peak_rss_mb"] = maxrss_mb()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    ps = sub.add_parser("pass")
    ps.add_argument("--workload", required=True,
                    choices=["structure", "verify", "biinner"])
    ps.add_argument("--rungs", required=True)
    ps.add_argument("--samples", type=int, default=None)
    ps.add_argument("--trace", action="store_true")
    ps.add_argument("--spans-out", default=None)
    pp = sub.add_parser("probe")
    pp.add_argument("--rung", required=True)
    pp.add_argument("--headroom-mib", type=int, required=True)
    for sp in (ps, pp):
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--reference", required=True)
    args = p.parse_args(argv)
    result = run_pass(args) if args.mode == "pass" else run_probe(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
