"""The fqg benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory and
fqg is imported from its `src/`.  Each pass runs in a fresh interpreter
(worker.py) and passes repeat, in a closed loop of one caller, while the
next pass is expected to end within --seconds (at least one pass).  The
untraced run measures set-up and the end-to-end metrics; the traced run
makes one untraced and one traced pass and prints the per-layer metrics and
the tracing overhead.
The size-wall probe, when the workload has one, runs once per run in its own
interpreter.  Metric names and units come from BENCHMARK.json; the last line
of standard output is the result, and a full record of the run is written
to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RESERVE_S = 10.0          # time kept back for the probe and the report


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no interpreter, ...)."""


def _parse(argv):
    p = argparse.ArgumentParser(description="fqg benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--rungs", help="comma-separated rungs instead of the spec's")
    p.add_argument("--probe", help="probe rung instead of the spec's, or 'none'")
    p.add_argument("--samples", type=int,
                   help="--samples passed to the command instead of the spec's")
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="reference verdicts (default: perfbench/reference.json)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def time_import(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until `import fqg` returns."""
    code = ("import time, fqg; t = time.time(); "
            "print(repr(t)); print(fqg.__file__)")
    start = time.time()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import fqg failed: {proc.stderr.strip()[-300:]}")
    stamp, path = proc.stdout.split()
    if ROOT / "src" not in Path(path).resolve().parents:
        raise BenchError(f"fqg imported from {path}, not from {ROOT / 'src'}")
    return float(stamp) - start


def run_worker(argv: list[str], env: dict, timeout: float) -> tuple[dict | None, str]:
    """Run worker.py; (result, error text).  A timed-out worker is killed and
    waited for by subprocess.run."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker {argv[0]} timed out after {timeout:.0f}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"worker {argv[0]} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), ""


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    """HEAD of the repository, read from .git without running git; None in a
    checkout that is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over src/fqg, so a run names its code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fqg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    blas_env = {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "blas_env": blas_env, "commit": _commit(),
            "src_sha256": _source_digest()}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mark_digest_mismatches(passes: list[dict]) -> None:
    """A report that differs from the first pass's for the same seed fails."""
    first = {(op["rung"], op["op"]): op["digest"] for op in passes[0]["ops"]}
    for p in passes[1:]:
        for op in p["ops"]:
            want = first.get((op["rung"], op["op"]))
            if op["digest"] is not None and want is not None and op["digest"] != want:
                op["ok"] = False
                op.setdefault("problems", []).append(
                    "report not byte-identical to the first pass")


def max_dim_verified(passes: list[dict], probe: dict | None, dims: dict) -> int:
    """Largest N whose operations all passed in every pass (probe included)."""
    ok: dict[str, bool] = {}
    for p in passes:
        for op in p["ops"]:
            ok[op["rung"]] = ok.get(op["rung"], True) and op["ok"]
    if probe is not None:
        ok[probe["rung"]] = probe["ok"]
    return max((dims.get(r, 0) for r, good in ok.items() if good), default=0)


def completed_ratio(passes: list[dict], probe: dict | None) -> float:
    """Worst pass's share of operations completed and passing the oracle,
    the probe counted with each pass."""
    extra_ok = int(probe["ok"]) if probe is not None else 0
    extra_n = 1 if probe is not None else 0
    return min((sum(op["ok"] for op in p["ops"]) + extra_ok)
               / (len(p["ops"]) + extra_n) for p in passes)


def _benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def _failed_pass(ops_expected: list[tuple[str, str]], error: str) -> dict:
    return {"ops": [{"rung": r, "op": o, "ok": False, "seconds": 0.0,
                     "digest": None, "problems": [error]} for r, o in ops_expected],
            "peak_rss_mb": 0.0}


def run(args) -> dict:
    if not (ROOT / "src" / "fqg" / "__init__.py").is_file():
        raise BenchError(f"no fqg sources under {ROOT / 'src'}")
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {args.workload!r}")
    units = _benchmark_metrics()
    wl = spec["workloads"][args.workload]
    rungs = args.rungs.split(",") if args.rungs else wl["rungs"]
    probe_rung = wl["probe"] if args.probe is None else (
        None if args.probe == "none" else args.probe)
    with open(args.reference) as fh:
        reference = json.load(fh)
    dims = {r: v["dim"] for r, v in reference[args.workload]["rungs"].items()}
    if probe_rung is not None:
        dims[probe_rung] = reference["verify"]["rungs"].get(probe_rung, {}).get("dim", 0)
    ops_expected = [(r, o) for r in rungs for o in wl.get("ops", [args.workload])]
    env = _env()
    started = time.monotonic()
    deadline = started + spec["run_deadline_s"]
    meta = metadata(args)

    setup = [] if args.trace else [time_import(env)
                                   for _ in range(spec["setup_repeats"])]
    common = ["--workload", args.workload, "--rungs", ",".join(rungs),
              "--seed", str(args.seed), "--reference", args.reference]
    samples = args.samples if args.samples is not None else wl.get("samples")
    if samples is not None:
        common += ["--samples", str(samples)]

    # The host's speed drifts over seconds to tens of seconds, so wall_s is
    # the mean over as many passes as the window holds: a pass is started
    # while it is expected (from the last pass) to end within --seconds.
    # A traced run makes one untraced pass.
    passes: list[dict] = []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res, err = run_worker(["pass", *common], env,
                              deadline - t0 - RESERVE_S)
        passes.append(res if res is not None else _failed_pass(ops_expected, err))
        now = time.monotonic()
        last = now - t0
        if (res is None or args.trace
                or now + last > measure_start + args.seconds
                or now + last > deadline - RESERVE_S):
            break

    traced = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        res, err = run_worker(["pass", *common, "--trace", "--spans-out",
                               str(spans_path)], env,
                              deadline - time.monotonic() - RESERVE_S)
        traced = res if res is not None else _failed_pass(ops_expected, err)

    probe = None
    if probe_rung is not None:
        res, err = run_worker(
            ["probe", "--rung", probe_rung, "--seed", str(args.seed),
             "--reference", args.reference,
             "--headroom-mib", str(spec["probe_cap"]["headroom_mib"])],
            env, deadline - time.monotonic() - 2.0)
        probe = res if res is not None else {
            "rung": probe_rung, "ok": False, "status": "crashed", "error": err,
            "requested_bytes": None}

    all_passes = passes + ([traced] if traced is not None else [])
    mark_digest_mismatches(all_passes)
    for p in all_passes:
        p["wall_s"] = sum(op["seconds"] for op in p["ops"] if op["ok"])
    # attempted/failed count the must-complete operations; the probe's outcome
    # is a measurement (completed_ratio, max_dim_verified, the meta line), and
    # only a crash or a wrong report from it makes the run incorrect
    attempted = sum(len(p["ops"]) for p in all_passes)
    failed = sum(not op["ok"] for p in all_passes for op in p["ops"])
    probe_bad = probe is not None and probe["status"] in ("crashed", "wrong_output")
    correct = failed == 0 and not probe_bad

    untraced_wall = statistics.fmean(p["wall_s"] for p in passes)
    if args.trace:
        layers = dict(traced.get("layers", {}))
        requested = (probe or {}).get("requested_bytes") or 0
        layers["probe.requested_gib"] = requested / 2 ** 30
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        values, wanted = layers, units["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": untraced_wall,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "completed_ratio": completed_ratio(passes, probe),
            "max_dim_verified": max_dim_verified(passes, probe, dims),
        }
        wanted = units["end_to_end"]
    missing = set(wanted) - set(values)
    if missing and correct:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in wanted.items()}

    first_ok = next((p for p in all_passes if "versions" in p), {})
    meta.update(versions=first_ok.get("versions"), setup_s=setup,
                pass_wall_s=[p["wall_s"] for p in passes],
                traced_wall_s=traced["wall_s"] if traced else None,
                run_s=time.monotonic() - started, probe=probe,
                ops=[{k: op.get(k) for k in ("rung", "op", "ok", "seconds",
                                             "digest", "problems")}
                     for p in all_passes for op in p["ops"]])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1) + "\n")
    summary = {k: meta[k] for k in ("workload", "seed", "trace", "nproc",
                                    "cpu_model", "blas_env", "commit", "versions")}
    summary["probe"] = None if probe is None else {
        k: probe.get(k) for k in ("rung", "status", "type", "requested_bytes",
                                  "cap_bytes")}
    summary["problems"] = sorted({f"{op['rung']} {op['op']}: {pr}"
                                  for p in all_passes for op in p["ops"]
                                  for pr in op.get("problems", [])})
    print(json.dumps({"meta": summary}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
