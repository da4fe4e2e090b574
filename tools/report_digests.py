"""Digests of the seeded `fqg` reports, to check that a change leaves them alone.

    python tools/report_digests.py OUT.json [--samples 50] [--algebras kp,...]
    python tools/report_digests.py --compare A.json B.json

The first form runs `fqg verify --json` (its default 100 samples) and
`fqg biinner --json --samples N` at seeds 1 and 7 on each algebra, in-process
from the `src/` next to this directory, and writes one entry per report:
the sha256 of the report text, the sha256 of the report with its float
leaves blanked out (every verdict, flag, count and confusion matrix), the
float leaves themselves by path and every other leaf (string, int, bool,
null) by path, so that a comparison can name what moved.  The default
algebras are the 11 bundled workbenches (kp and the group and function algebras of Z2, Z3, Z4, S3, D4),
the group and function algebras of dihedral:6, which at N = 12 are the
largest that `fqg biinner` accepts, and those of dihedral:8 (N = 16) and S4
(N = 24, the rung of the verify benchmark's size probe), whose biinner
entries record the refusal above N = 12.

--compare lists the reports of A and B that differ, whether their non-float
content differs, and the largest move of a float leaf; under a report whose
non-float content differs it names each differing non-float leaf with its
value in A and in B.  It exits 1 when any report differs in its non-float
content or is missing from one side.
Needs numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ["Z2", "Z3", "Z4", "S3", "D4"]
SEEDS = (1, 7)
ALGEBRAS = ["kp"] + [f"{kind}:{g}" for kind in ("group", "function")
                     for g in GROUPS + ["dihedral:6", "dihedral:8", "S4"]]


def algebra_args(key: str) -> list[str]:
    """'kp' -> --kac-paljutkin; 'group:S3' -> --group S3 --algebra group."""
    if key == "kp":
        return ["--kac-paljutkin"]
    kind, _, group = key.partition(":")
    return ["--group", group, "--algebra", kind]


def leaves(doc, path: str = "") -> dict:
    """Every leaf of a JSON document by its path (keys and list indices
    joined by '/')."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return {k: v for key, sub in items for k, v in leaves(sub, f"{path}/{key}").items()}
    return {path: doc}


def float_leaves(doc) -> dict[str, float]:
    """The float leaves of a JSON document; ints and booleans are not floats."""
    return {k: v for k, v in leaves(doc).items() if isinstance(v, float)}


def blank_floats(doc):
    """The document with every float replaced by None."""
    if isinstance(doc, dict):
        return {k: blank_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [blank_floats(v) for v in doc]
    return None if isinstance(doc, float) else doc


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_report(argv: list[str]) -> dict:
    """One command's digests; a command that prints no report (it was
    refused) is digested by its exit code and error message instead."""
    from fqg import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = {"no_report": err.getvalue().strip()}
    return {"exit": rc, "sha256": sha256(text),
            "nonfloat_sha256": sha256(json.dumps(blank_floats(doc), sort_keys=True)),
            "floats": float_leaves(doc),
            "nonfloats": {k: v for k, v in leaves(doc).items() if not isinstance(v, float)}}


def collect(algebras: list[str], samples: int) -> dict:
    reports = {}
    for key in algebras:
        for seed in SEEDS:
            common = [*algebra_args(key), "--json", "--seed", str(seed)]
            reports[f"verify {key} seed {seed}"] = run_report(["verify", *common])
            reports[f"biinner {key} seed {seed} samples {samples}"] = run_report(
                ["biinner", *common, "--samples", str(samples)])
    return reports


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Lines describing every report that differs, and whether any differs
    beyond its float leaves (or exists on one side only)."""
    lines, structural, worst, differ = [], False, 0.0, 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'B' if name not in a else 'A'}")
            structural, differ = True, differ + 1
            continue
        ra, rb = a[name], b[name]
        if ra["sha256"] == rb["sha256"]:
            continue
        differ += 1
        same_shape = ra["nonfloat_sha256"] == rb["nonfloat_sha256"] and \
            ra["floats"].keys() == rb["floats"].keys()
        structural |= not same_shape
        moves = {k: abs(ra["floats"][k] - rb["floats"][k])
                 for k in ra["floats"].keys() & rb["floats"].keys()}
        path, move = max(moves.items(), key=lambda kv: kv[1], default=("-", 0.0))
        worst = max(worst, move)
        what = "floats only" if same_shape else "NON-FLOAT CONTENT DIFFERS"
        lines.append(f"{name}: {what}; largest float move {move:.3e} at {path}")
        if not same_shape:
            lines += nonfloat_changes(ra, rb)
    lines.append(f"{len(a)} vs {len(b)} reports, {differ} differ, "
                 f"largest float move {worst:.3e}")
    return lines, structural


def nonfloat_changes(ra: dict, rb: dict) -> list[str]:
    """One line per leaf of two digests of a report that is not a float on
    both sides and differs: its path, its value in A and its value in B
    ('absent' where a side lacks it)."""
    if "nonfloats" not in ra or "nonfloats" not in rb:
        return ["  (no non-float leaves recorded; rerun the digests)"]
    a = ra["floats"] | ra["nonfloats"]
    b = rb["floats"] | rb["nonfloats"]
    floats = ra["floats"].keys() & rb["floats"].keys()
    missing = object()
    show = lambda doc, key: json.dumps(doc[key]) if key in doc else "absent"
    return [f"  {key}: {show(a, key)} -> {show(b, key)}" for key in sorted(a.keys() | b.keys())
            if key not in floats and a.get(key, missing) != b.get(key, missing)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", nargs="?", help="where to write the digests (JSON)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--samples", type=int, default=50, help="biinner --samples")
    p.add_argument("--algebras", default=",".join(ALGEBRAS))
    args = p.parse_args(argv)
    if args.compare:
        docs = [json.loads(Path(f).read_text()) for f in args.compare]
        lines, structural = compare(*docs)
        print("\n".join(lines))
        return 1 if structural else 0
    if not args.out:
        p.error("give OUT.json or --compare A B")
    sys.path.insert(0, str(ROOT / "src"))
    reports = collect(args.algebras.split(","), args.samples)
    Path(args.out).write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"{len(reports)} reports -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
