"""Output oracle: every operation is checked before its time counts.

Checks are structural and seed-independent (check names and pass flags, leg
dims, fixed/cofixed dims, dual block dims, Lie dimension, a diagonal
confusion matrix, positives_are_identity).  Residuals are checked only
against their own thresholds, so round-off moves do not fail an operation.
Each check function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import re

import jsonschema


def _ints(pattern: str, text) -> list[int] | None:
    m = re.search(pattern, text if isinstance(text, str) else "")
    return [int(x) for x in re.findall(r"\d+", m.group(1))] if m else None


def observe_report(text: str) -> dict:
    """The seed-independent verdicts of a verify or biinner JSON report."""
    doc = json.loads(text)
    checks = {c["name"]: c for c in doc["checks"]}
    seen = {"algebra": doc.get("verdicts", {}).get("algebra"),
            "checks": [c["name"] for c in doc["checks"]],
            "failed_checks": [c["name"] for c in doc["checks"] if not c["passed"]]}
    if doc["command"] == "verify":
        seen["dual_blocks"] = _ints(r"dual blocks \[([\d, ]*)\]",
                                    checks.get("dual_axioms", {}).get("info"))
        seen["leg_dims"] = _ints(r"leg dims \((\d+,\d+)\)",
                                 checks.get("leg_spans", {}).get("info"))
        seen["fixed_cofixed_dims"] = _ints(
            r"dims \((\d+,\d+)\)",
            checks.get("fixed_cofixed_eigenvector_property", {}).get("info"))
    else:
        verdicts = doc.get("verdicts", {})
        seen["lie_dim"] = verdicts.get("lie_algebra_dim")
        seen["positives_are_identity"] = verdicts.get("positives_are_identity")
        seen["samples"] = verdicts.get("samples")
        seen["confusion"] = checks.get("confusion_diagonal", {}).get(
            "info", {}).get("confusion")
    return seen


def check_report(command: str, rc: int, text: str, seed: int, samples: int | None,
                 ref: dict, ref_checks: list[str], schema: dict) -> list[str]:
    """Oracle for one `fqg verify|biinner --json` call."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        doc = json.loads(text)
        jsonschema.validate(doc, schema)
    except (json.JSONDecodeError, jsonschema.ValidationError) as err:
        return problems + [f"report does not validate: {str(err)[:200]}"]
    if doc["command"] != command or doc["seed"] != seed:
        problems.append("report names another command or seed")
    if not doc["passed"]:
        problems.append("report did not pass")
    for c in doc["checks"]:
        if c.get("gating", True) and not c["passed"]:
            problems.append(f"gating check {c['name']} failed")
        if (c.get("residual") is not None and c.get("threshold") is not None
                and c.get("gating", True) and not c["residual"] < c["threshold"]):
            problems.append(f"{c['name']} residual above its threshold")
    seen = observe_report(text)
    if seen["checks"] != ref_checks:
        problems.append(f"check names {seen['checks']} != {ref_checks}")
    if seen["failed_checks"]:
        problems.append(f"checks not passed: {seen['failed_checks']}")
    for key in ("algebra", "dual_blocks", "leg_dims", "fixed_cofixed_dims",
                "lie_dim", "positives_are_identity"):
        if key in ref and seen.get(key) != ref[key]:
            problems.append(f"{key} {seen.get(key)} != reference {ref[key]}")
    if command == "biinner":
        conf = seen["confusion"]
        if not conf or conf[0][1] != 0 or conf[1][0] != 0:
            problems.append(f"confusion matrix {conf} is not diagonal")
        elif (sum(map(sum, conf)) != seen["samples"]
              or samples is not None and seen["samples"] != samples):
            problems.append("sample count differs from the request")
    return problems


def check_structure(op: str, seen: dict, ref: dict) -> list[str]:
    """Oracle for one library call of the structure workload."""
    problems = []
    if op in ("verify_axioms", "dual_verify_axioms"):
        if not seen["passed"]:
            problems.append(f"{op} failing: {seen['failing']}")
        return problems
    for key, val in seen.items():
        if key in ref and val != ref[key]:
            problems.append(f"{op}: {key} {val} != reference {ref[key]}")
    return problems
