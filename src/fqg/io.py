"""JSON serialisation: structure constants, elements, reports.

Complex numbers are [re, im] pairs; matrices are row-major lists of rows.
The schema files shipped under data/ describe the same formats for external
consumers and are used by the test suite to validate emitted documents.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .blockalg import AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig
from .errors import ParseError
from .hopf import HopfAlgebra, verify_axioms


def _c(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m: np.ndarray) -> list:
    m = np.asarray(m, complex)
    return [[_c(z) for z in row] for row in m]


def _vector(v: np.ndarray) -> list:
    return [_c(z) for z in np.asarray(v, complex).reshape(-1)]


def _parse_c(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ParseError(f"expected [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _parse_matrix(rows, shape) -> np.ndarray:
    m = np.array([[_parse_c(z) for z in row] for row in rows], complex)
    if m.shape != shape:
        raise ParseError(f"matrix shape {m.shape} != {shape}")
    return m


def _parse_vector(entries, length) -> np.ndarray:
    v = np.array([_parse_c(z) for z in entries], complex)
    if v.shape != (length,):
        raise ParseError(f"vector length {v.shape[0]} != {length}")
    return v


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def element_to_json(x: AlgebraElement) -> list:
    return [_matrix(b) for b in x.blocks]


def element_from_json(algebra: BlockAlgebra, doc) -> AlgebraElement:
    if not isinstance(doc, list) or len(doc) != algebra.nblocks:
        raise ParseError(f"expected {algebra.nblocks} blocks")
    blocks = [_parse_matrix(rows, (n, n)) for rows, n in zip(doc, algebra.block_dims)]
    return AlgebraElement(algebra, blocks)


# ---------------------------------------------------------------------------
# Hopf algebras (structure constants)
# ---------------------------------------------------------------------------

def hopf_to_json(h: HopfAlgebra) -> dict:
    n = h.algebra.dim
    return {
        "name": h.name,
        "block_dims": list(h.algebra.block_dims),
        "coproduct": _matrix(h.coproduct),
        "counit": _vector(h.counit),
        "antipode": _matrix(h.antipode),
        "haar": _vector(h.haar),
    }


def hopf_from_json(doc: dict, tol: ToleranceConfig = DEFAULT_TOL,
                   validate: bool = True) -> HopfAlgebra:
    """Load a Hopf algebra from structure constants; the axiom checker runs
    before the data is trusted."""
    try:
        dims = tuple(int(d) for d in doc["block_dims"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad block_dims: {err}") from err
    algebra = BlockAlgebra(dims)
    n = algebra.dim
    h = HopfAlgebra(
        algebra,
        _parse_matrix(doc["coproduct"], (n * n, n)),
        _parse_vector(doc["counit"], n),
        _parse_matrix(doc["antipode"], (n, n)),
        _parse_vector(doc["haar"], n),
        name=str(doc.get("name", "ingested")),
        meta={"kind": "ingested"},
    )
    if validate:
        report = verify_axioms(h, tol)
        if not report.passed:
            raise ParseError(
                f"structure constants fail the axioms: {', '.join(report.failing())}")
    return h


def read_json_file(path: str):
    """The JSON document in a file; a missing, unreadable or malformed file
    is a ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err


def load_hopf_file(path: str, tol: ToleranceConfig = DEFAULT_TOL,
                   validate: bool = True) -> HopfAlgebra:
    return hopf_from_json(read_json_file(path), tol, validate)


def bundled_kac_paljutkin_path() -> str:
    return str(resources.files("fqg.data") / "kac_paljutkin.json")


def load_bundled_kac_paljutkin(tol: ToleranceConfig = DEFAULT_TOL) -> HopfAlgebra:
    return load_hopf_file(bundled_kac_paljutkin_path(), tol)


def schema(name: str) -> dict:
    """Load one of the shipped JSON schemas: algebra, element, report."""
    with (resources.files("fqg.data") / f"{name}.schema.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_to_json(report: dict) -> str:
    """Canonical serialisation: sorted keys, fixed separators, no timing."""
    doc = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return _c(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"cannot serialise {type(obj)}")
