"""Shared fixtures: every bundled example algebra with its dual, GNS space,
multiplicative unitary and bi-inner group model, built once per session."""

from dataclasses import dataclass

import numpy as np
import pytest

from fqg import (BlockAlgebra, DualHopfAlgebra, HopfAlgebra, build_dual,
                 build_gns, build_group_model, build_kac_paljutkin,
                 build_multiplicative_unitary, function_algebra, group_algebra)
from fqg.biinner import BiInnerGroupModel, exp_element
from fqg.blockalg import AlgebraElement
from fqg.morphisms import AlgebraMap
from fqg.groups import by_name
from fqg.multunitary import GnsSpace, MultiplicativeUnitary

GROUPS = ["Z2", "Z3", "Z4", "S3", "D4"]
ALGEBRA_KEYS = [f"group:{g}" for g in GROUPS] + [f"function:{g}" for g in GROUPS] + ["kp"]


@dataclass
class Workbench:
    key: str
    hopf: HopfAlgebra
    dual: DualHopfAlgebra
    gns: GnsSpace
    mu: MultiplicativeUnitary
    model: BiInnerGroupModel


def _build(key: str) -> Workbench:
    if key == "kp":
        h = build_kac_paljutkin()
    else:
        kind, _, gname = key.partition(":")
        g = by_name(gname)
        h = group_algebra(g) if kind == "group" else function_algebra(g)
    d = build_dual(h)
    gns = build_gns(h)
    mu = build_multiplicative_unitary(gns, d)
    model = build_group_model(h)
    return Workbench(key, h, d, gns, mu, model)


@pytest.fixture(scope="session")
def workbenches() -> dict[str, Workbench]:
    return {key: _build(key) for key in ALGEBRA_KEYS}


@pytest.fixture(scope="session")
def kp(workbenches) -> Workbench:
    return workbenches["kp"]


@pytest.fixture(scope="session")
def gs3(workbenches) -> Workbench:
    return workbenches["group:S3"]


@pytest.fixture(scope="session")
def fs3(workbenches) -> Workbench:
    return workbenches["function:S3"]


@pytest.fixture(scope="session")
def gz2(workbenches) -> Workbench:
    return workbenches["group:Z2"]


@pytest.fixture(scope="session")
def s4_duals() -> dict[str, DualHopfAlgebra]:
    """The duals of C[S4] and C(S4), the largest rung of the ladder (N = 24)."""
    g = by_name("S4")
    return {"group:S4": build_dual(group_algebra(g)),
            "function:S4": build_dual(function_algebra(g))}


def _group_likes(wb: Workbench) -> list[AlgebraElement]:
    """The group-likes of wb's algebra, the characters of its dual: one per
    1x1 block b of the dual, the u with beta(u, xhat) = xhat_b for all xhat."""
    ahat = wb.dual.hopf.algebra
    out = []
    for off, d in zip(ahat.offsets, ahat.block_dims):
        if d == 1:
            chi = np.zeros(ahat.dim)
            chi[off] = 1.0
            out.append(wb.hopf.algebra.from_coords(np.linalg.solve(wb.dual.from_dual_mat.T, chi)))
    return out


@pytest.fixture(scope="session")
def group_likes(workbenches) -> dict[str, list[AlgebraElement]]:
    return {key: _group_likes(wb) for key, wb in workbenches.items()}


@pytest.fixture(scope="session")
def outer_automorphisms(workbenches) -> dict[str, list[AlgebraMap]]:
    """delta_x -> delta_(g^-1 x g) on C(S3) and C(D4), one per non-central g:
    Hopf *-automorphisms that are not inner."""
    out = {}
    for key in ("function:S3", "function:D4"):
        a = workbenches[key].hopf.algebra
        grp = workbenches[key].hopf.meta["group"]
        n = grp.order
        conj = [[grp.mul(grp.mul(grp.inv(g), x), g) for x in range(n)] for g in range(n)]
        out[key] = [AlgebraMap(a, a, np.eye(n)[perm]) for perm in conj
                    if perm != list(range(n))]
    return out


def _hard_samples(wb: Workbench, us: list[AlgebraElement],
                  rng: np.random.Generator) -> list[AlgebraMap]:
    """Ad of every group-like u, and of u times two planted members of G_c
    (a sign pattern times an exponential of the Lie algebra)."""
    model = wb.model
    patterns = model.sign_patterns
    out = []
    for u in us:
        out.append(AlgebraMap.ad(u))
        for _ in range(2):
            z = wb.hopf.algebra.from_coords(patterns[int(rng.integers(len(patterns)))])
            member = z * exp_element(model.random_element(rng)) if model.dim else z
            out.append(AlgebraMap.ad(u * member))
    return out


@pytest.fixture(scope="session")
def hard_samples():
    """The function hard_samples(wb, group_likes, rng) behind criterion 12's
    group-like and planted samples."""
    return _hard_samples
