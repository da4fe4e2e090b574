"""Per-layer tracing of fqg from outside the library.

A Tracer replaces the public functions of each fqg layer by wrappers that
record spans (name, start, end, parent span, rung) in memory.  A function is
rebound in every fqg module that imported it, so `verify_axioms` is traced
whether it is called from cli, io, duality or kacpaljutkin.  Self time is
computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import Counter

# layer name -> functions it covers, as "module:attribute" or
# "module:Class.method"
SPAN_LAYERS = {
    "hopf.verify_axioms": ["fqg.hopf:verify_axioms"],
    "hopf.construct": ["fqg.hopf:group_algebra", "fqg.hopf:function_algebra"],
    "hopf.compute_haar": ["fqg.hopf:compute_haar"],
    "hopf.cocentre_basis": ["fqg.hopf:cocentre_basis"],
    "hopf.ksymmetric_basis": ["fqg.hopf:ksymmetric_basis"],
    "blockalg.structure_tensors": ["fqg.blockalg:left_mult_tensor",
                                   "fqg.blockalg:right_mult_tensor",
                                   "fqg.blockalg:tensor_perm",
                                   "fqg.blockalg:flip_perm"],
    "wedderburn.wedderburn": ["fqg.wedderburn:wedderburn"],
    "duality.build_dual": ["fqg.duality:build_dual"],
    "duality.convolve": ["fqg.duality:DualHopfAlgebra.convolve"],
    "duality.jordan_decompose": ["fqg.duality:jordan_decompose"],
    "groups.by_name": ["fqg.groups:by_name"],
    "io.load_hopf_file": ["fqg.io:load_hopf_file"],
    "io.report_to_json": ["fqg.io:report_to_json"],
    "multunitary.build_multiplicative_unitary":
        ["fqg.multunitary:build_multiplicative_unitary"],
    "multunitary.fixed_and_cofixed": ["fqg.multunitary:fixed_and_cofixed"],
    "multunitary.build_gns": ["fqg.multunitary:build_gns"],
    "multunitary.commutant": ["fqg.multunitary:solve_commutant_partner",
                              "fqg.multunitary:commutation_test",
                              "fqg.multunitary:path_in_commutant"],
    "morphisms.hopf_flags_fast": ["fqg.morphisms:hopf_flags_fast"],
    "morphisms.inner_implementer": ["fqg.morphisms:inner_implementer"],
    "morphisms.induced_dual_action": ["fqg.morphisms:induced_dual_action"],
    "morphisms.ad": ["fqg.morphisms:AlgebraMap.ad"],
    "biinner.in_identity_component": ["fqg.biinner:in_identity_component"],
    "biinner.classify_biinner": ["fqg.biinner:classify_biinner"],
    "biinner.build_group_model": ["fqg.biinner:build_group_model"],
    "biinner.brute_force_biinner_consistency":
        ["fqg.biinner:brute_force_biinner_consistency"],
    "cli": ["fqg.cli:cmd_verify", "fqg.cli:cmd_biinner"],
}

# lru_cached structure tensors: only the first (missing) call is a span
CACHED_LAYERS = {"blockalg.structure_tensors"}

# counters at the numpy/scipy boundary, as called from fqg
LAPACK_COUNTS = {
    "lapack.svd.calls": ["numpy.linalg:svd", "numpy.linalg:matrix_rank",
                         "numpy.linalg:pinv", "scipy.linalg:svd"],
    "lapack.eigh.calls": ["numpy.linalg:eigh", "numpy.linalg:eigvalsh",
                          "scipy.linalg:eigh"],
    "lapack.schur.calls": ["scipy.linalg:schur"],
}

MU_LAYER = "multunitary.build_multiplicative_unitary"
MEMBERSHIP_LAYER = "biinner.in_identity_component"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(target: str):
    """'pkg.mod:Class.attr' -> (owner object, attribute name, raw value)."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Spans and counters of one traced pass; install() patches, uninstall()
    restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, rung]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rung: str | None = None
        self.rss_rise_mb = 0.0
        self.membership_true = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def _rebind(self, owner, attr: str, old, new) -> None:
        """Replace `old` by `new` on owner and in every fqg module bound to it."""
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fqg" or name.startswith("fqg.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is old and (mod, key) != (owner, attr):
                    self._patches.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self) -> None:
        for layer, targets in SPAN_LAYERS.items():
            for target in targets:
                owner, attr, raw = _resolve(target)
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(layer, raw.__func__))
                else:
                    new = self._span(layer, raw)
                self._rebind(owner, attr, raw, new)
        for counter, targets in LAPACK_COUNTS.items():
            for target in targets:
                owner, attr, raw = _resolve(target)
                self._rebind(owner, attr, raw, self._count(counter, raw))
        cls = importlib.import_module("fqg.blockalg").AlgebraElement
        self._rebind(cls, "__init__", cls.__dict__["__init__"],
                     self._count("blockalg.elements", cls.__dict__["__init__"]))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------
    def _count(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, layer: str, fn):
        spans, stack = self.spans, self.stack
        cached = layer in CACHED_LAYERS
        is_mu = layer == MU_LAYER
        is_membership = layer == MEMBERSHIP_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, self.rung])
            stack.append(idx)
            misses = fn.cache_info().misses if cached else 0
            rss0 = _maxrss_mb() if is_mu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
                if is_mu:
                    self.rss_rise_mb += _maxrss_mb() - rss0
            if cached and fn.cache_info().misses == misses:
                del spans[idx]          # a cache hit: no work, no span
            if is_membership and result[0]:
                self.membership_true += 1
            return result
        return wrapper

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """.s (inclusive, nested same-layer calls once), .self_s, .calls."""
        incl = dict.fromkeys(SPAN_LAYERS, 0.0)
        self_s = dict.fromkeys(SPAN_LAYERS, 0.0)
        calls = dict.fromkeys(SPAN_LAYERS, 0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            if not self._has_ancestor(parent, name):
                incl[name] += end - start
        out: dict[str, float] = {}
        for name in SPAN_LAYERS:
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for counter in list(LAPACK_COUNTS) + ["blockalg.elements"]:
            out[counter] = self.counts[counter]
        n_member = calls[MEMBERSHIP_LAYER]
        out[f"{MEMBERSHIP_LAYER}.true_ratio"] = (
            self.membership_true / n_member if n_member else 0.0)
        out[f"{MU_LAYER}.rss_rise_mb"] = self.rss_rise_mb
        return out

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, rung) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "rung": rung}) + "\n")
