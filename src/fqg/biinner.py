"""Bi-inner Hopf *-automorphisms.

Two independent routes decide whether a map is bi-inner:

* definitional route: the map is a Hopf *-automorphism, it is inner, and its
  induced dual action is inner on the dual algebra;
* group route: the map is conjugation by a unitary of G_c, the whole group
  of kappa-symmetric unitaries commuting with the cocentre.  Its identity
  component is the exponential image of the Lie algebra the group model
  computes, but G_c can be larger: two of the four group-likes of the
  Kac-Paljutkin algebra implement the same non-trivial bi-inner map, while
  that Lie algebra is 0.

The consistency harness samples unitaries, runs both routes and reports the
confusion matrix, which must be diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blockalg as ba
from .blockalg import AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig
from .duality import DualHopfAlgebra
from .errors import NotInLieAlgebra, PreconditionFailed
from .hopf import HopfAlgebra, cocentre_basis
from .morphisms import (AlgebraMap, hopf_flags_fast, induced_dual_action,
                        inner_implementer)
from .multunitary import (MultiplicativeUnitary, commutation_test,
                          path_in_commutant, solve_commutant_partner)


@dataclass(eq=False)
class BiInnerGroupModel:
    """Model of G_c, the unitary group behind the bi-inner maps.

    lie_basis spans {X : X* = -X, kappa(X*) = X, [X, c] = 0 for cocentral c}
    over the reals and lie_real holds its realified coordinates as
    orthonormal columns; sign_patterns enumerates the central +-1 elements
    of G_c (one sign per antipode-fixed block, bit i of the index flipping
    the i-th fixed block).
    constant_stack is the realified matrix of the alpha-independent
    constraints (kappa-symmetry and cocentre commutators), reused by every
    membership query.
    """

    hopf: HopfAlgebra
    lie_basis: list[AlgebraElement]
    lie_real: np.ndarray
    cocentre: list[AlgebraElement]
    kappa_block_map: list[int]
    sign_patterns: list[AlgebraElement]
    constant_stack: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.lie_basis)

    def project_defect(self, x: AlgebraElement) -> float:
        """Distance of x from the real span of the Lie basis."""
        vec = np.concatenate([x.coords().real, x.coords().imag])
        return float(np.linalg.norm(vec - self.lie_real @ (self.lie_real.T @ vec)))

    def random_element(self, rng: np.random.Generator) -> AlgebraElement:
        x = self.hopf.algebra.zero()
        for c, b in zip(rng.standard_normal(max(self.dim, 1)), self.lie_basis):
            x = x + float(c) * b
        return x


def _commutator_stack(a: BlockAlgebra, elements: list[AlgebraElement]) -> np.ndarray:
    """Complex stack of w -> [w, c] = w*c - c*w over the given elements."""
    coords = np.array([c.coords() for c in elements]).reshape(-1, a.dim)
    comm = ba.right_mult_tensor(a) - ba.left_mult_tensor(a)
    return np.tensordot(coords, comm, axes=(1, 0)).reshape(-1, a.dim)


def build_group_model(h: HopfAlgebra) -> BiInnerGroupModel:
    a = h.algebra
    n = a.dim
    coc = cocentre_basis(h)

    # kappa(w*) - w = K S conj(w) - w is real-linear; commutators are complex
    ks = h.antipode @ h.star_mat
    ktwist_real = ba.realify_antilinear(ks) - np.eye(2 * n)
    comm_real = ba.realify_complex_linear(_commutator_stack(a, coc))
    constant_stack = np.vstack([ktwist_real, comm_real])

    # the Lie algebra additionally requires skewness: w + w* = 0
    skew_real = ba.realify_antilinear(h.star_mat) + np.eye(2 * n)
    null = ba.null_space(np.vstack([skew_real, constant_stack]))
    lie = [a.from_coords(ba.real_vec_to_coords(null[:, i])) for i in range(null.shape[1])]

    # antipode action on the minimal central projections
    units = a.block_unit_coords()
    hits = np.linalg.norm((h.antipode @ units)[:, :, None] - units[:, None, :], axis=0) < 1e-8
    kmap = [int(np.argmax(row)) if row.any() else -1 for row in hits]

    fixed_blocks = [b for b, c in enumerate(kmap) if c == b]
    unit = a.unit_coords()
    patterns = []
    for bits in range(1 << len(fixed_blocks)):
        sign = np.ones(a.nblocks)
        sign[[b for i, b in enumerate(fixed_blocks) if bits >> i & 1]] = -1.0
        patterns.append(a.from_coords(sign[a.layout.block_of] * unit))
    model = BiInnerGroupModel(h, lie, null, coc, kmap, patterns, constant_stack)

    # closure under the commutator bracket
    for i, x in enumerate(lie):
        for y in lie[i + 1:]:
            br = x * y - y * x
            defect = model.project_defect(br)
            if defect > 1e-8 * max(1.0, br.norm()):
                raise NotInLieAlgebra(f"bracket leaves the constraint space: {defect:.2e}")
    return model


# Coefficients of the degree-13 Pade approximant of exp and the 1-norm to
# which a stack is scaled before it is used: there its backward error is below
# the unit round-off (Higham 2005, "The scaling and squaring method for the
# matrix exponential revisited").
_PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600., 670442572800.,
           33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.)
_THETA13 = 5.371920351148152


def _expm_stack(s: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (k, m, m) stack by scaling and squaring: one
    scaling for the stack, the degree-13 Pade approximant, then squarings."""
    norm = float(np.abs(s).sum(axis=-2).max(initial=0.0))
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = s / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(s.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    odd = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
               + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    even = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        out = out @ out
    return out


def exp_element(x: AlgebraElement) -> AlgebraElement:
    return x.blockwise(_expm_stack)


def sample_identity_component(model: BiInnerGroupModel, x: AlgebraElement,
                              t: float) -> AlgebraElement:
    """exp(t x) for x in the Lie algebra: a kappa-symmetric unitary commuting
    with the cocentre."""
    if model.project_defect(x) > 1e-7 * max(1.0, x.norm()):
        raise NotInLieAlgebra("element outside the computed Lie algebra")
    v = exp_element(t * x)
    h = model.hopf
    defect = h.ksym_defect(v)
    if defect >= 1e-7 * max(1.0, v.norm()):
        raise NotInLieAlgebra(f"exp(t x) is not kappa-symmetric: defect {defect:.3e}")
    return v


# ---------------------------------------------------------------------------
# group membership
# ---------------------------------------------------------------------------

def _in_group(model: BiInnerGroupModel, u: AlgebraElement, tol: float) -> bool:
    h = model.hopf
    if h.ksym_defect(u) > tol:
        return False
    return all((u * c - c * u).norm() <= tol for c in model.cocentre)


def in_identity_component(alpha: AlgebraMap, model: BiInnerGroupModel,
                          rng: np.random.Generator | None = None):
    """Decide alpha = Ad(v) for v in G_c, the group of kappa-symmetric
    unitaries that commute with the cocentre (the whole group, not only its
    identity component; the name is kept for its callers).

    If alpha = Ad(v0) with v0 in G_c, every intertwiner w of alpha that
    meets the constraints of G_c is v0 z with z central and kappa(z*) = z,
    so |z| is central, positive and kappa-invariant, and the blockwise
    unitarisation w |z|^-1 of an invertible one lies in G_c.  One membership
    test of that unitary therefore decides the question.

    Returns (verdict, info); info carries the witness v when the verdict is
    True and the reason otherwise.
    """
    rng = rng or np.random.default_rng(0x1D)
    h = model.hopf
    a = h.algebra
    n = a.dim

    # intertwiner condition alpha(e_k) w - w e_k = 0, row block k of the stack
    rows = np.tensordot(alpha.matrix, ba.left_mult_tensor(a), axes=(0, 0)) \
        - ba.right_mult_tensor(a)
    stack = np.vstack([ba.realify_complex_linear(rows.reshape(n * n, n)),
                       model.constant_stack])
    null = ba.null_space(stack)
    if null.shape[1] == 0:
        return False, {"reason": "no kappa-symmetric intertwiner"}

    # the best conditioned of 16 random intertwiners (the first maximum wins)
    cands = ba.real_vec_to_coords(null @ rng.standard_normal((16, null.shape[1])).T)
    ratio = ba.smallest_svs(a, cands.T) / np.maximum(1.0, np.linalg.norm(cands, axis=0))
    best = int(np.argmax(ratio))
    if not ratio[best] > 1e-6:
        return False, {"reason": "no invertible kappa-symmetric intertwiner"}
    w_el = a.from_coords(cands[:, best])

    # unitarise: w*w is central, so the polar part is per-block scaling
    def unitarise(w):
        trace = np.trace(w.conj().swapaxes(-1, -2) @ w, axis1=-2, axis2=-1).real
        return w / np.sqrt(trace / w.shape[-1])[:, None, None]
    v = w_el.blockwise(unitarise)

    if not _in_group(model, v, 1e-7 * max(1.0, v.norm())):
        return False, {"reason": "the unitarised intertwiner leaves the group"}
    return True, {"witness": v}


# ---------------------------------------------------------------------------
# the end-to-end classifier
# ---------------------------------------------------------------------------

@dataclass
class BiInnerVerdict:
    is_biinner: bool
    reason: str
    u: AlgebraElement | None = None
    uhat: AlgebraElement | None = None
    certificates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"is_biinner": self.is_biinner, "reason": self.reason}
        certs = {}
        if "commutation" in self.certificates:
            certs["commutation"] = {k: float(v) for k, v in
                                    self.certificates["commutation"].items()}
        if "path_residuals" in self.certificates:
            certs["path_residuals"] = {str(r): float(v) for r, v in
                                       self.certificates["path_residuals"].items()}
        for key in ("partner_implements_dual", "exp_membership"):
            if key in self.certificates:
                val = self.certificates[key]
                certs[key] = float(val) if isinstance(val, float) else bool(val)
        out["certificates"] = certs
        return out


def _unitary_in_span(sols: list[AlgebraElement], rng: np.random.Generator,
                     tol: float = 1e-8):
    """A unitary element of a *-closed solution space, by polar projection."""
    if not sols:
        return None
    a = sols[0].algebra
    span = np.column_stack([s.coords() for s in sols])
    for _ in range(12):
        coef = rng.standard_normal(len(sols)) + 1j * rng.standard_normal(len(sols))
        w = a.from_coords(span @ coef)
        if not w.is_invertible(1e-6):
            continue
        u = w.blockwise(_polar_unitary)
        # the polar part must stay inside the solution space
        resid, *_ = np.linalg.lstsq(span, u.coords(), rcond=None)
        if np.linalg.norm(span @ resid - u.coords()) < tol * max(1.0, u.norm()):
            return u
    return None


def _polar_unitary(w: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each matrix in a stack."""
    uu, _, vvh = np.linalg.svd(w)
    return uu @ vvh


def classify_biinner(alpha: AlgebraMap, h: HopfAlgebra, d: DualHopfAlgebra,
                     mu: MultiplicativeUnitary | None = None,
                     model: BiInnerGroupModel | None = None,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     seed: int = 0xB11) -> BiInnerVerdict:
    """Definitional bi-inner classification with certificates.

    When a multiplicative unitary is supplied, the verdict carries the
    commutation certificate with the aligned dual partner and the path
    residuals at r in {0.25, 0.5, 0.75, 1}; when a group model is supplied
    it also carries the group route's verdict (exp_membership: alpha is
    Ad(v) for some v in G_c).
    """
    rng = np.random.default_rng(seed)
    if not hopf_flags_fast(alpha, h, tol):
        return BiInnerVerdict(False, "not a Hopf *-automorphism")
    u = inner_implementer(alpha, tol)
    if u is None:
        return BiInnerVerdict(False, "not inner on the algebra")
    alpha_hat = induced_dual_action(alpha, d, tol, check=False)
    uhat = inner_implementer(alpha_hat, tol)
    if uhat is None:
        return BiInnerVerdict(False, "dual action is not inner")
    certs: dict = {}
    if mu is not None:
        sols = solve_commutant_partner(u, mu)
        partner = _unitary_in_span(sols, rng)
        if partner is None:
            return BiInnerVerdict(False, "no unitary commutant partner",
                                  u=u, uhat=uhat)
        report = commutation_test(partner, u, mu, tol)
        certs["commutation"] = report
        certs["partner_implements_dual"] = min(
            float(np.linalg.norm(AlgebraMap.ad(partner, tol).matrix - alpha_hat.matrix)),
            float(np.linalg.norm(AlgebraMap.ad(partner.adjoint(), tol).matrix
                                 - alpha_hat.matrix)))
        radii = (0.25, 0.5, 0.75, 1.0)
        certs["path_residuals"] = dict(zip(
            radii, path_in_commutant(partner, u, mu, radii)[2].tolist()))
        uhat = partner
    if model is not None:
        certs["exp_membership"] = in_identity_component(alpha, model, rng)[0]
    return BiInnerVerdict(True, "bi-inner", u=u, uhat=uhat, certificates=certs)


# ---------------------------------------------------------------------------
# consistency harness
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    confusion: np.ndarray          # [definitional route][group route] counts
    samples: int
    lie_dim: int
    positives_are_identity: bool
    worst_commutation: float
    mismatches: list = field(default_factory=list)

    @property
    def diagonal(self) -> bool:
        return self.confusion[0, 1] == 0 and self.confusion[1, 0] == 0

    def to_dict(self) -> dict:
        return {"confusion": self.confusion.tolist(), "samples": self.samples,
                "lie_dim": self.lie_dim, "diagonal": bool(self.diagonal),
                "positives_are_identity": self.positives_are_identity,
                "worst_commutation": self.worst_commutation}


def require_desk_scale(h: HopfAlgebra) -> None:
    """Refuse an algebra too large for the consistency harness."""
    if h.algebra.dim > 12:
        raise PreconditionFailed("consistency harness is desk-scale: dim <= 12")


def brute_force_biinner_consistency(h: HopfAlgebra, d: DualHopfAlgebra,
                                    mu: MultiplicativeUnitary | None = None,
                                    model: BiInnerGroupModel | None = None,
                                    samples: int = 200, seed: int = 0,
                                    tol: ToleranceConfig = DEFAULT_TOL) -> ConsistencyReport:
    """Sample unitaries, classify by both routes, report the confusion matrix.

    The sample mix is Haar-random unitaries plus planted members of G_c
    (central unitaries and exponentials of the Lie algebra) so both verdict
    classes are populated.  Route A is one classify_biinner call per sample,
    route B one in_identity_component call.
    """
    require_desk_scale(h)
    model = model or build_group_model(h)
    rng = np.random.default_rng(seed)
    a = h.algebra
    confusion = np.zeros((2, 2), dtype=int)
    mismatches = []
    positives_identity = True
    worst_comm = 0.0
    for k in range(samples):
        mode = k % 5
        if mode <= 2:
            u = ba.random_unitary(a, rng)
        elif mode == 3:
            u = ba.random_central_unitary(a, rng)
        else:
            if model.dim > 0:
                x = model.random_element(rng)
                u = exp_element((0.5 + rng.random()) * x)
            else:
                u = ba.random_central_unitary(a, rng)
        alpha = AlgebraMap.ad(u, tol)

        verdict = classify_biinner(alpha, h, d, mu, None, tol)
        route_a = verdict.is_biinner
        route_b, _ = in_identity_component(alpha, model, rng)
        confusion[int(route_a), int(route_b)] += 1
        if route_a != route_b:
            mismatches.append({"sample": k, "route_a": route_a, "route_b": route_b})
        if route_a:
            if not alpha.is_identity(1e-7):
                positives_identity = False
            if "commutation" in verdict.certificates:
                worst_comm = max(worst_comm, verdict.certificates["commutation"]["residual"])
    return ConsistencyReport(confusion, samples, model.dim,
                             positives_identity, worst_comm, mismatches)
