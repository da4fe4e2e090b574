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
confusion matrix, which must be diagonal.  Both routes are kernels on stacks
of maps: the harness runs them on chunks of samples, and classify_biinner
(route A) and in_identity_component (route B) run them on a stack of one
map, so a sample gets the same verdict either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import blockalg as ba
from . import morphisms
from .blockalg import AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig
from .duality import DualHopfAlgebra
from .errors import DimensionMismatch, NotInLieAlgebra, PreconditionFailed
from .hopf import HopfAlgebra
from .morphisms import (AlgebraMap, hopf_flags, induced_dual_action,
                        induced_dual_matrices, inner_implementers)
from .multunitary import (MultiplicativeUnitary, partner_null_spaces, partner_residuals,
                          partner_systems, path_in_commutant)


@dataclass(eq=False)
class BiInnerGroupModel:
    """Model of G_c, the unitary group behind the bi-inner maps.

    constant_stack is the realified matrix of the constraints of G_c
    (kappa-symmetry, then the commutators with the cocentre basis), which
    every membership test reads, and whose null space constraint_span holds
    every intertwiner route B draws.  lie_basis spans
    {X : X* = -X, kappa(X*) = X, [X, c] = 0 for cocentral c} over the reals
    and lie_real holds its realified coordinates as orthonormal columns.
    fixed_blocks indexes the blocks whose central projection kappa fixes;
    a sign on each of them gives a central +-1 element of G_c.
    """

    hopf: HopfAlgebra
    lie_basis: list[AlgebraElement]
    lie_real: np.ndarray
    cocentre: list[AlgebraElement]
    fixed_blocks: np.ndarray
    constant_stack: np.ndarray

    @property
    def sign_patterns(self) -> np.ndarray:
        """The (2^k, N) coordinates of the central +-1 elements of G_c over
        the k fixed blocks: bit i of row r flips fixed block i."""
        a = self.hopf.algebra
        k = len(self.fixed_blocks)
        sign = np.ones((1 << k, a.nblocks))
        sign[:, self.fixed_blocks] = 1.0 - 2.0 * (np.arange(1 << k)[:, None] >> np.arange(k) & 1)
        return sign[:, a.layout.block_of] * a.unit_coords()

    @property
    def dim(self) -> int:
        return len(self.lie_basis)

    @cached_property
    def constraint_span(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """kc, the columns of an orthonormal real basis K (2N, k) of
        null(constant_stack) as complex coordinates (N, k): a real basis of
        the elements that meet every constraint of G_c.  Then L_a kc and
        R_a kc for every basis element e_a, each (N, N, k).  Formed when
        route B first asks for it."""
        a = self.hopf.algebra
        kc = ba.real_vec_to_coords(ba.null_space(self.constant_stack))
        return kc, ba.left_mult_tensor(a) @ kc, ba.right_mult_tensor(a) @ kc

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
    coc = h.cocentre

    # kappa(w*) - w = K S conj(w) - w is real-linear; commutators are complex
    ks = h.antipode @ h.star_mat
    ktwist_real = ba.realify_antilinear(ks) - np.eye(2 * n)
    comm_real = ba.realify_complex_linear(_commutator_stack(a, coc))
    constant_stack = np.vstack([ktwist_real, comm_real])

    # the Lie algebra additionally requires skewness: w + w* = 0
    skew_real = ba.realify_antilinear(h.star_mat) + np.eye(2 * n)
    null = ba.null_space(np.vstack([skew_real, constant_stack]))
    lie = [a.from_coords(ba.real_vec_to_coords(null[:, i])) for i in range(null.shape[1])]

    units = a.block_unit_coords()
    fixed = np.flatnonzero(np.linalg.norm(h.antipode @ units - units, axis=0) < 1e-8)
    model = BiInnerGroupModel(h, lie, null, coc, fixed, constant_stack)

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
    with the cocentre, certified by the membership rule of G_c."""
    if model.project_defect(x) > 1e-7 * max(1.0, x.norm()):
        raise NotInLieAlgebra("element outside the computed Lie algebra")
    v = exp_element(t * x)
    member, worst = _membership(model, v.coords()[None])
    if not member[0]:
        raise NotInLieAlgebra(f"exp(t x) leaves G_c: defect {worst[0]:.3e}")
    return v


# ---------------------------------------------------------------------------
# group membership
# ---------------------------------------------------------------------------

ROUTE_B_REFUSALS = ("no kappa-symmetric intertwiner",
                    "no invertible kappa-symmetric intertwiner",
                    "the unitarised intertwiner leaves the group")


def _group_defects(model: BiInnerGroupModel, v: np.ndarray) -> np.ndarray:
    """The constraints of G_c on each element of a (k, N) coordinate stack:
    column 0 holds the norm of kappa(v*) - v, column 1 + j that of the
    commutator [v, c_j] with the j-th cocentre basis element.

    All are read off one product of model.constant_stack with the realified
    coordinates [Re v, Im v]: its first 2N rows are the kappa twist, the
    rest the real parts of all the commutators, then their imaginary parts.
    """
    k, n = v.shape
    res = np.concatenate([v.real, v.imag], axis=-1) @ model.constant_stack.T
    twist = np.linalg.norm(res[:, :2 * n], axis=-1)
    comm = np.linalg.norm(res[:, 2 * n:].reshape(k, 2, len(model.cocentre), n), axis=(1, 3))
    return np.column_stack([twist, comm])


def _membership(model: BiInnerGroupModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The membership rule of G_c on a (k, N) coordinate stack: which
    elements meet every constraint to 1e-7 max(1, |v|), and the largest
    constraint defect of each."""
    worst = _group_defects(model, v).max(axis=1)
    return worst <= 1e-7 * np.maximum(1.0, ba.norms(v)), worst


def _intertwiner_null(m: np.ndarray, model: BiInnerGroupModel) -> np.ndarray:
    """Orthonormal real coordinates (k, d) over model.constraint_span of the
    intertwiners w of the map with matrix m that meet the constraints of
    G_c: the null space of the intertwiner condition alpha(e_k) w - w e_k = 0
    restricted to that span, a realified 2N^2 x k system (k <= 2N) instead
    of the (2N^2 + rows of constant_stack) x 2N one."""
    n = m.shape[0]
    _, lk, rk = model.constraint_span
    # alpha(e_k) w - w e_k for w = kc x, row block k: sum_a m[a, k] L_a kc - R_k kc
    rows = (np.tensordot(m, lk, axes=(0, 0)) - rk).reshape(n * n, -1)
    return ba.null_space(np.concatenate([rows.real, rows.imag]))


def _intertwiner_candidates(m: np.ndarray, model: BiInnerGroupModel,
                            rng: np.random.Generator) -> np.ndarray | None:
    """16 random intertwiners of the map with matrix m that meet the
    constraints of G_c, as the rows of a (16, N) array, or None when there is
    none.  The draw takes 16 normals from rng per dimension of their space."""
    null = _intertwiner_null(m, model)
    if null.shape[1] == 0:
        return None
    kc = model.constraint_span[0]
    return (kc @ (null @ rng.standard_normal((16, null.shape[1])).T)).T


def _unitarise(w: np.ndarray) -> np.ndarray:
    """w |w|^-1 for each matrix of a stack with w*w scalar."""
    trace = np.trace(w.conj().swapaxes(-1, -2) @ w, axis1=-2, axis2=-1).real
    return w / np.sqrt(trace / w.shape[-1])[..., None, None]


def _route_b(model: BiInnerGroupModel, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route B on a (k, 16, N) stack of candidate intertwiners, one row of 16
    per map: the index into ROUTE_B_REFUSALS of each map's refusal (-1 for a
    member of G_c) and the coordinates of its unitarised best candidate."""
    a = model.hopf.algebra
    # the best conditioned of the 16 (the first maximum wins)
    ratio = ba.smallest_svs(a, cands) / np.maximum(1.0, ba.norms(cands))
    rows = np.arange(len(cands))
    best = np.argmax(ratio, axis=1)
    invertible = ratio[rows, best] > 1e-6
    # unitarise: w*w is central, so the polar part is per-block scaling
    v = np.zeros((len(cands), a.dim), complex)
    v[invertible] = a.layout.apply(cands[rows, best][invertible], _unitarise)
    member = _membership(model, v)[0]
    refusal = np.where(invertible, -1, 1)
    refusal[invertible & ~member] = 2
    return refusal, v


def in_identity_component(alpha: AlgebraMap, model: BiInnerGroupModel,
                          rng: np.random.Generator | None = None):
    """Decide alpha = Ad(v) for v in G_c, the group of kappa-symmetric
    unitaries that commute with the cocentre (the whole group, not only its
    identity component; the name is kept for its callers).

    If alpha = Ad(v0) with v0 in G_c, every intertwiner w of alpha that
    meets the constraints of G_c is v0 z with z central and kappa(z*) = z,
    so |z| is central, positive and kappa-invariant, and the blockwise
    unitarisation w |z|^-1 of an invertible one lies in G_c.  One membership
    test of that unitary therefore decides the question.  The candidates
    and the test are the consistency harness's route B on a stack of one.

    Returns (verdict, info); info carries the witness v when the verdict is
    True and the reason otherwise.
    """
    rng = rng or np.random.default_rng(0x1D)
    cands = _intertwiner_candidates(alpha.matrix, model, rng)
    if cands is None:
        return False, {"reason": ROUTE_B_REFUSALS[0]}
    refusal, v = _route_b(model, cands[None])
    if refusal[0] >= 0:
        return False, {"reason": ROUTE_B_REFUSALS[refusal[0]]}
    return True, {"witness": model.hopf.algebra.from_coords(v[0])}


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


def _polar_unitary(w: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each matrix in a stack."""
    uu, _, vvh = np.linalg.svd(w)
    return uu @ vvh


ROUTE_A_REFUSALS = ("not a Hopf *-automorphism", "not inner on the algebra",
                    "dual action is not inner")


def _route_a(ms: np.ndarray, h: HopfAlgebra, d: DualHopfAlgebra,
             tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The definitional gates of route A on a (k, N, N) stack of maps of h:
    Hopf *-automorphism, inner, inner induced dual action, each asked only
    of the maps that passed the one before.

    Returns the index into ROUTE_A_REFUSALS of each map's first failed gate
    (-1 when it passes all three) and the coordinates of the inner
    implementers u of the maps and uhat of their dual actions (zero rows
    where a gate failed first).
    """
    refusal = np.full(len(ms), -1)
    us = np.zeros((len(ms), h.algebra.dim), complex)
    uhats = np.zeros((len(ms), d.hopf.algebra.dim), complex)
    hopf = hopf_flags(ms, h, tol)
    refusal[~hopf] = 0
    live = np.flatnonzero(hopf)
    inner, us[live] = inner_implementers(ms[live], h.algebra, tol)
    refusal[live[~inner]] = 1
    live = live[inner]
    inner, uhats[live] = inner_implementers(induced_dual_matrices(ms[live], d),
                                            d.hopf.algebra, tol)
    refusal[live[~inner]] = 2
    return refusal, us, uhats


# The partner draw's seed: classify_biinner's default, and the fresh
# generator of every harness sample, so that both draw the same partner.
PARTNER_SEED = 0xB11


def _commutant_partners(us: np.ndarray, mu: MultiplicativeUnitary, tol: ToleranceConfig,
                        rng: np.random.Generator | None = None):
    """Route A's commutant step on a (k, N) stack of inner implementers u:
    for each, a unitary uhat of the dual with uhat (x) u in the commutant of
    V, drawn from the partner's solution space, and the certified residual
    of the pair (multunitary.partner_residuals).

    The solution spaces come from one stacked solve in the dual's
    coordinates (partner_systems, partner_null_spaces).  A draw takes
    complex Gaussian coefficients over a space's orthonormal basis, takes
    the combination's blockwise polar part and keeps that if it stays in the
    space (to 1e-8 max(1, |uhat|)), which also refuses singular draws; a
    map gets 12 draws.  With rng given (a stack of one) the coefficients
    come from rng.  Otherwise every map takes them from a fresh
    default_rng(PARTNER_SEED): maps with spaces of one dimension then draw
    the same coefficients until they succeed, so each dimension's maps run
    together on one generator.

    Returns found (bool, k), uhats (k, N; zero where none was found) and the
    residuals (k; zero where none was found).
    """
    ahat = mu.dual.hopf.algebra
    n = ahat.dim
    yz, systems = partner_systems(us, mu)
    rank, vh = partner_null_spaces(systems)
    found = np.zeros(len(us), bool)
    uhats = np.zeros((len(us), n), complex)
    for dim in sorted(set((n - rank).tolist()) - {0}):
        group = np.flatnonzero(n - rank == dim)
        span = vh[group, n - dim:].conj().swapaxes(-1, -2)      # orthonormal columns
        draw = rng if rng is not None else np.random.default_rng(PARTNER_SEED)
        todo = np.arange(len(group))
        for _ in range(12):
            if not len(todo):
                break
            coef = draw.standard_normal(dim) + 1j * draw.standard_normal(dim)
            polar = ahat.layout.apply(span[todo] @ coef, _polar_unitary)
            # the polar part must stay inside the solution space
            sp = span[todo]
            off = polar - ba.matvec(sp, ba.matvec(sp.conj().swapaxes(-1, -2), polar))
            inside = ba.norms(off) < 1e-8 * np.maximum(1.0, ba.norms(polar))
            hit = group[todo[inside]]
            uhats[hit], found[hit] = polar[inside], True
            todo = todo[~inside]
    resid = np.zeros(len(us))
    if found.any():
        resid[found] = partner_residuals(yz[found], systems[found], uhats[found],
                                         us[found], mu, tol)
    return found, uhats, resid


def classify_biinner(alpha: AlgebraMap, h: HopfAlgebra, d: DualHopfAlgebra,
                     mu: MultiplicativeUnitary | None = None,
                     model: BiInnerGroupModel | None = None,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     seed: int = PARTNER_SEED) -> BiInnerVerdict:
    """Definitional bi-inner classification with certificates: the
    consistency harness's route A on a stack of one map.

    When a multiplicative unitary is supplied, the verdict carries the
    commutation certificate with the aligned dual partner and the path
    residuals at r in {0.25, 0.5, 0.75, 1}; when a group model is supplied
    it also carries the group route's verdict (exp_membership: alpha is
    Ad(v) for some v in G_c).
    """
    if alpha.source != h.algebra or alpha.target != h.algebra:
        raise DimensionMismatch("alpha must be an endomorphism of the base algebra")
    rng = np.random.default_rng(seed)
    refusal, us, uhats = _route_a(alpha.matrix[None], h, d, tol)
    if refusal[0] >= 0:
        return BiInnerVerdict(False, ROUTE_A_REFUSALS[refusal[0]])
    u = h.algebra.from_coords(us[0])
    uhat = d.hopf.algebra.from_coords(uhats[0])
    certs: dict = {}
    if mu is not None:
        found, uhats, resid = _commutant_partners(us[:1], mu, tol, rng)
        if not found[0]:
            return BiInnerVerdict(False, "no unitary commutant partner", u=u, uhat=uhat)
        uhat = d.hopf.algebra.from_coords(uhats[0])
        certs["commutation"] = {"residual": float(resid[0])}
        alpha_hat = induced_dual_action(alpha, d, tol, check=False).matrix
        certs["partner_implements_dual"] = min(
            float(np.linalg.norm(AlgebraMap.ad(uhat, tol).matrix - alpha_hat)),
            float(np.linalg.norm(AlgebraMap.ad(uhat.adjoint(), tol).matrix - alpha_hat)))
        radii = (0.25, 0.5, 0.75, 1.0)
        certs["path_residuals"] = dict(zip(
            radii, path_in_commutant(uhat, u, mu, radii)[2].tolist()))
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


# Samples per chunk of the consistency harness.  Its largest stacked
# temporaries, the homomorphism and Hopf residuals of the chunk's maps, hold
# about CHUNK * N^3 complex entries: 64 KiB at N = 8, 216 KiB at the
# harness's largest N = 12.  Chunks of 32 ran about 10% faster at N = 8 but
# raised the peak RSS of `fqg biinner` by about 1 MB.
CHUNK = 8


def brute_force_biinner_consistency(h: HopfAlgebra, d: DualHopfAlgebra,
                                    mu: MultiplicativeUnitary | None = None,
                                    model: BiInnerGroupModel | None = None,
                                    samples: int = 200, seed: int = 0,
                                    tol: ToleranceConfig = DEFAULT_TOL) -> ConsistencyReport:
    """Sample unitaries, classify by both routes, report the confusion matrix.

    The sample mix is Haar-random unitaries plus planted members of G_c
    (central unitaries and exponentials of the Lie algebra) so both verdict
    classes are populated.  Samples run in chunks of CHUNK, in two phases:

    * in order, one sample at a time: draw u, form alpha = Ad(u), take route
      B's intertwiner null space (inside the model's constraint_span) and
      draw its 16 candidates.  This stays sequential because the null
      space's dimension says how many normals the candidate draw takes from
      rng, which moves every later draw;
    * on the chunk's stacks: route A's gates (classify_biinner's) on the
      maps and route B's conditioning, unitarisation and membership test
      (in_identity_component's) on the candidates.  Then the maps that
      pass route A's gates ask the commutant of V for their partners as one
      stack (_commutant_partners: one solve in the dual's coordinates, the
      draw classify_biinner's seed gives each map, and the Gram-form
      certificate whose worst value the report reads).

    So each sample gets the verdicts and draws that classify_biinner and
    in_identity_component, called on it one after another with the shared
    rng, would give it, and memory stays at one chunk's stacks whatever
    the sample count.  The commutant step forms no operator on H.  Route
    A's certificates that the report does not read (path residuals,
    partner_implements_dual) are not computed.
    """
    require_desk_scale(h)
    model = model or build_group_model(h)
    rng = np.random.default_rng(seed)
    a = h.algebra
    n = a.dim
    confusion = np.zeros((2, 2), dtype=int)
    mismatches = []
    positives_identity = True
    worst_comm = 0.0
    for start in range(0, samples, CHUNK):
        count = min(CHUNK, samples - start)
        ms = np.empty((count, n, n), complex)
        cands = np.empty((count, 16, n), complex)
        has_cands = np.zeros(count, bool)
        for j in range(count):
            mode = (start + j) % 5
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
            ms[j] = AlgebraMap.ad(u, tol).matrix
            drawn = _intertwiner_candidates(ms[j], model, rng)
            if drawn is not None:
                cands[j], has_cands[j] = drawn, True

        refusal, us, _ = _route_a(ms, h, d, tol)
        route_a = refusal < 0
        if mu is not None:
            live = np.flatnonzero(route_a)
            found, _, resid = _commutant_partners(us[live], mu, tol)
            route_a[live[~found]] = False
            worst_comm = max(worst_comm, float(resid.max(initial=0.0)))
        route_b = np.zeros(count, bool)
        route_b[has_cands] = _route_b(model, cands[has_cands])[0] < 0

        np.add.at(confusion, (route_a.astype(int), route_b.astype(int)), 1)
        for j in np.flatnonzero(route_a != route_b):
            mismatches.append({"sample": start + int(j), "route_a": bool(route_a[j]),
                               "route_b": bool(route_b[j])})
        positives_identity &= all(morphisms.AlgebraMap(a, a, m).is_identity(1e-7)
                                  for m in ms[route_a])
    return ConsistencyReport(confusion, samples, model.dim,
                             positives_identity, worst_comm, mismatches)
