"""Classification of linear maps between block algebras.

Covers: flag classification (multiplicative / anti / star / unital / positive
/ Jordan / Hopf / co-anti-Hopf / centre and cocentre fixing), per-block
automorphism vs anti-automorphism tagging, the induced action on the dual by
pairing invariance, convolution sandwiches, constructive inner implementers,
and the conjugation classification pipeline with its central-projection
perturbation trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blockalg as ba
from .blockalg import AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig, invert
from .duality import DualHopfAlgebra
from .errors import (ClassificationUnstable, ConventionMismatch, DimensionMismatch,
                     NeitherAutoNorAnti, NotBlockPreserving, PreconditionFailed)
from .hopf import HopfAlgebra, counit_support, kron_coefficients


@dataclass
class AlgebraMap:
    """Linear map between block algebras, as a matrix on coordinates."""

    source: BlockAlgebra
    target: BlockAlgebra
    matrix: np.ndarray
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, complex).reshape(
            self.target.dim, self.source.dim)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.source:
            raise ba.ShapeMismatch("element not in the source algebra")
        return self.target.from_coords(self.matrix @ x.coords())

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        if other.target != self.source:
            raise DimensionMismatch("composition mismatch")
        return AlgebraMap(other.source, self.target, self.matrix @ other.matrix)

    def inverse(self) -> "AlgebraMap":
        return AlgebraMap(self.target, self.source, np.linalg.inv(self.matrix))

    def distance_to(self, other: "AlgebraMap") -> float:
        return float(np.linalg.norm(self.matrix - other.matrix))

    def is_identity(self, tol: float = DEFAULT_TOL.eq_tol) -> bool:
        n = self.source.dim
        return self.source == self.target and \
            float(np.linalg.norm(self.matrix - np.eye(n))) <= tol * n

    @classmethod
    def identity(cls, a: BlockAlgebra) -> "AlgebraMap":
        return cls(a, a, np.eye(a.dim))

    @classmethod
    def ad(cls, u: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> "AlgebraMap":
        """Conjugation x -> u x u^{-1}: ad_matrices on one element."""
        return cls(u.algebra, u.algebra, ad_matrices(u.algebra, u.coords(), tol))

    @classmethod
    def blockwise_transpose(cls, a: BlockAlgebra) -> "AlgebraMap":
        # e_{b,r,s} -> e_{b,s,r}, an involution on the coordinates
        return cls(a, a, np.eye(a.dim)[a.layout.adjoint])


# ---------------------------------------------------------------------------
# flag classification
# ---------------------------------------------------------------------------

_POSITIVITY_SAMPLES = 24


def hopf_flags_fast(phi: AlgebraMap, h: HopfAlgebra,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Cheap test for the Hopf *-automorphism property (no positivity family):
    hopf_flags on a stack of one map."""
    return bool(hopf_flags(phi.matrix[None], h, tol)[0])


def hopf_flags(ms: np.ndarray, h: HopfAlgebra,
               tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Which maps of a (k, n, n) stack are Hopf *-automorphisms of h, by the
    cheap test: bijectivity, the unital *-homomorphism residuals and
    intertwining of the coproduct, each asked only of the maps that passed
    the one before."""
    ok = np.linalg.svd(ms, compute_uv=False)[:, -1] > tol.inv_tol
    thresh = tol.eq_tol * 100
    live = np.flatnonzero(ok)
    hom = ba.hom_residuals(ms[live], h.algebra, h.algebra)
    ok[live] = np.maximum.reduce([hom["multiplicative"], hom["star_preserving"],
                                  hom["unital"]]) <= thresh
    live = np.flatnonzero(ok)
    ok[live] = _hopf_residuals(ms[live], h, h)[0] <= thresh
    return ok


def _hopf_residuals(m: np.ndarray, h_source: HopfAlgebra, h_target: HopfAlgebra):
    """Relative residuals of delta phi = (phi (x) phi) delta and of the same
    identity with the flipped coproduct: floats for one map m, arrays for a
    (..., nt, ns) stack.

    Both sides are compared on kron coordinates [p, q, x] (the coefficient of
    e_p (x) e_q in the image of e_x), where the flip swaps p and q and
    (phi (x) phi) delta is two products with phi, one per leg.
    """
    lead, (nt, ns) = m.shape[:-2], m.shape[-2:]
    dk = h_source.coproduct_kron.reshape(ns, ns * ns)
    first = (m @ dk).reshape(lead + (nt, ns, ns)).swapaxes(-3, -2).reshape(lead + (ns, nt * ns))
    qp = (m @ first).reshape(lead + (nt, nt, ns))       # axes [q, p, x]
    lhs = kron_coefficients(h_target.algebra, h_target.coproduct @ m)

    def norm(x):        # np.linalg.norm of each map's (nt, nt, ns) array
        return np.array([np.linalg.norm(r) for r in x.reshape((-1,) + x.shape[-3:])]
                        ).reshape(lead)
    scale = np.maximum(1.0, norm(lhs))
    hopf, co_anti = norm(lhs - qp.swapaxes(-3, -2)) / scale, norm(lhs - qp) / scale
    return (hopf, co_anti) if lead else (float(hopf), float(co_anti))


def _positivity_family(a: BlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Coordinates (one row each) of the squares b*b of a spanning family,
    b = e_k, e_k + e_{k+1} and e_k + i e_{k+1} (indices mod dim), followed by
    those of _POSITIVITY_SAMPLES seeded random elements."""
    eye = np.eye(a.dim, dtype=complex)
    nxt = np.roll(eye, -1, axis=0)                   # row k: e_{k+1}
    fam = np.concatenate([np.stack([eye, eye + nxt, eye + 1j * nxt], axis=1).reshape(-1, a.dim),
                          ba.random_coords(a, rng, _POSITIVITY_SAMPLES)])
    return a.layout.apply(fam, lambda s: s.conj().swapaxes(-1, -2) @ s)


def classify_map(phi: AlgebraMap, h_source: HopfAlgebra, h_target: HopfAlgebra,
                 tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0xC1A) -> dict:
    """Evaluate all structure flags; each flag is backed by a residual.

    Returns {"flags": {...}, "residuals": {...}}; results are cached on the map.
    """
    if phi.source != h_source.algebra or phi.target != h_target.algebra:
        raise DimensionMismatch("map endpoints do not match the Hopf algebras")
    n_s, n_t = phi.source.dim, phi.target.dim
    res: dict[str, float] = {}
    rng = np.random.default_rng(seed)

    bij = n_s == n_t
    if bij:
        sv = np.linalg.svd(phi.matrix, compute_uv=False)
        res["bijective"] = float(sv[-1])
        bij = sv[-1] > tol.inv_tol
    else:
        res["bijective"] = 0.0
    res.update(ba.hom_residuals(phi.matrix, phi.source, phi.target, anti=True))

    img = _positivity_family(phi.source, rng) @ phi.matrix.T     # phi(b*b), one row each
    lay = phi.target.layout
    herm_defect = np.linalg.norm(img - img[:, lay.adjoint].conj(), axis=1).max()
    low = min(np.linalg.eigvalsh(ba.hermitian_part(s))[..., 0].min() for s in lay.stacks(img))
    res["positive"] = max(0.0, float(herm_defect), -float(low))

    # Hopf and co-anti-Hopf conditions
    if bij and n_s == n_t:
        res["hopf"], res["co_anti_hopf"] = _hopf_residuals(phi.matrix, h_source, h_target)
    else:
        res["hopf"] = res["co_anti_hopf"] = np.inf

    if phi.source == phi.target:
        res["centre_fixing"] = max(
            (phi(p) - p).norm() for p in phi.source.central_projections())
        coc = h_source.cocentre
        res["cocentre_fixing"] = max((phi(c) - c).norm() for c in coc) if coc else 0.0
    else:
        res["centre_fixing"] = res["cocentre_fixing"] = np.inf

    thresh = tol.eq_tol * 100
    flags = {
        "bijective": bool(bij),
        "multiplicative": res["multiplicative"] < thresh,
        "anti_multiplicative": res["anti_multiplicative"] < thresh,
        "star_preserving": res["star_preserving"] < thresh,
        "unital": res["unital"] < thresh,
        "positive": res["positive"] < max(thresh, tol.psd_tol * 100),
        "jordan": res["jordan"] < thresh,
        "hopf": res["hopf"] < thresh,
        "co_anti_hopf": res["co_anti_hopf"] < thresh,
        "centre_fixing": res["centre_fixing"] < thresh,
        "cocentre_fixing": res["cocentre_fixing"] < thresh,
    }
    report = {"flags": flags, "residuals": res}
    phi.flags = report
    return report


# ---------------------------------------------------------------------------
# per-block tagging
# ---------------------------------------------------------------------------

def per_block_jordan_decomposition(phi: AlgebraMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Tag each block of a block-preserving map as automorphism or
    anti-automorphism of that matrix block.

    Returns (tags, residuals) with tags[i] in {"auto", "anti"}.
    """
    a = phi.source
    if phi.target != a:
        raise DimensionMismatch("per-block tagging needs an endomorphism")
    for p in a.central_projections():
        if (phi(p) - p).norm() > tol.eq_tol * 100:
            raise NotBlockPreserving("map does not fix the minimal central projections")
    tags, residuals = [], []
    offsets = a.offsets
    for b, nb in enumerate(a.block_dims):
        sl = slice(offsets[b], offsets[b] + nb * nb)
        sub = phi.matrix[sl, sl]
        # direct-sum defect: the map must not leak outside the block
        leak = float(np.linalg.norm(phi.matrix[:, sl])) ** 2 - float(np.linalg.norm(sub)) ** 2
        leak = np.sqrt(max(leak, 0.0))
        mblock = BlockAlgebra((nb,))
        hom = ba.hom_residuals(sub, mblock, mblock, anti=True)
        wm = max(hom["multiplicative"], leak)
        wa = max(hom["anti_multiplicative"], leak)
        thresh = tol.eq_tol * 100
        if wm < thresh:
            tags.append("auto")
            residuals.append(wm)
        elif wa < thresh:
            tags.append("anti")
            residuals.append(wa)
        else:
            raise NeitherAutoNorAnti(
                f"block {b}: multiplicative residual {wm:.2e}, anti {wa:.2e}")
    return tags, residuals


# ---------------------------------------------------------------------------
# dual actions
# ---------------------------------------------------------------------------

def induced_dual_action(alpha: AlgebraMap, d: DualHopfAlgebra,
                        tol: ToleranceConfig = DEFAULT_TOL,
                        check: bool = True) -> AlgebraMap:
    """The action on the dual defined by pairing invariance:
    beta(alpha(x), alpha_hat(yhat)) = beta(x, yhat); equivalently f -> f o alpha^{-1}.
    """
    h = d.base
    if alpha.source != h.algebra or alpha.target != h.algebra:
        raise DimensionMismatch("alpha must be an endomorphism of the base algebra")
    if check and not hopf_flags_fast(alpha, h, tol):
        raise PreconditionFailed("alpha is not a Hopf *-automorphism")
    return AlgebraMap(d.hopf.algebra, d.hopf.algebra,
                      induced_dual_matrices(alpha.matrix[None], d)[0])


def induced_dual_matrices(ms: np.ndarray, d: DualHopfAlgebra) -> np.ndarray:
    """Matrices of the induced dual actions f -> f o alpha^{-1} of a (k, n, n)
    stack of invertible maps of the base algebra."""
    return d.to_dual_mat @ np.linalg.inv(ms).swapaxes(-1, -2) @ d.from_dual_mat


def dual_sandwich(c: AlgebraElement, d: DualHopfAlgebra,
                  tol: ToleranceConfig = DEFAULT_TOL):
    """Convolution sandwich on the dual: yhat -> F(c) <>' yhat <>' F(c^{-1})
    where <>' is the dual convolution; equals F o Ad(c) o F^{-1}.

    Asserts agreement with the pairing-invariance dual of Ad(c); a mismatch
    means the Fourier/pairing conventions have drifted and aborts the build.
    The identity holds for every invertible c (the Haar state is tracial);
    the cocentre-fixing hypothesis matters only for the downstream Jordan
    classification and is enforced there.

    Returns (map, a, b) with a = F(c), b = F(c^{-1}).
    """
    cinv = invert(c, tol)
    ad_c = AlgebraMap.ad(c, tol)
    mat = d.fourier_mat @ ad_c.matrix @ d.fourier_inv
    sandwich = AlgebraMap(d.hopf.algebra, d.hopf.algebra, mat)
    # convention linchpin: compare with the pairing-invariance dual
    pairing_dual = induced_dual_matrices(ad_c.matrix[None], d)[0]
    defect = float(np.linalg.norm(mat - pairing_dual)) / max(1.0, np.linalg.norm(mat))
    if defect > tol.eq_tol * 1e3:
        raise ConventionMismatch(f"sandwich vs pairing dual defect {defect:.2e}")
    a = d.fourier(c)
    b = d.fourier(cinv)
    return sandwich, a, b


# ---------------------------------------------------------------------------
# inner implementers
# ---------------------------------------------------------------------------

def _sandwich_matrix(a: BlockAlgebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Coordinate matrices of x -> l x r for coordinates l and r (..., dim):
    block-diagonal kron(l_b, r_b^T), as vec_row(L X R) = (L (x) R^T) vec_row(X),
    scattered once per block size."""
    out = np.zeros(left.shape[:-1] + (a.dim, a.dim), complex)
    lay = a.layout
    for idx, lb, rb in zip(lay.by_size.values(), lay.stacks(left), lay.stacks(right)):
        k, n = idx.shape[:2]
        flat = idx.reshape(k, n * n)
        # kron(l, r^T)[(i, j), (p, q)] = l[i, p] r[q, j]
        kr = lb[..., :, None, :, None] * rb.swapaxes(-1, -2)[..., None, :, None, :]
        out[..., flat[:, :, None], flat[:, None, :]] = kr.reshape(kr.shape[:-4] + (n * n, n * n))
    return out


def ad_matrices(a: BlockAlgebra, us: np.ndarray,
                tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Matrices of the conjugations x -> u x u^{-1} for coordinates u
    (..., dim), one sandwich stack; NotInvertible (invert's gate) unless
    every u is invertible."""
    return _sandwich_matrix(a, us, ba.inverses(a, us, tol))


def _unitary_intertwiners(u: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n, n) intertwiners u scaled to unitaries, each with its largest
    entry real positive, and the (k,) mask of those that are unitary up to
    scale (for an automorphism every intertwiner is).  Each u must be nonzero."""
    k, nb = u.shape[:2]
    uu = u.conj().transpose(0, 2, 1) @ u
    scale = np.trace(uu, axis1=1, axis2=2).real / nb
    ok = (scale > tol.inv_tol) & (np.linalg.norm(
        uu - scale[:, None, None] * np.eye(nb), axis=(1, 2)) <= 1e-7 * scale * nb)
    u = (u / np.sqrt(scale)[:, None, None]).reshape(k, -1)
    top = u[np.arange(k), np.argmax(np.abs(u), axis=1)]
    return ok, u * (np.abs(top) / top)[:, None]


def inner_implementer(alpha: AlgebraMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Unitary u with alpha = Ad(u), or None when alpha permutes blocks:
    inner_implementers on a stack of one map."""
    a = alpha.source
    if alpha.target != a:
        raise DimensionMismatch("inner implementers need an endomorphism")
    ok, coords = inner_implementers(alpha.matrix[None], a, tol)
    return a.from_coords(coords[0]) if ok[0] else None


def inner_implementers(ms: np.ndarray, a: BlockAlgebra,
                       tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """For a (k, n, n) stack of maps of a, the (k,) mask of those that are
    Ad(u) for a unitary u, and the (k, n) coordinates of each such u.

    Solves the intertwiner system alpha(x) u = u x block by block (batched
    over the maps and the blocks of one size) and unitarises; the phase is
    canonicalised per block (largest entry real positive).  A map that fails
    a test (it moves a block unit, has no intertwiner on a block, or a
    non-unitary one) leaves the stack before the next.
    """
    units = a.block_unit_coords()
    ok = np.linalg.norm(ms @ units - units, axis=-2).max(axis=-1) <= tol.eq_tol * 1e3
    coords = np.zeros((len(ms), a.dim), complex)
    for nb, idx in a.layout.by_size.items():
        live = np.flatnonzero(ok)
        if not live.size:
            break
        flat = idx.reshape(len(idx), -1)
        # ax[..., k] = alpha(x_k) on each block, x_k the k-th matrix unit
        ax = ms[live[:, None, None, None], flat[:, None, :], flat[:, :, None]].reshape(
            len(live), len(idx), nb * nb, nb, nb)
        xt = np.eye(nb * nb).reshape(nb * nb, nb, nb).transpose(0, 2, 1)
        one = np.eye(nb)
        # alpha(x_k) u - u x_k = 0, unknown u as vec (row-major): row block k is
        # kron(alpha(x_k), 1) - kron(1, x_k^T), axes [k, i, l, j, m]
        sys = ax[..., :, :, None, :, None] * one[:, None, :] \
            - one[:, None, :, None] * xt[:, None, :, None, :]
        rank, _, vh = ba.numerical_rank(sys.reshape(len(live), len(idx), nb ** 4, nb * nb))
        # a block without an intertwiner: alpha is not inner there
        has = ~np.any(rank == nb * nb, axis=1)
        ok[live[~has]] = False
        live, vh = live[has], vh[has]
        if not live.size:
            break
        unitary, u = _unitary_intertwiners(vh[..., -1, :].conj().reshape(-1, nb, nb), tol)
        coords[live[:, None], idx.reshape(-1)] = u.reshape(len(live), -1)
        ok[live] = unitary.reshape(len(live), -1).all(axis=1)
    live = np.flatnonzero(ok)
    if live.size:
        resid = ms[live] - _sandwich_matrix(a, coords[live], ba.adjoints(a, coords[live]))
        ok[live] = np.linalg.norm(resid, axis=-2).max(axis=-1) <= tol.eq_tol * 1e3
    coords[~ok] = 0.0
    return ok, coords


# ---------------------------------------------------------------------------
# the conjugation classification pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    verdict: str                    # "hopf_auto" | "co_anti_auto"
    block_tags: list[str]
    epsilon_used: float | None
    residuals: dict
    perturbed: bool

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "block_tags": list(self.block_tags),
                "epsilon_used": self.epsilon_used, "perturbed": self.perturbed,
                "residuals": {k: float(v) for k, v in self.residuals.items()
                              if isinstance(v, (int, float))}}


def _classify_once(v: AlgebraElement, h: HopfAlgebra, d: DualHopfAlgebra,
                   tol: ToleranceConfig) -> tuple[str, list[str], dict]:
    sandwich, _, _ = dual_sandwich(v, d, tol)
    tags, _ = per_block_jordan_decomposition(sandwich, tol)
    ad_v = AlgebraMap.ad(v, tol)
    rep = classify_map(ad_v, h, h, tol)
    flags = rep["flags"]
    if flags["hopf"]:
        verdict = "hopf_auto"
    elif flags["co_anti_hopf"]:
        verdict = "co_anti_auto"
    else:
        raise ClassificationUnstable(
            f"conjugation is neither Hopf nor co-anti (residuals "
            f"{rep['residuals']['hopf']:.2e} / {rep['residuals']['co_anti_hopf']:.2e})")
    return verdict, tags, rep["residuals"]


def proposition_pipeline(v: AlgebraElement, h: HopfAlgebra, d: DualHopfAlgebra,
                         tol: ToleranceConfig = DEFAULT_TOL) -> PipelineResult:
    """Classify x -> v x v^{-1} as Hopf automorphism or co-anti-automorphism.

    Preconditions: v invertible, kappa-symmetric, conjugation fixes the
    cocentre pointwise.  If F(v) or F(v^{-1}) is nearly singular, v is
    perturbed to v + eps*j along the counit support, with eps found by a
    doubling search; the classification is accepted only if it agrees at eps
    and eps/2.
    """
    scale = max(1.0, v.norm())
    if not v.is_invertible(tol.inv_tol):
        raise PreconditionFailed("v is not invertible")
    if h.ksym_defect(v) > tol.eq_tol * 1e3 * scale:
        raise PreconditionFailed("v is not kappa-symmetric")
    for z in h.cocentre:
        if (v * z - z * v).norm() > tol.eq_tol * 1e3 * scale:
            raise PreconditionFailed("conjugation by v does not fix the cocentre")

    fv = d.fourier(v)
    fvinv = d.fourier(invert(v, tol))
    if fv.smallest_sv() > tol.inv_tol and fvinv.smallest_sv() > tol.inv_tol:
        verdict, tags, res = _classify_once(v, h, d, tol)
        return PipelineResult(verdict, tags, None, res, perturbed=False)

    # perturbation branch: vtilde = v + eps*j stays admissible because j is a
    # central kappa-symmetric projection supporting the counit character
    j = counit_support(h, tol).element
    phi_v = h.epsilon(v)
    if abs(phi_v) < tol.inv_tol:
        raise PreconditionFailed("counit character vanishes on v")
    eps = 1e-6
    chosen = None
    while eps <= 1e-2:
        vt = v + eps * j
        if d.fourier(vt).smallest_sv() > tol.inv_tol and \
                d.fourier(invert(vt, tol)).smallest_sv() > tol.inv_tol:
            chosen = eps
            break
        eps *= 2
    if chosen is None:
        raise PreconditionFailed("no admissible perturbation found")
    verdict1, tags1, res1 = _classify_once(v + chosen * j, h, d, tol)
    verdict2, _, _ = _classify_once(v + 0.5 * chosen * j, h, d, tol)
    if verdict1 != verdict2:
        raise ClassificationUnstable(
            f"verdicts at eps={chosen} and eps/2 disagree: {verdict1} vs {verdict2}")
    return PipelineResult(verdict1, tags1, chosen, res1, perturbed=True)


def perturbation_inverse_residual(v: AlgebraElement, h: HopfAlgebra, eps: float,
                                  tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Residual of (j*eps + v)^{-1} = v^{-1} - eps*j/(phi(v)(eps + phi(v)))."""
    j = counit_support(h, tol).element
    phi_v = h.epsilon(v)
    lhs = invert(j * eps + v, tol)
    rhs = invert(v, tol) - (eps / (phi_v * (eps + phi_v))) * j
    return (lhs - rhs).norm() / max(1.0, lhs.norm())
