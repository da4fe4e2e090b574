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
from .hopf import HopfAlgebra, cocentre_basis, counit_support, kron_coefficients


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
        """Conjugation x -> u x u^{-1}."""
        uinv = invert(u, tol)
        return cls(u.algebra, u.algebra, _sandwich_matrix(u, uinv))

    @classmethod
    def blockwise_transpose(cls, a: BlockAlgebra) -> "AlgebraMap":
        # e_{b,r,s} -> e_{b,s,r}, an involution on the coordinates
        return cls(a, a, np.eye(a.dim)[a.layout.adjoint])


# ---------------------------------------------------------------------------
# flag classification
# ---------------------------------------------------------------------------

_POSITIVITY_SAMPLES = 24


def _cached_cocentre(h: HopfAlgebra):
    if "cocentre_cache" not in h.meta:
        h.meta["cocentre_cache"] = cocentre_basis(h)
    return h.meta["cocentre_cache"]


def hopf_flags_fast(phi: AlgebraMap, h: HopfAlgebra,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Cheap test for the Hopf *-automorphism property (no positivity family).

    Checks bijectivity, the unital *-homomorphism residuals and intertwining
    of the coproduct; used by the sampling harnesses.
    """
    m = phi.matrix
    if np.linalg.svd(m, compute_uv=False)[-1] <= tol.inv_tol:
        return False
    thresh = tol.eq_tol * 100
    hom = ba.hom_residuals(m, h.algebra, h.algebra)
    if max(hom["multiplicative"], hom["star_preserving"], hom["unital"]) > thresh:
        return False
    return _hopf_residuals(m, h, h)[0] <= thresh


def _hopf_residuals(m: np.ndarray, h_source: HopfAlgebra,
                    h_target: HopfAlgebra) -> tuple[float, float]:
    """Relative residuals of delta phi = (phi (x) phi) delta and of the same
    identity with the flipped coproduct.

    Both sides are compared on kron coordinates [p, q, x] (the coefficient of
    e_p (x) e_q in the image of e_x), where the flip swaps p and q and
    (phi (x) phi) delta is two products with phi, one per leg.
    """
    nt, ns = m.shape
    dk = h_source.coproduct_kron.reshape(ns, ns * ns)
    first = (m @ dk).reshape(nt, ns, ns).transpose(1, 0, 2).reshape(ns, nt * ns)
    qp = (m @ first).reshape(nt, nt, ns)                 # axes [q, p, x]
    lhs = kron_coefficients(h_target.algebra, h_target.coproduct @ m)
    scale = max(1.0, np.linalg.norm(lhs))
    return (float(np.linalg.norm(lhs - qp.swapaxes(0, 1))) / scale,
            float(np.linalg.norm(lhs - qp)) / scale)


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
        coc = _cached_cocentre(h_source)
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
    ainv = np.linalg.inv(alpha.matrix)
    mat = d.to_dual_mat @ ainv.T @ d.from_dual_mat
    return AlgebraMap(d.hopf.algebra, d.hopf.algebra, mat)


def dual_sandwich(c: AlgebraElement, h: HopfAlgebra, d: DualHopfAlgebra,
                  tol: ToleranceConfig = DEFAULT_TOL,
                  require_cocentre_fixing: bool = False):
    """Convolution sandwich on the dual: yhat -> F(c) <>' yhat <>' F(c^{-1})
    where <>' is the dual convolution; equals F o Ad(c) o F^{-1}.

    Asserts agreement with the pairing-invariance dual of Ad(c); a mismatch
    means the Fourier/pairing conventions have drifted and aborts the build.
    The identity holds for every invertible c (the Haar state is tracial);
    the cocentre-fixing hypothesis matters only for the downstream Jordan
    classification and is enforced there, or here on request.

    Returns (map, a, b) with a = F(c), b = F(c^{-1}).
    """
    cinv = invert(c, tol)
    if require_cocentre_fixing:
        for z in cocentre_basis(h):
            if (c * z - z * c).norm() > tol.eq_tol * 100 * max(1.0, c.norm()):
                raise PreconditionFailed("conjugation by c does not fix the cocentre")
    ad_c = AlgebraMap.ad(c, tol)
    mat = d.fourier_mat @ ad_c.matrix @ d.fourier_inv
    sandwich = AlgebraMap(d.hopf.algebra, d.hopf.algebra, mat)
    # convention linchpin: compare with the pairing-invariance dual
    pairing_dual = d.to_dual_mat @ np.linalg.inv(ad_c.matrix).T @ d.from_dual_mat
    defect = float(np.linalg.norm(mat - pairing_dual)) / max(1.0, np.linalg.norm(mat))
    if defect > tol.eq_tol * 1e3:
        raise ConventionMismatch(f"sandwich vs pairing dual defect {defect:.2e}")
    a = d.fourier(c)
    b = d.fourier(cinv)
    return sandwich, a, b


# ---------------------------------------------------------------------------
# inner implementers
# ---------------------------------------------------------------------------

def _sandwich_matrix(left: AlgebraElement, right: AlgebraElement) -> np.ndarray:
    """Coordinate matrix of x -> l x r: block-diagonal kron(l_b, r_b^T), as
    vec_row(L X R) = (L (x) R^T) vec_row(X), scattered once per block size."""
    a = left.algebra
    out = np.zeros((a.dim, a.dim), complex)
    for idx, lb, rb in zip(a.layout.by_size.values(), left.stacks(), right.stacks()):
        k, n = idx.shape[:2]
        flat = idx.reshape(k, n * n)
        # kron(l, r^T)[(i, j), (p, q)] = l[i, p] r[q, j]
        kr = lb[:, :, None, :, None] * rb.swapaxes(1, 2)[:, None, :, None, :]
        out[flat[:, :, None], flat[:, None, :]] = kr.reshape(k, n * n, n * n)
    return out


def _unitary_intertwiners(u: np.ndarray, tol: ToleranceConfig) -> np.ndarray | None:
    """The (k, n, n) intertwiners u scaled to unitaries, each with its largest
    entry real positive; None when one is not unitary up to scale (for an
    automorphism every intertwiner is)."""
    k, nb = u.shape[:2]
    uu = u.conj().transpose(0, 2, 1) @ u
    scale = np.trace(uu, axis1=1, axis2=2).real / nb
    if np.any(scale <= tol.inv_tol) or np.any(np.linalg.norm(
            uu - scale[:, None, None] * np.eye(nb), axis=(1, 2)) > 1e-7 * scale * nb):
        return None
    u = (u / np.sqrt(scale)[:, None, None]).reshape(k, -1)
    top = u[np.arange(k), np.argmax(np.abs(u), axis=1)]
    return u * (np.abs(top) / top)[:, None]


def inner_implementer(alpha: AlgebraMap, tol: ToleranceConfig = DEFAULT_TOL):
    """Unitary u with alpha = Ad(u), or None when alpha permutes blocks.

    Solves the intertwiner system alpha(x) u = u x block by block (batched
    over blocks of one size) and unitarises; the phase is canonicalised per
    block (largest entry real positive).
    """
    a = alpha.source
    if alpha.target != a:
        raise DimensionMismatch("inner implementers need an endomorphism")
    units = a.block_unit_coords()
    if np.linalg.norm(alpha.matrix @ units - units, axis=0).max() > tol.eq_tol * 1e3:
        return None
    coords = np.empty(a.dim, complex)
    for nb, idx in a.layout.by_size.items():
        flat = idx.reshape(len(idx), -1)
        # ax[:, k] = alpha(x_k) on each block, x_k the k-th matrix unit
        ax = alpha.matrix[flat[:, None, :], flat[:, :, None]].reshape(-1, nb * nb, nb, nb)
        xt = np.eye(nb * nb).reshape(nb * nb, nb, nb).transpose(0, 2, 1)
        one = np.eye(nb)
        # alpha(x_k) u - u x_k = 0, unknown u as vec (row-major): row block k is
        # kron(alpha(x_k), 1) - kron(1, x_k^T), axes [k, i, l, j, m]
        sys = ax[:, :, :, None, :, None] * one[:, None, :] \
            - one[:, None, :, None] * xt[:, None, :, None, :]
        rank, _, vh = ba.numerical_rank(sys.reshape(len(idx), nb ** 4, nb * nb))
        # a block without an intertwiner: alpha is not inner there
        if np.any(rank == nb * nb):
            return None
        u = _unitary_intertwiners(vh[:, -1].conj().reshape(-1, nb, nb), tol)
        if u is None:
            return None
        coords[idx.reshape(-1)] = u.reshape(-1)
    u_el = a.from_coords(coords)
    resid = alpha.matrix - _sandwich_matrix(u_el, u_el.adjoint())
    if np.linalg.norm(resid, axis=0).max() > tol.eq_tol * 1e3:
        return None
    return u_el


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
    sandwich, _, _ = dual_sandwich(v, h, d, tol)
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
    for z in cocentre_basis(h):
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
