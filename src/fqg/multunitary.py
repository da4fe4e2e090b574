"""GNS space of the Haar state and the multiplicative unitary.

The unitary is built on the vector model V(La (x) Lb) = (L (x) L)(delta(a)(1 (x) b))
and certified by unitarity, the pentagon equation and the leg-algebra spans.
The convention is fixed here, in one place; if a certificate fails the
construction aborts instead of silently flipping to another variant.

V is formed on element coordinates in closed form and conjugated into the
GNS basis one leg at a time, O(N^5).  Each leg keeps one represented basis,
GnsSpace.rep_basis for A and MultiplicativeUnitary.rep_dual_basis for the
dual: rep and rep_dual contract them, and leg_inverse inverts either.

In the matrix-unit GNS basis rep(A) is block-diagonal over the column
classes (the coordinates of one column of one block), so the second leg of
V maps each class into itself.  The stored V is projected on that pattern,
with the discarded round-off certified.  The first leg lies in the image of
the dual, which in a suitable orthonormal basis W (first_leg_basis) is
block-diagonal over the dual's column classes, so the pentagon certificate
sums its residual over pairs of classes, one of each leg:
O(N^3 sum_b dh_b^4 sum_b d_b^3) for the block sizes dh_b of the dual and
d_b of A, instead of O(N^8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import blockalg as ba
from .blockalg import AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig
from .duality import DualHopfAlgebra
from .errors import (CommutantViolation, HaarNotFaithful, LegMismatch,
                     NotSimpleTensor, NotUnitary, PentagonFailed,
                     SpectrumFullCircle)
from .hopf import HopfAlgebra
from .morphisms import AlgebraMap


@dataclass(eq=False)
class GnsSpace:
    """L^2(A, tau) with the matrix-unit image as spanning set.

    onb maps element coordinates to coefficients in an orthonormal basis
    (Cholesky of the Gram matrix, so the basis is the Gram-Schmidt one in
    the deterministic matrix-unit order).
    """

    hopf: HopfAlgebra
    gram: np.ndarray
    onb: np.ndarray
    onb_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.hopf.algebra.dim

    def vector(self, x: AlgebraElement) -> np.ndarray:
        """GNS image Lambda(x) in the orthonormal basis."""
        return self.onb @ x.coords()

    def element(self, vec: np.ndarray) -> AlgebraElement:
        return self.hopf.algebra.from_coords(self.onb_inv @ vec)

    def rep(self, x: AlgebraElement) -> np.ndarray:
        """Left multiplication by x as an operator on the GNS space."""
        return np.tensordot(x.coords(), self.rep_basis, axes=(0, 0))

    @cached_property
    def rep_basis(self) -> np.ndarray:
        """rep of every basis element, shape (N, N, N)."""
        return self.onb @ ba.left_mult_tensor(self.hopf.algebra) @ self.onb_inv


def leg_inverse(stack: np.ndarray, op: np.ndarray):
    """Coordinates c with sum_k c_k stack[k] = op for the represented basis
    stack of one leg, or None when op lies off its span by more than
    1e-8 max(1, ||op||_F)."""
    flat = stack.reshape(len(stack), -1).T
    c, *_ = np.linalg.lstsq(flat, op.reshape(-1), rcond=None)
    if np.linalg.norm(flat @ c - op.reshape(-1)) > 1e-8 * max(1.0, np.linalg.norm(op)):
        return None
    return c


def build_gns(h: HopfAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> GnsSpace:
    gram = h.gram
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= tol.inv_tol * max(1.0, eig[-1]):
        raise HaarNotFaithful(f"Gram matrix nearly singular: {eig[0]:.2e}")
    chol = np.linalg.cholesky(gram)
    onb = chol.conj().T
    gns = GnsSpace(h, gram, onb, np.linalg.inv(onb))
    # representation must be a unital *-homomorphism for the inner product
    n = gns.dim
    hom = ba.hom_residuals(gns.rep_basis.reshape(n, n * n).T, h.algebra, BlockAlgebra((n,)))
    if max(hom["multiplicative"], hom["star_preserving"], hom["unital"]) > 1e-8:
        raise HaarNotFaithful("GNS representation defect")
    return gns


@dataclass(eq=False)
class MultiplicativeUnitary:
    gns: GnsSpace
    dual: DualHopfAlgebra
    matrix: np.ndarray                   # unitary on H (x) H, kron ordering
    rep_dual_basis: np.ndarray           # first-leg slice of every dual basis element
    certificates: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.gns.dim

    @cached_property
    def norm(self) -> float:
        """Frobenius norm of V."""
        return float(np.linalg.norm(self.matrix))

    # -- representations of both legs -----------------------------------------
    def rep(self, x: AlgebraElement) -> np.ndarray:
        return self.gns.rep(x)

    def rep_dual(self, xhat: AlgebraElement) -> np.ndarray:
        """Represent an element of the dual inside the first-leg slice algebra."""
        return np.tensordot(xhat.coords(), self.rep_dual_basis, axes=(0, 0))


def build_multiplicative_unitary(gns: GnsSpace, dual: DualHopfAlgebra,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> MultiplicativeUnitary:
    """V with its certificates.

    The second-leg span is certified from the Schmidt fit V = V' + E,
    V' = sum_k X_k (x) S_k with S_k = rep(e_k), whose second-leg span is
    rep(A) when the X_k and the S_k are each linearly independent (their
    ranks are leg_dim_first and leg_dim_second).  By Wedin's theorem and
    Weyl's inequality the sine of the largest principal angle between the
    dominant n-dimensional second-leg span of V and rep(A) is at most
    ||E||_F / (sigma_n(X) sigma_n(S) - ||E||_F), using
    sigma_n(V') >= sigma_n(X) sigma_n(S) for the stacks X and S of the X_k
    and the S_k; second_leg_span_distance is that bound, capped at 1.

    The pentagon certificate is read on Vt = (W (x) 1) V (W* (x) 1), W from
    first_leg_basis (pentagon_certificates), with the defects
    eps = first_leg_basis_defect = ||W*W - 1||_F and
    delta = first_leg_class_defect = ||Vt - Pi^(Vt)||_F / max(1, ||Vt||_F),
    where Pi^ drops what leaves the dual's column classes on the first leg.
    For the unitary polar factor U of W, ||W - U||_2 <= eps, so Pi^(Vt)
    differs from (U (x) 1) V (U* (x) 1), whose pentagon residual is V's
    own, by at most (delta (1 + eps)^2 + eps (2 + eps)) ||V||_F.  The
    residual moves by at most (2 ||V||_2 + 1) ||V||_2 times that relative
    change, so the certified pentagon is within about 3 (delta + 2 eps) of
    V's own residual, to first order in the two defects.
    """
    h = gns.hopf
    if dual.base is not h:
        raise ba.ShapeMismatch("GNS space and dual must come from the same algebra")
    n = gns.dim

    # V on element coordinates: column (i, j) = kron coords of
    # delta(e_i)(1 (x) e_j); since (x (x) y)(1 (x) e_j) = x (x) (y e_j), this
    # is delta(e_i) with its second leg multiplied on the right by e_j:
    # V_el[p, i, r, j] = sum_q dk[p, q, i] R[j, r, q], one product of the
    # (p i, q) and (q, r j) matrices.  For each (r, j) only one q has
    # e_q e_j = e_r, so every entry is a single term, in any order of summation
    rmul = ba.right_mult_tensor(h.algebra)
    t = (h.coproduct_kron.transpose(0, 2, 1).reshape(n * n, n)
         @ rmul.transpose(2, 1, 0).reshape(n, n * n))
    # V = (O (x) O) V_el (O^-1 (x) O^-1) for O = onb, one leg at a time:
    # four O(n^5) products taking t from [p, i, r, j] through [a, i, r, j],
    # [a, c, r, j] and [a, c, r, d] to [a, c, b, d]
    onb, onb_inv = gns.onb, gns.onb_inv
    t = onb @ t.reshape(n, n ** 3)
    t = np.matmul(onb_inv.T, t.reshape(n, n, n * n))
    t = t.reshape(n ** 3, n) @ onb_inv
    t = np.matmul(onb, t.reshape(n * n, n, n))
    v_full = t.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    del t

    # the second leg lies in rep(A), which preserves every column class;
    # what V has outside that pattern is round-off, and is dropped so that
    # every certificate below, the pentagon's split included, reads Pi(V)
    v = project_on_column_classes(v_full, h.algebra)
    cert = {}
    cert["column_class_defect"] = (float(np.linalg.norm(v_full - v))
                                   / max(1.0, float(np.linalg.norm(v_full))))
    del v_full
    if cert["column_class_defect"] > 1e-8:
        raise LegMismatch(f"V leaves the column classes of rep(A): "
                          f"{cert['column_class_defect']:.2e}")
    # V, and with it V*V - 1, is block-diagonal over the leg-2 classes
    sq = 0.0
    for cls in _class_stacks(h.algebra):
        g, m = cls.shape
        vk = _leg2_blocks(v, n, cls).reshape(g, n * m, n * m)
        gram = vk.conj().transpose(0, 2, 1) @ vk - np.eye(n * m)
        sq += float(np.vdot(gram, gram).real)
    cert["unitarity"] = float(np.sqrt(sq)) / n
    if cert["unitarity"] > tol.eq_tol * 100:
        raise NotUnitary(f"V fails unitarity: {cert['unitarity']:.2e}")

    # decompose V = sum_k X_k (x) rep(e_k): second legs span the GNS image of A
    v_schmidt = v.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    flat = gns.rep_basis.reshape(n, n * n)
    xmat, res, *_ = np.linalg.lstsq(flat.T, v_schmidt.T, rcond=None)
    fit = float(np.linalg.norm(flat.T @ xmat - v_schmidt.T))
    del v_schmidt
    cert["second_leg_membership"] = fit / max(1.0, float(np.linalg.norm(v)))
    if cert["second_leg_membership"] > 1e-8:
        raise LegMismatch("V does not lie in B(H) (x) rep(A)")
    shat = xmat.reshape(n, n, n)

    # leg spans: both stacks have full rank, and the second legs of V lie
    # within the fit's distance of rep(A)
    cert["leg_dim_first"], floor_first = _rank_and_floor(xmat)
    cert["leg_dim_second"], floor_second = _rank_and_floor(flat)
    gap = floor_first * floor_second - fit
    cert["second_leg_span_distance"] = min(1.0, fit / gap) if gap > 0 else 1.0
    if cert["leg_dim_first"] != n or cert["leg_dim_second"] != n:
        raise LegMismatch(f"leg ranks {cert['leg_dim_first']}, {cert['leg_dim_second']} != {n}")
    if cert["second_leg_span_distance"] > 1e-8:
        raise LegMismatch("second legs do not span rep(A)")

    # the slice map must be a unital *-isomorphism from the dual onto
    # span{X_k}; the first-leg slice of the i-th dual basis element is
    # sum_k beta(e_k, ehat_i) X_k
    rep_dual_basis = np.tensordot(dual.from_dual_mat, shat, axes=(0, 0))
    flat_hat = rep_dual_basis.reshape(n, n * n)
    hom = ba.hom_residuals(flat_hat.T, dual.hopf.algebra, BlockAlgebra((n,)))
    cert["dual_rep_multiplicative"] = hom["multiplicative"]
    cert["dual_rep_star"] = hom["star_preserving"]
    cert["dual_rep_unital"] = hom["unital"]
    if max(hom["multiplicative"], hom["star_preserving"], hom["unital"]) > 1e-7:
        raise LegMismatch("first-leg slices do not represent the dual algebra")

    # pairing certificate: expanding V over the two leg bases recovers the
    # duality pairing; with Q the coefficient matrix of the first legs over
    # the represented dual basis, beta_mat^T @ Q must be the identity, where
    # beta_mat[i, j] = beta(e_j, ehat_i) = from_dual_mat[j, i]
    q = np.linalg.lstsq(flat_hat.T, shat.reshape(n, n * n).T, rcond=None)[0]
    cert["pairing_via_v"] = float(np.linalg.norm(dual.from_dual_mat @ q - np.eye(n))) / n
    if cert["pairing_via_v"] > 1e-7:
        raise LegMismatch("V does not implement the duality pairing")

    # the pentagon, split over the classes of both legs in the first-leg
    # basis W of the dual's matrix units
    cert.update(pentagon_certificates(
        v, first_leg_basis(rep_dual_basis, dual.hopf.algebra),
        dual.hopf.algebra, h.algebra))
    if cert["first_leg_basis_defect"] > 1e-8:
        raise LegMismatch(f"first-leg basis is not orthonormal: "
                          f"{cert['first_leg_basis_defect']:.2e}")
    if cert["first_leg_class_defect"] > 1e-8:
        raise LegMismatch(f"V leaves the column classes of the dual on its first leg: "
                          f"{cert['first_leg_class_defect']:.2e}")
    if cert["pentagon"] > 1e-8:
        raise PentagonFailed(f"pentagon residual {cert['pentagon']:.2e}")
    return MultiplicativeUnitary(gns, dual, v, rep_dual_basis, cert)


def column_classes(a: BlockAlgebra) -> np.ndarray:
    """Column class of every coordinate of a: the coordinates of column q
    of block b share one label, the coordinate of their top entry.
    rep(A) maps each class into itself."""
    label = np.empty(a.dim, int)
    for cls in _class_stacks(a):
        label[cls] = cls[:, :1]
    return label


def _class_stacks(a: BlockAlgebra) -> list[np.ndarray]:
    """The column classes of a stacked by size: one (count, m) array of
    coordinates per block size m, row (b, q) holding column q of block b."""
    return [idx.transpose(0, 2, 1).reshape(-1, idx.shape[1])
            for idx in a.layout.by_size.values()]


def project_on_column_classes(v: np.ndarray, a: BlockAlgebra) -> np.ndarray:
    """Pi(V): V on H (x) H with every entry whose leg-2 row and column lie
    in different column classes of a set to zero."""
    n = a.dim
    label = column_classes(a)
    keep = (label[:, None] == label[None, :])[None, :, None, :]
    return np.where(keep, v.reshape(n, n, n, n), 0).reshape(n * n, n * n)


def _leg2_blocks(v: np.ndarray, n: int, cls: np.ndarray) -> np.ndarray:
    """V with both leg-2 indices in one class K of cls, for every K: the
    (count, n, m, n, m) stack [K, row1, row2, col1, col2]."""
    sub = v.reshape(n, n, n, n)[:, cls[:, :, None], :, cls[:, None, :]]
    return sub.transpose(0, 3, 1, 4, 2)


def first_leg_basis(slices: np.ndarray, a_hat: BlockAlgebra) -> np.ndarray:
    """The unitary W with W pi(e) W* the left multiplication by e on the
    matrix-unit coordinates of a_hat, for the first-leg slices
    slices[i] = pi(e_i) of the dual basis, a *-representation of a_hat
    with multiplicity m on each block of size m.

    For each block b of size m, the columns of Q_b are an orthonormal basis
    of the range of the rank-m projection pi(e_(b,0,0)) (one batched eigh
    per block size), and row (b, r, q) of W is eta* with
    eta = pi(e_(b,r,0)) Q_b[:, q].  Then pi(e_(b,r,s)) maps eta_(b,s,q) to
    eta_(b,r,q), so W pi(a_hat) W* preserves every column class of a_hat."""
    n = a_hat.dim
    eta = np.empty((n, n), complex)
    for m, idx in a_hat.layout.by_size.items():
        _, vecs = np.linalg.eigh(slices[idx[:, 0, 0]])
        # eta[:, (b, r, q)] = pi(e_(b,r,0)) Q_b[:, q]
        eta[:, idx] = (slices[idx[:, :, 0]] @ vecs[:, None, :, -m:]).transpose(2, 0, 1, 3)
    return eta.conj().T


def pentagon_certificates(v: np.ndarray, w: np.ndarray, first: BlockAlgebra,
                          second: BlockAlgebra) -> dict:
    """pentagon_residual of V in the first-leg basis W, with the two defects
    that bound its distance from V's own residual (see
    build_multiplicative_unitary): first_leg_basis_defect and
    first_leg_class_defect, the norm of Vt = (W (x) 1) V (W* (x) 1) outside
    first's column classes on its first leg over max(1, ||Vt||_F)."""
    n = second.dim
    basis_defect = float(np.linalg.norm(w.conj().T @ w - np.eye(n)))
    vt = np.matmul(w.conj(), (w @ v.reshape(n, n ** 3)).reshape(n * n, n, n))
    label = column_classes(first)
    off = vt.reshape(n, n, n, n).transpose(0, 2, 1, 3)[label[:, None] != label]
    class_defect = float(np.linalg.norm(off)) / max(1.0, float(np.linalg.norm(vt)))
    del off
    return {"first_leg_basis_defect": basis_defect,
            "first_leg_class_defect": class_defect,
            "pentagon": pentagon_residual(v, vt.reshape(n * n, n * n), first, second)}


def pentagon_residual(v: np.ndarray, vt: np.ndarray, first: BlockAlgebra,
                      second: BlockAlgebra) -> float:
    """Frobenius norm of Vt12 Vt13 V23 - V23 Vt12 on H (x) H (x) H, divided
    by max(1, ||V12||_F) = max(1, sqrt(n) ||V||_F), where
    Vt = (W (x) 1) V (W* (x) 1); for unitary W this operator is
    W1 (V12 V13 V23 - V23 V12) W1*, so it has V's pentagon residual.

    V keeps its second leg inside the column classes of second (A), and Vt
    its first leg inside those of first (the dual), so the operator is
    block-diagonal over (class of first on leg 1) x (class of second on
    leg 3), with leg 2 whole; only the entries of Vt inside first's classes
    are read.  The squared norms of the blocks are summed, the pairs of
    classes of one size stacked and chunked so that no temporary exceeds
    about n^4 / 4 entries: O(n^3 sum_b dh_b^4 sum_b d_b^3) time for block
    sizes dh_b of first and d_b of second, never an n^3 x n^3 matrix.
    """
    n = second.dim
    vt4 = vt.reshape(n, n, n, n)               # axes (row1, row2, col1, col2)
    budget = n ** 4 // 4
    total = 0.0
    for hat in _class_stacks(first):
        mh = hat.shape[1]
        # Vt12 on leg 1 in class G: t12[G, c', b', c, b] = <e_(G c') e_b'|Vt|e_(G c) e_b>
        t12 = vt4[hat[:, :, None], :, hat[:, None, :]].transpose(0, 1, 3, 2, 4)
        for cls in _class_stacks(second):
            g, m = cls.shape
            # V23 on leg 3 in class K: v23[K, b', k', b, k] = <e_b' e_(K k')|V|e_b e_(K k)>
            v23 = _leg2_blocks(v, n, cls)
            step = max(1, budget // (mh * m * n) ** 2)
            for start in range(0, len(hat) * g, step):
                gi, ki = np.divmod(np.arange(start, min(start + step, len(hat) * g)), g)
                size = len(gi)
                gh, kk, a12, a23 = hat[gi], cls[ki], t12[gi], v23[ki]
                # Vt13 on (G, K): a13[p, c1, k', c, k2] = <e_(G c1) e_(K k')|Vt|e_(G c) e_(K k2)>
                a13 = vt4[gh[:, :, None, None, None], kk[:, None, :, None, None],
                          gh[:, None, None, :, None], kk[:, None, None, None, :]]
                # Vt13 V23 at [p, c1, k', c, b1, b, k], regrouped as (c1, b1) x (k', c, b, k)
                y = (a13.reshape(size, mh * m * mh, m)
                     @ a23.transpose(0, 2, 1, 3, 4).reshape(size, m, n * n * m))
                y = y.reshape(size, mh, m, mh, n, n, m).transpose(0, 1, 4, 2, 3, 5, 6)
                # Vt12 Vt13 V23 at [p, c', b', k', c, b, k]
                left = a12.reshape(size, mh * n, mh * n) @ y.reshape(size, mh * n, -1)
                # V23 Vt12: sum_b2 v23[b', k', b2, k] t12[c', b2, c, b] at [p, k, b', k', c', c, b]
                right = (a23.transpose(0, 4, 1, 2, 3).reshape(size, m * n * m, n)
                         @ a12.transpose(0, 2, 1, 3, 4).reshape(size, n, mh * mh * n))
                diff = (left.reshape(size, mh, n, m, mh, n, m)
                        - right.reshape(size, m, n, m, mh, mh, n).transpose(0, 4, 2, 3, 5, 6, 1))
                total += float(np.vdot(diff, diff).real)
    norm = max(1.0, float(np.sqrt(n) * np.linalg.norm(v)))
    return float(np.sqrt(total)) / norm


def _rank_and_floor(rows: np.ndarray) -> tuple[int, float]:
    """Numerical rank of the rows and their smallest kept singular value."""
    rank, _, vh = ba.numerical_rank(rows)
    return rank, float(np.linalg.norm(rows @ vh[rank - 1].conj()))


# ---------------------------------------------------------------------------
# fixed and cofixed vectors
# ---------------------------------------------------------------------------

@dataclass
class FixedSpaces:
    fixed: np.ndarray      # columns: ON basis of {xi : V(xi (x) eta) = xi (x) eta}
    cofixed: np.ndarray
    eigenvector_residual: float


def fixed_and_cofixed(mu: MultiplicativeUnitary) -> FixedSpaces:
    n = mu.dim
    v = mu.matrix
    # stack conditions over a basis of the other leg: w[:, :, k] is
    # (V - 1) restricted to xi (x) e_k, w[:, k, :] to e_k (x) eta; the thin
    # QR of each n^3 x n stack keeps its singular values and null space
    w = (v - np.eye(n * n)).reshape(n * n, n, n)
    rows_fixed = w.transpose(2, 0, 1).reshape(n ** 3, n)
    rows_cofixed = w.transpose(1, 0, 2).reshape(n ** 3, n)
    fixed = ba.null_space(np.linalg.qr(rows_fixed, mode="r"))
    cofixed = ba.null_space(np.linalg.qr(rows_cofixed, mode="r"))

    # quoted eigenvector property: rep(A) maps cofixed vectors to multiples,
    # dual slices map fixed vectors to multiples
    worst = max(_off_ray(mu.gns.rep_basis, cofixed), _off_ray(mu.rep_dual_basis, fixed))
    return FixedSpaces(fixed, cofixed, worst)


def _off_ray(ops: np.ndarray, vecs: np.ndarray) -> float:
    """Largest norm of the component of op vec orthogonal to vec, over the
    (k, n, n) stack ops and the columns vec of vecs."""
    if vecs.shape[1] == 0:
        return 0.0
    vn = vecs / np.linalg.norm(vecs, axis=0)
    img = ops @ vecs                                 # [k, :, j] = ops[k] @ vecs[:, j]
    # (vn* img)[k, j] as the diagonal of vn* @ img[k], a BLAS dot per entry
    coef = np.diagonal(vn.conj().T @ img, axis1=1, axis2=2)
    off = img - coef[:, None, :] * vn
    return float(np.linalg.norm(off, axis=1).max())


# ---------------------------------------------------------------------------
# commutation with u-hat (x) u
# ---------------------------------------------------------------------------

def _commutator_residual(mu: MultiplicativeUnitary, op: np.ndarray) -> float:
    """||V op - op V|| / max(1, ||V||)."""
    return float(np.linalg.norm(mu.matrix @ op - op @ mu.matrix)) / max(1.0, mu.norm)


def _tensor_commutator_residual(mu: MultiplicativeUnitary, x: np.ndarray,
                                t: np.ndarray) -> float:
    """||V (X (x) T) - (X (x) T) V|| / max(1, ||V||) by leg contractions of
    V as (n, n, n, n): O(n^5), no n^2 x n^2 Kronecker matrix."""
    n = mu.dim
    v4 = mu.matrix.reshape(n, n, n, n)          # axes (row1, row2, col1, col2)
    # V (X (x) T) at [e, a, b, f] = sum_c X[c, e] (sum_d V[a, b, c, d] T[d, f])
    vt = (mu.matrix.reshape(n ** 3, n) @ t).reshape(n * n, n, n)
    left = x.T @ vt.transpose(1, 0, 2).reshape(n, n ** 3)
    # (X (x) T) V at [a, b, e, f] = sum_c X[a, c] (sum_d T[b, d] V[c, d, e, f])
    tv = (t @ v4.transpose(1, 0, 2, 3).reshape(n, n ** 3)).reshape(n, n, n * n)
    right = (x @ tv.transpose(1, 0, 2).reshape(n, n ** 3)).reshape(n, n, n, n)
    diff = left.reshape(n, n, n, n) - right.transpose(2, 0, 1, 3)
    return float(np.linalg.norm(diff)) / max(1.0, mu.norm)


def _check_unitary(op: np.ndarray, tol: ToleranceConfig, what: str):
    n = op.shape[0]
    if np.linalg.norm(op.conj().T @ op - np.eye(n)) > tol.eq_tol * 100 * n:
        raise NotUnitary(f"{what} is not unitary")


def commutation_test(uhat: AlgebraElement, u: AlgebraElement,
                     mu: MultiplicativeUnitary,
                     tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Residual of [V, uhat (x) u], as {"residual": ...}, after checking
    that rep_dual(uhat) and rep(u) are unitary.

    The residual is the O(n^5) leg contraction of
    _tensor_commutator_residual.  Conjugation by the pair needs no leg
    certificate: rep_dual(uhat) lies in the first-leg algebra and rep(u) in
    rep(A), and an algebra's own unitaries map it onto itself.
    """
    t_hat = mu.rep_dual(uhat)
    t = mu.rep(u)
    _check_unitary(t_hat, tol, "uhat")
    _check_unitary(t, tol, "u")
    return {"residual": _tensor_commutator_residual(mu, t_hat, t)}


def solve_commutant_partner(u: AlgebraElement, mu: MultiplicativeUnitary):
    """All W in the first-leg algebra with V(W (x) rep(u)) = (W (x) rep(u))V.

    Returns an orthonormal basis (list of dual-coefficient rows); the linear
    system is solved over span{X_k} so central scalar mismatches cannot hide.

    V = sum_k X_k (x) S_k with S_k = rep(e_k) linearly independent.  With
    T = rep(u), S_k T = sum_j (e_k u)_j S_j and T S_k = sum_j (u e_k)_j S_j,
    so V(W (x) T) = sum_j Y_j W (x) S_j and (W (x) T)V = sum_j W Z_j (x) S_j
    where Y_j = sum_k (e_k u)_j X_k and Z_j = sum_k (u e_k)_j X_k: the
    equation holds exactly when Y_j W = W Z_j for every j.  Over
    W = sum_c w_c Xhat_c, Xhat_c = rep_dual_basis[c] the first-leg slice of
    the c-th dual basis element, that is an n^3 x n system in w.  One thin
    QR reduces it to its n x n triangular factor, which has the same
    singular values and null space, and no inverse of u is needed.
    """
    n = mu.dim
    a = mu.gns.hopf.algebra
    # Xhat_c at [c, p, q]; Y_j and Z_j at [j, p, q], from the coefficients
    # (e_k u)_j = R_u[j, k] and (u e_k)_j = L_u[j, k] of right and left
    # multiplication by u, times to_dual_mat^T: X_k = sum_c to_dual_mat[c, k] Xhat_c
    xhat = mu.rep_dual_basis
    to_hat = mu.dual.to_dual_mat.T
    ys = np.tensordot(np.tensordot(u.coords(), ba.right_mult_tensor(a), axes=(0, 0)) @ to_hat,
                      xhat, axes=(1, 0))
    zs = np.tensordot(np.tensordot(u.coords(), ba.left_mult_tensor(a), axes=(0, 0)) @ to_hat,
                      xhat, axes=(1, 0))
    # Y_j Xhat_c at [j, p, c, q] and Xhat_c Z_j at [c, p, j, q]
    yx = (ys.reshape(n * n, n) @ xhat.transpose(1, 0, 2).reshape(n, n * n)).reshape((n,) * 4)
    xz = (xhat.reshape(n * n, n) @ zs.transpose(1, 0, 2).reshape(n, n * n)).reshape((n,) * 4)
    system = yx.transpose(0, 1, 3, 2) - xz.transpose(2, 1, 3, 0)
    null = ba.null_space(np.linalg.qr(system.reshape(n ** 3, n), mode="r"))
    return [mu.dual.hopf.algebra.from_coords(null[:, i])
            for i in range(null.shape[1])]


# ---------------------------------------------------------------------------
# simple tensors in the commutant and the connecting path
# ---------------------------------------------------------------------------

def split_simple_tensor(op: np.ndarray, n: int):
    """Split a rank-one operator T = X (x) Y on C^n (x) C^n.

    Raises NotSimpleTensor unless the operator-Schmidt spectrum has a
    dominant gap (sigma_1/sigma_2 > 1e6).
    """
    schmidt = op.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    u_s, sv, vh_s = np.linalg.svd(schmidt)
    if len(sv) > 1 and sv[0] < 1e6 * sv[1]:
        raise NotSimpleTensor(f"operator-Schmidt ratio {sv[0]/max(sv[1],1e-300):.2e}")
    x = u_s[:, 0].reshape(n, n) * np.sqrt(sv[0])
    y = vh_s[0, :].reshape(n, n) * np.sqrt(sv[0])
    # phase convention: largest entry of the second factor real positive
    idx = np.unravel_index(np.argmax(np.abs(y)), y.shape)
    ph = np.abs(y[idx]) / y[idx]
    return x / ph, y * ph


def pair_from_commutant(op: np.ndarray, mu: MultiplicativeUnitary,
                        tol: ToleranceConfig = DEFAULT_TOL):
    """From a simple-tensor unitary commuting with V, extract the dual pair
    of inner automorphisms with certificates.

    Returns dict with u, uhat (algebra elements), the two conjugation maps,
    and residuals (commutation, pairing invariance).
    """
    n = mu.dim
    resid = _commutator_residual(mu, op)
    if resid > tol.eq_tol * 1e3:
        raise CommutantViolation(f"commutation residual {resid:.2e}")
    xop, yop = split_simple_tensor(op, n)
    _check_unitary(xop, tol, "first factor")
    _check_unitary(yop, tol, "second factor")
    u_coords = leg_inverse(mu.gns.rep_basis, yop)
    if u_coords is None:
        raise NotSimpleTensor("second factor is not in the base leg algebra")
    u = mu.gns.hopf.algebra.from_coords(u_coords)
    uhat_coords = leg_inverse(mu.rep_dual_basis, xop)
    if uhat_coords is None:
        raise NotSimpleTensor("first factor is not in the dual leg algebra")
    uhat = mu.dual.hopf.algebra.from_coords(uhat_coords)
    alpha = AlgebraMap.ad(u, tol)
    alpha_hat = AlgebraMap.ad(uhat, tol)
    # pairing invariance: beta(u x u*, uhat yhat uhat*) = beta(x, yhat)
    rng = np.random.default_rng(0xBE7A)
    worst = 0.0
    for _ in range(8):
        x = ba.random_element(mu.gns.hopf.algebra, rng)
        yh = ba.random_element(mu.dual.hopf.algebra, rng)
        worst = max(worst, abs(mu.dual.pairing(alpha(x), alpha_hat(yh))
                               - mu.dual.pairing(x, yh)))
    return {"u": u, "uhat": uhat, "alpha": alpha, "alpha_hat": alpha_hat,
            "commutation_residual": resid, "pairing_invariance": worst}


def unitary_fractional_power(op: np.ndarray, r: float | np.ndarray,
                             min_gap: float = 1e-6) -> np.ndarray:
    """op^r by functional calculus with the branch cut in the largest
    spectral gap on the unit circle.  r may be an array of exponents: the
    powers are stacked along its shape, all from one Hermitian
    eigendecomposition.

    With c = e^{i cut}, H = i(c + op)(c - op)^-1 is Hermitian with the
    eigenvectors of op, and op's eigenvalue e^{i phi} is H's eigenvalue
    cot((cut - phi) / 2), so phi = cut - 2 atan2(1, cot) lies in
    (cut - 2 pi, cut), the branch of the cut.  The cut lies in the largest
    gap, at least 2 pi / n wide, so c - op is well conditioned."""
    angles = np.sort(np.angle(np.linalg.eigvals(op)))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    imax = int(np.argmax(gaps))
    if gaps[imax] < min_gap:
        raise SpectrumFullCircle("no usable gap on the unit circle")
    cut = angles[imax] + gaps[imax] / 2
    c = np.exp(1j * cut) * np.eye(len(op))
    cot, vecs = np.linalg.eigh(ba.hermitian_part(1j * np.linalg.solve(c - op, c + op)))
    shifted = cut - 2 * np.arctan2(1.0, cot)
    powered = np.exp(1j * np.multiply.outer(r, shifted))
    return (vecs * powered[..., None, :]) @ vecs.conj().T


def path_in_commutant(uhat: AlgebraElement, u: AlgebraElement,
                      mu: MultiplicativeUnitary, r: float | tuple | np.ndarray):
    """The simple tensor uhat^r (x) u^r (principal powers); returns the pair
    of operators and the commutation residual at this r.

    r may also be a sequence of radii: then both factors are (k, n, n)
    stacks from one Hermitian eigendecomposition each, and the residuals a
    length-k array.  The commutators are taken one radius at a time, which
    keeps the temporaries at n^4 entries."""
    rs = np.asarray(r, float)
    if not np.all((0 < rs) & (rs <= 1)):
        raise ValueError("r must be in (0, 1]")
    n = mu.dim
    t_hat = unitary_fractional_power(mu.rep_dual(uhat), rs)
    t = unitary_fractional_power(mu.rep(u), rs)
    resids = [_tensor_commutator_residual(mu, a, b)
              for a, b in zip(t_hat.reshape(-1, n, n), t.reshape(-1, n, n))]
    return t_hat, t, resids[0] if rs.ndim == 0 else np.array(resids)
