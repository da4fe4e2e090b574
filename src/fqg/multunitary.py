"""GNS space of the Haar state and the multiplicative unitary.

The unitary is built on the vector model V(La (x) Lb) = (L (x) L)(delta(a)(1 (x) b))
and certified by unitarity, the pentagon equation and the leg-algebra spans.
The convention is fixed here, in one place; if a certificate fails the
construction aborts instead of silently flipping to another variant.

V is the canonical element sum_q X_q (x) S_q of the dual (x) A (Baaj and
Skandalis 1993), formed from its Schmidt legs: S_q = rep(e_q), and X_q the
coproduct's slices in the GNS basis (two batched O(N^4) products), then one
(N^2, N) by (N, N^2) product.  Each leg keeps one represented basis,
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

    @cached_property
    def rep_defects(self) -> dict:
        """hom_residuals of rep: how far it is from a unital
        *-representation of A on the GNS space."""
        n = self.dim
        return ba.hom_residuals(self.rep_basis.reshape(n, n * n).T, self.hopf.algebra,
                                BlockAlgebra((n,)))


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
    hom = gns.rep_defects
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

    @cached_property
    def leg_grams(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace Gram matrices of the represented bases of both legs:
        Ghat[a, b] = tr(Xhat_a* Xhat_b) over rep_dual_basis and
        G[j, k] = tr(S_j* S_k) over S_k = rep(e_k), so that
        ||rep_dual(x)||_F^2 = x* Ghat x and ||rep(x)||_F^2 = x* G x."""
        n = self.dim
        flats = (self.rep_dual_basis.reshape(n, n * n), self.gns.rep_basis.reshape(n, n * n))
        return tuple(f.conj() @ f.T for f in flats)

    # -- representations of both legs -----------------------------------------
    def rep(self, x: AlgebraElement) -> np.ndarray:
        return self.gns.rep(x)

    def rep_dual(self, xhat: AlgebraElement) -> np.ndarray:
        """Represent an element of the dual inside the first-leg slice algebra."""
        return np.tensordot(xhat.coords(), self.rep_dual_basis, axes=(0, 0))


def build_multiplicative_unitary(gns: GnsSpace, dual: DualHopfAlgebra,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> MultiplicativeUnitary:
    """V with its certificates.

    V' = sum_k X_k (x) S_k with S_k = rep(e_k) and X_k = onb D_k onb^-1,
    D_k[p, i] = coproduct_kron[p, k, i], is V in exact arithmetic; the
    stored V is its projection Pi(V') on the column classes, V = V' + E,
    E the projection's drop.  So second_leg_membership is
    ||E||_F / max(1, ||V||_F), and V's second-leg span is rep(A) up to E
    when the X_k and the S_k are each linearly independent (their ranks are
    leg_dim_first and leg_dim_second).  By Wedin's theorem and Weyl's
    inequality the sine of the largest principal angle between the
    dominant n-dimensional second-leg span of V and rep(A) is at most
    ||E||_F / (sigma_n(X) sigma_n(S) - ||E||_F), using
    sigma_n(V') >= sigma_n(X) sigma_n(S) for the stacks X and S of the X_k
    and the S_k; second_leg_span_distance is that bound, capped at 1.

    The first-leg slice of the dual basis element ehat_i is
    sum_k beta(e_k, ehat_i) X_k.  The dual-rep certificates (dual_rep_*)
    check that these slices represent the dual; they are also the pairing
    certificate, since a wrong pairing matrix mixes the X_k into slices that
    do not multiply as the dual does.

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

    # column (i, j) of V on element coordinates is
    # delta(e_i)(1 (x) e_j) = sum_q D_q e_i (x) e_q e_j, D_q[p, i] = dk[p, q, i],
    # so in the GNS basis V' = sum_q X_q (x) S_q with X_q = onb D_q onb^-1 and
    # S_q = rep(e_q): one (n^2, n) by (n, n^2) product of the Schmidt legs
    xs = gns.onb @ h.coproduct_kron.transpose(1, 0, 2) @ gns.onb_inv
    v_full = ((xs.reshape(n, n * n).T @ gns.rep_basis.reshape(n, n * n))
              .reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))

    # the second leg lies in rep(A), which preserves every column class;
    # what V' has outside that pattern is round-off, and is dropped so that
    # every certificate below, the pentagon's split included, reads
    # V = Pi(V') = V' + E
    v = project_on_column_classes(v_full, h.algebra)
    cert = {}
    drop = float(np.linalg.norm(v_full - v))
    del v_full
    cert["second_leg_membership"] = drop / max(1.0, float(np.linalg.norm(v)))
    if cert["second_leg_membership"] > 1e-8:
        raise LegMismatch(f"V leaves the column classes of rep(A): "
                          f"{cert['second_leg_membership']:.2e}")
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

    # leg spans: both stacks have full rank, and the second legs of V lie
    # within ||E|| of rep(A)
    cert["leg_dim_first"], floor_first = _rank_and_floor(xs.reshape(n, n * n))
    cert["leg_dim_second"], floor_second = _rank_and_floor(gns.rep_basis.reshape(n, n * n))
    gap = floor_first * floor_second - drop
    cert["second_leg_span_distance"] = min(1.0, drop / gap) if gap > 0 else 1.0
    if cert["leg_dim_first"] != n or cert["leg_dim_second"] != n:
        raise LegMismatch(f"leg ranks {cert['leg_dim_first']}, {cert['leg_dim_second']} != {n}")
    if cert["second_leg_span_distance"] > 1e-8:
        raise LegMismatch("second legs do not span rep(A)")

    # the slice map must be a unital *-isomorphism from the dual onto
    # span{X_k}; the first-leg slice of the i-th dual basis element is
    # sum_k beta(e_k, ehat_i) X_k
    rep_dual_basis = np.tensordot(dual.from_dual_mat, xs, axes=(0, 0))
    hom = ba.hom_residuals(rep_dual_basis.reshape(n, n * n).T, dual.hopf.algebra,
                           BlockAlgebra((n,)))
    cert["dual_rep_multiplicative"] = hom["multiplicative"]
    cert["dual_rep_star"] = hom["star_preserving"]
    cert["dual_rep_unital"] = hom["unital"]
    if max(hom["multiplicative"], hom["star_preserving"], hom["unital"]) > 1e-7:
        raise LegMismatch("first-leg slices do not represent the dual algebra")

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
    """The fixed and cofixed vectors of V, read off its Schmidt legs
    X_q = rep_dual(t_q), t_q = to_dual_mat[:, q], and S_q = rep(e_q).

    V - 1 = sum_q (X_q - 1_q) (x) S_q = sum_q X_q (x) (S_q - eps_q) for the
    unit 1 and the counit eps of A, as rep(1) = sum_q 1_q S_q and
    rep_dual(1) = sum_q eps_q X_q are the identity (rep_defects,
    dual_rep_unital).  Both leg stacks have rank n, so xi is fixed exactly
    when every (X_q - 1_q) xi = 0, and eta cofixed when every
    (S_q - eps_q) eta = 0.  Weighted by the Cholesky factor of the other
    leg's trace Gram matrix (leg_grams), each n^2 x n stack has the singular
    values, so the null space, of the n^3 x n stack of V - 1 on xi (x) e_k
    or e_k (x) eta."""
    h, eye, t = mu.gns.hopf, np.eye(mu.dim), mu.dual.to_dual_mat
    ghat, g = mu.leg_grams
    xs = np.tensordot(t, mu.rep_dual_basis, axes=(0, 0))
    ss = mu.gns.rep_basis
    fixed = _leg_null_space(xs - h.algebra.unit_coords()[:, None, None] * eye, g)
    cofixed = _leg_null_space(ss - h.counit[:, None, None] * eye, t.conj().T @ ghat @ t)

    # quoted eigenvector property: rep(A) maps cofixed vectors to multiples,
    # dual slices map fixed vectors to multiples
    worst = max(_off_ray(ss, cofixed), _off_ray(mu.rep_dual_basis, fixed))
    return FixedSpaces(fixed, cofixed, worst)


def _leg_null_space(ops: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Null space of sum_q ops[q] (x) O_q on its first leg, for independent
    O_q with trace Gram matrix gram[q, k] = tr(O_q* O_k): that of the stack
    ops weighted by C, C* C = gram."""
    chol = np.linalg.cholesky(gram).conj().T
    return ba.null_space(np.tensordot(chol, ops, axes=(1, 0)).reshape(-1, ops.shape[-1]))


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


def partner_systems(us: np.ndarray, mu: MultiplicativeUnitary) -> tuple[np.ndarray, np.ndarray]:
    """The commutant-partner systems of a (k, n) stack us of coordinates of
    u in A, in the dual's own coordinates.

    V = sum_k X_k (x) S_k + E with the Schmidt legs S_k = rep(e_k) and
    X_k = rep_dual(t_k), t_k = to_dual_mat[:, k] (to_dual_mat inverts the
    from_dual_mat that forms the slices), and E the certified projection
    drop (build_multiplicative_unitary).  With T = rep(u),
    S_k T = sum_j (e_k u)_j S_j and T S_k = sum_j (u e_k)_j S_j, so for
    W = rep_dual(w)
        [V - E, W (x) T] = sum_j (Y_j W - W Z_j) (x) S_j,
    Y_j = rep_dual(y_j), Z_j = rep_dual(z_j) with y_j = sum_k (e_k u)_j t_k
    and z_j = sum_k (u e_k)_j t_k.  The S_j are independent and rep_dual is
    a faithful *-representation (leg_dim_first = n and the dual-rep
    certificate), so the commutator vanishes exactly when y_j w = w z_j in
    the dual for every j: the n^2 x n system
    system[j] = sum_a y_j[a] Lhat_a - z_j[a] Rhat_a over the dual's left and
    right multiplication tensors, built in O(n^4) with no operator on H and
    no inverse of u.

    Returns yz, the (k, n, 2n) stack [y_j | z_j], and the (k, n^2, n) stack
    of systems, row (j, p) and column c: system[j] w = c_j = y_j w - w z_j.
    """
    a, ahat = mu.gns.hopf.algebra, mu.dual.hopf.algebra
    n = a.dim
    # (e_k u)_j = R_u[j, k] and (u e_k)_j = L_u[j, k], times to_dual_mat^T
    yz = np.concatenate([np.tensordot(us, mult(a), axes=(-1, 0)) @ mu.dual.to_dual_mat.T
                         for mult in (ba.right_mult_tensor, ba.left_mult_tensor)], axis=-1)
    hat = np.concatenate([ba.left_mult_tensor(ahat), -ba.right_mult_tensor(ahat)])
    return yz, (yz @ hat.reshape(2 * n, n * n)).reshape(-1, n * n, n)


def partner_null_spaces(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of a stack of partner systems: (rank, vh) with the null
    space of system m spanned by the rows vh[m, rank[m]:] conjugated
    (blockalg.null_spaces)."""
    return ba.null_spaces(systems)


def solve_commutant_partner(u: AlgebraElement, mu: MultiplicativeUnitary):
    """All W in the first-leg algebra with V(W (x) rep(u)) = (W (x) rep(u))V,
    as an orthonormal basis of dual elements w with W = rep_dual(w): the
    partner kernel (partner_systems, partner_null_spaces) on a stack of one
    u, which need not be unitary.  The system is solved over the whole
    dual, so central scalar mismatches cannot hide."""
    rank, vh = partner_null_spaces(partner_systems(u.coords()[None], mu)[1])
    return [mu.dual.hopf.algebra.from_coords(row.conj()) for row in vh[0, rank[0]:]]


def _gram_norms(x: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """sqrt(x* G x) for each coordinate vector of a stack x (..., n)."""
    return np.sqrt(np.maximum((x.conj() * ba.matvec(gram, x)).sum(axis=-1).real, 0.0))


def _unitarity_bounds(alg: BlockAlgebra, w: np.ndarray, gram: np.ndarray,
                      hom: dict) -> np.ndarray:
    """An upper bound on ||pi(w)* pi(w) - 1||_F for each w of a coordinate
    stack, for a representation pi with trace Gram matrix gram and the
    hom_residuals defects hom of its basis (multiplicative delta_m,
    star_preserving delta_s, unital delta_u).  pi(w)* pi(w) - 1 is
        pi(w* w - 1) + (pi(w)* - pi(w*)) pi(w)
                     + (pi(w*) pi(w) - pi(w* w)) + (pi(1) - 1),
    and the four terms are at most sqrt(x* G x) for x = w* w - 1,
    delta_s |w|_1 ||pi(w)||_F, delta_m |w|_1^2 and delta_u."""
    x = ba.products(alg, ba.adjoints(alg, w), w) - alg.unit_coords()
    l1 = np.abs(w).sum(axis=-1)
    return (_gram_norms(x, gram) + hom["star_preserving"] * l1 * _gram_norms(w, gram)
            + hom["multiplicative"] * l1 ** 2 + hom["unital"])


def partner_residuals(yz: np.ndarray, systems: np.ndarray, uhats: np.ndarray,
                      us: np.ndarray, mu: MultiplicativeUnitary,
                      tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A bound on the commutation residual ||[V, P]||_F / max(1, ||V||_F)
    of each pair P = rep_dual(uhat) (x) rep(u), from the partner systems
    (partner_systems) of the u, after checking that both legs are unitary
    (NotUnitary, at commutation_test's threshold).  No operator on H is
    formed: O(n^3) per pair.

    With c_j = system[j] uhat, the docstring of partner_systems gives
    [V', P] = sum_j rep_dual(c_j) (x) S_j on V' = sum_k X_k (x) S_k, when
    both representations are exact.  Its squared norm is the Gram form
    sum_jk (c_j* Ghat c_k) G[j, k] (MultiplicativeUnitary.leg_grams).  The
    reported value adds what that leaves out:
    * rep_dual's multiplicative defect dh (dual_rep_multiplicative):
      Y_j W - rep_dual(y_j uhat) and W Z_j - rep_dual(uhat z_j) are sums of
      the basis defects weighted by y_j[a] uhat[b] and uhat[a] z_j[b], so
      together they add at most dh |uhat|_1 sum_j |[y_j | z_j]|_1 ||S_j||_F;
    * rep's multiplicative defect ds (GnsSpace.rep_defects), from
      S_k T - sum_j (e_k u)_j S_j and its mirror: at most
      2 ds |u|_1 ||W||_2 sum_k ||X_k||_F, ||X_k||_F^2 = t_k* Ghat t_k;
    * the projection drop E = V - V': ||[E, P]||_F <= 2 ||E||_F ||P||_2,
      ||E||_F / max(1, ||V||_F) = second_leg_membership, with
      ||P||_2 = ||W||_2 ||T||_2 <= sqrt((1 + eh)(1 + e)) for the unitarity
      bounds eh and e of both legs (_unitarity_bounds; ||W||_2^2 <= 1 + eh).
    So, up to round-off (including that of to_dual_mat inverting
    from_dual_mat), the result bounds V's own residual, the value
    commutation_test reports for the pair.
    """
    ahat, a = mu.dual.hopf.algebra, mu.gns.hopf.algebra
    n = a.dim
    cert = mu.certificates
    ghat, g = mu.leg_grams
    hat_hom = {"multiplicative": cert["dual_rep_multiplicative"],
               "star_preserving": cert["dual_rep_star"], "unital": cert["dual_rep_unital"]}
    e_hat = _unitarity_bounds(ahat, uhats, ghat, hat_hom)
    e = _unitarity_bounds(a, us, g, mu.gns.rep_defects)
    limit = tol.eq_tol * 100 * n
    if np.any(e_hat > limit):
        raise NotUnitary("uhat is not unitary")
    if np.any(e > limit):
        raise NotUnitary("u is not unitary")
    # c_j at [m, j, c], then sum_jk (c_j* Ghat c_k) G[j, k]
    c = ba.matvec(systems, uhats).reshape(-1, n, n)
    form = ((c.conj() @ ghat) @ c.swapaxes(-1, -2) * g).sum(axis=(-2, -1)).real
    w_norm = np.sqrt(1.0 + e_hat)
    hom = (cert["dual_rep_multiplicative"] * np.abs(uhats).sum(axis=-1)
           * (np.abs(yz).sum(axis=-1) @ np.sqrt(np.diagonal(g).real))
           + 2 * mu.gns.rep_defects["multiplicative"] * np.abs(us).sum(axis=-1)
           * w_norm * _gram_norms(mu.dual.to_dual_mat.T, ghat).sum())
    return ((np.sqrt(np.maximum(form, 0.0)) + hom) / max(1.0, mu.norm)
            + 2 * cert["second_leg_membership"] * w_norm * np.sqrt(1.0 + e))


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
