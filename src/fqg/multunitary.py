"""GNS space of the Haar state and the multiplicative unitary.

The unitary is built on the vector model V(La (x) Lb) = (L (x) L)(delta(a)(1 (x) b))
and certified by unitarity, the pentagon equation and the leg-algebra spans.
The convention is fixed here, in one place; if a certificate fails the
construction aborts instead of silently flipping to another variant.

In the matrix-unit GNS basis rep(A) is block-diagonal over the column
classes (the coordinates of one column of one block), so the second leg of
V maps each class into itself.  The stored V is projected on that pattern,
with the discarded round-off certified, and the pentagon certificate sums
its residual class by class: O(N^6 sum_b d_b^3) instead of O(N^8).
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
        left = np.tensordot(x.coords(), ba.left_mult_tensor(self.hopf.algebra), axes=(0, 0))
        return self.onb @ left @ self.onb_inv

    @cached_property
    def rep_basis(self) -> np.ndarray:
        """rep of every basis element, shape (N, N, N)."""
        return self.onb @ ba.left_mult_tensor(self.hopf.algebra) @ self.onb_inv

    def rep_coords(self, v: np.ndarray) -> np.ndarray:
        return np.tensordot(v, self.rep_basis, axes=(0, 0))

    @cached_property
    def rep_pinv(self) -> np.ndarray:
        flat = self.rep_basis.reshape(self.dim, -1).T
        return np.linalg.pinv(flat)

    def rep_inverse(self, op: np.ndarray, tol: float = 1e-8):
        """Coordinates of the element represented by op, or None."""
        c = self.rep_pinv @ op.reshape(-1)
        if np.linalg.norm(self.rep_coords(c) - op) > tol * max(1.0, np.linalg.norm(op)):
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
    sbasis: np.ndarray                   # rep of the base algebra basis
    shat_basis: np.ndarray               # first-leg coefficients X_k
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
        """Represent an element of the dual inside the second-leg slice algebra."""
        row = self.dual.from_dual_mat @ xhat.coords()
        return np.tensordot(row, self.shat_basis, axes=(0, 0))

    def rep_dual_inverse(self, op: np.ndarray, tol: float = 1e-8):
        flat = self.shat_basis.reshape(self.dim, -1).T
        row, *_ = np.linalg.lstsq(flat, op.reshape(-1), rcond=None)
        if np.linalg.norm(flat @ row - op.reshape(-1)) > tol * max(1.0, np.linalg.norm(op)):
            return None
        return self.dual.hopf.algebra.from_coords(self.dual.to_dual_mat @ row)


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
    """
    h = gns.hopf
    if dual.base is not h:
        raise ba.ShapeMismatch("GNS space and dual must come from the same algebra")
    n = gns.dim

    # V on element coordinates: column (i, j) = kron coords of
    # delta(e_i)(1 (x) e_j); since (x (x) y)(1 (x) e_j) = x (x) (y e_j), this
    # is delta(e_i) with its second leg multiplied on the right by e_j
    v_el = np.einsum('pqi,jrq->prij', h.coproduct_kron,
                     ba.right_mult_tensor(h.algebra)).reshape(n * n, n * n)
    w2 = np.kron(gns.onb, gns.onb)
    v_full = w2 @ v_el @ np.linalg.inv(w2)

    # the second leg lies in rep(A), which preserves every column class;
    # what V has outside that pattern is round-off, and is dropped so that
    # every certificate below, the pentagon's split included, reads Pi(V)
    v = project_on_column_classes(v_full, h.algebra)
    cert = {}
    cert["column_class_defect"] = (float(np.linalg.norm(v_full - v))
                                   / max(1.0, float(np.linalg.norm(v_full))))
    if cert["column_class_defect"] > 1e-8:
        raise LegMismatch(f"V leaves the column classes of rep(A): "
                          f"{cert['column_class_defect']:.2e}")
    cert["unitarity"] = float(np.linalg.norm(v.conj().T @ v - np.eye(n * n))) / n
    if cert["unitarity"] > tol.eq_tol * 100:
        raise NotUnitary(f"V fails unitarity: {cert['unitarity']:.2e}")

    cert["pentagon"] = pentagon_residual(v, n)
    if cert["pentagon"] > 1e-8:
        raise PentagonFailed(f"pentagon residual {cert['pentagon']:.2e}")

    # decompose V = sum_k X_k (x) rep(e_k): second legs span the GNS image of A
    sbasis = gns.rep_basis
    v_schmidt = v.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    flat = sbasis.reshape(n, n * n)
    xmat, res, *_ = np.linalg.lstsq(flat.T, v_schmidt.T, rcond=None)
    fit = float(np.linalg.norm(flat.T @ xmat - v_schmidt.T))
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
    # span{X_k}; row i of flat_hat is rep_dual of the i-th dual basis element,
    # one vector-matrix product per row so that each rounds as rep_dual does
    rows = np.ascontiguousarray(dual.from_dual_mat.T)[:, None]
    flat_hat = (rows @ shat.reshape(n, n * n))[:, 0]
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
    return MultiplicativeUnitary(gns, dual, v, sbasis, shat, cert)


def column_classes(a: BlockAlgebra) -> np.ndarray:
    """Column class of every coordinate of a: the coordinates of column q
    of block b share one label, the coordinate of their top entry.
    rep(A) maps each class into itself."""
    label = np.empty(a.dim, int)
    for idx in a.layout.by_size.values():
        label[idx] = idx[:, :1, :]
    return label


def project_on_column_classes(v: np.ndarray, a: BlockAlgebra) -> np.ndarray:
    """Pi(V): V on H (x) H with every entry whose leg-2 row and column lie
    in different column classes of a set to zero."""
    n = a.dim
    label = column_classes(a)
    keep = (label[:, None] == label[None, :])[None, :, None, :]
    return np.where(keep, v.reshape(n, n, n, n), 0).reshape(n * n, n * n)


def leg2_classes(v: np.ndarray, n: int) -> list[np.ndarray]:
    """The classes of leg-2 indices that v couples, stacked by size.

    Leg-2 index r is coupled to j when some V[(a, r), (i, j)] is nonzero;
    the classes are the connected components of that relation, read from
    the exact zeros of v.  Returns one (count, size) index array per class
    size, in order of first appearance."""
    coupled = (v.reshape(n, n, n, n) != 0).any(axis=(0, 2))
    reach = coupled | coupled.T | np.eye(n, dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    by_size: dict[int, list[np.ndarray]] = {}
    for root in dict.fromkeys(reach.argmax(axis=1)):
        members = np.flatnonzero(reach[root])
        by_size.setdefault(len(members), []).append(members)
    return [np.stack(g) for g in by_size.values()]


def pentagon_residual(v: np.ndarray, n: int) -> float:
    """Frobenius norm of V12 V13 V23 - V23 V12 on H (x) H (x) H, divided by
    max(1, ||V12||_F) = max(1, sqrt(n) ||V||_F).

    Exact, but never forms an n^3 x n^3 matrix.  V13 and V23 map leg 3
    within the classes of leg2_classes(v), and V12 does not touch it, so
    the pentagon operator is block-diagonal over those classes and its
    squared norm is the sum over them.  Both sides are applied to
    e_i (x) I (x) I_K, one first-leg index i at a time with the classes K of
    one size m stacked, and the squared norms are summed: O(n^6 sum_K m^2)
    time and O(n^3 sum_K m^2) memory.  For an unpartitioned v this is the
    single class K = {0..n-1} (O(n^8) time, O(n^5) memory); for a
    multiplicative unitary of A, Pi(V) has one class per column of each
    block b of size d_b, so sum_K m^2 = sum_b d_b^3.
    """
    v4 = v.reshape(n, n, n, n)                 # axes (row1, row2, col1, col2)
    vt = v4.transpose(1, 3, 0, 2)              # axes (row2, col2, row1, col1)
    total = 0.0
    for cls in leg2_classes(v, n):
        g, m = cls.shape
        # sub[g, c, l, b, k] = <e_b e_(K c)|V|e_k e_(K l)>
        sub = vt[cls[:, :, None], cls[:, None, :]]
        # V23 on leg 3 in K: v23[g, k, (b, j, l)] = <e_b e_(K k)|V|e_j e_(K l)>
        v23 = sub.transpose(0, 1, 3, 4, 2).reshape(g, m, n * n * m)
        for i in range(n):
            # V13 on e_i, leg 3 in K: w13[g, (a, c), k] = <e_a e_(K c)|V|e_i e_(K k)>
            w13 = sub[..., i].transpose(0, 3, 1, 2).reshape(g, n * m, m)
            # V13 V23 at [g, a, c, b, j, l], then V12 on (a, b)
            left = (w13 @ v23).reshape(g, n, m, n, n, m)
            left = v @ left.transpose(1, 3, 0, 2, 4, 5).reshape(n * n, -1)
            # V23 V12: sum_k <e_a e_k|V|e_i e_j> <e_b e_(K c)|V|e_k e_(K l)>
            # at [a, j, g, c, l, b]
            right = np.tensordot(v4[:, :, i], sub, axes=(1, 4))
            left -= right.transpose(0, 5, 2, 3, 1, 4).reshape(n * n, -1)
            total += float(np.vdot(left, left).real)
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
    # (V - 1) restricted to xi (x) e_k, w[:, k, :] to e_k (x) eta
    w = (v - np.eye(n * n)).reshape(n * n, n, n)
    rows_fixed = w.transpose(2, 0, 1).reshape(n ** 3, n)
    rows_cofixed = w.transpose(1, 0, 2).reshape(n ** 3, n)
    fixed = ba.null_space(rows_fixed)
    cofixed = ba.null_space(rows_cofixed)

    # quoted eigenvector property: rep(A) maps cofixed vectors to multiples,
    # dual slices map fixed vectors to multiples
    worst = 0.0
    for j in range(cofixed.shape[1]):
        vec = cofixed[:, j]
        for k in range(n):
            img = mu.sbasis[k] @ vec
            worst = max(worst, _off_ray(img, vec))
    for j in range(fixed.shape[1]):
        vec = fixed[:, j]
        for k in range(n):
            img = mu.shat_basis[k] @ vec
            worst = max(worst, _off_ray(img, vec))
    return FixedSpaces(fixed, cofixed, worst)


def _off_ray(img: np.ndarray, vec: np.ndarray) -> float:
    """Norm of the component of img orthogonal to vec."""
    vn = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(img - (vn.conj() @ img) * vn))


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
    W = sum_c w_c Xhat_c, Xhat_c the first-leg slice of the c-th dual basis
    element, that is an n^3 x n system in w.  One thin QR reduces it to its
    n x n triangular factor, which has the same singular values and null
    space, and no inverse of u is needed.
    """
    n = mu.dim
    a = mu.gns.hopf.algebra
    # Xhat_c at [c, p, q]; Y_j and Z_j at [j, p, q], from the coefficients
    # (e_k u)_j = R_u[j, k] and (u e_k)_j = L_u[j, k] of right and left
    # multiplication by u
    xhat = np.tensordot(mu.dual.from_dual_mat, mu.shat_basis, axes=(0, 0))
    ys = np.tensordot(np.tensordot(u.coords(), ba.right_mult_tensor(a), axes=(0, 0)),
                      mu.shat_basis, axes=(1, 0))
    zs = np.tensordot(np.tensordot(u.coords(), ba.left_mult_tensor(a), axes=(0, 0)),
                      mu.shat_basis, axes=(1, 0))
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

def split_simple_tensor(op: np.ndarray, n: int, gap_ratio: float = 1e6):
    """Split a rank-one operator T = X (x) Y on C^n (x) C^n.

    Raises NotSimpleTensor unless the operator-Schmidt spectrum has a
    dominant gap (sigma_1/sigma_2 > gap_ratio).
    """
    schmidt = op.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    u_s, sv, vh_s = np.linalg.svd(schmidt)
    if len(sv) > 1 and sv[0] < gap_ratio * sv[1]:
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
    u_coords = mu.gns.rep_inverse(yop)
    if u_coords is None:
        raise NotSimpleTensor("second factor is not in the base leg algebra")
    u = mu.gns.hopf.algebra.from_coords(u_coords)
    uhat = mu.rep_dual_inverse(xop)
    if uhat is None:
        raise NotSimpleTensor("first factor is not in the dual leg algebra")
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
