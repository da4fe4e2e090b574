"""Numerical Artin-Wedderburn decomposition of an abstract *-algebra.

Input is a finite-dimensional associative *-algebra over C given by structure
constants.  If it is a C*-algebra (semisimple, positive-definite trace form),
the routine produces an explicit *-isomorphism onto a direct sum of matrix
blocks by building a system of matrix units:

1. GNS-orthonormalise the left regular representation with respect to the
   regular trace tr(x) = Tr(L_x), which is automatically tracial, positive
   and faithful on a C*-algebra.
2. Split the centre into minimal idempotents (eigenvectors of multiplication
   by a generic central element).
3. Inside each block corner, diagonalise a generic self-adjoint element to
   get minimal projections, then join them with partial isometries.
4. Certify the resulting isomorphism through blockalg.hom_residuals: unital,
   *-preserving and multiplicative on all basis pairs, up to 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blockalg as ba
from .blockalg import BlockAlgebra
from .errors import NotCStarAlgebra, WedderburnRetry

_DEFAULT_SEED = 0x517C


@dataclass
class AbstractStarAlgebra:
    """Structure constants of a *-algebra on C^n.

    left_mult[a] is the matrix of left multiplication by basis vector e_a;
    star satisfies coords(x*) = star @ conj(coords(x)); unit is coords(1).
    """

    left_mult: np.ndarray
    star: np.ndarray
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return self.left_mult.shape[0]

    def lmat(self, v: np.ndarray) -> np.ndarray:
        return np.tensordot(v, self.left_mult, axes=(0, 0))

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.lmat(u) @ v

    def star_of(self, v: np.ndarray) -> np.ndarray:
        return self.star @ np.conj(v)

    def trace_row(self) -> np.ndarray:
        return np.trace(self.left_mult, axis1=1, axis2=2)


@dataclass
class WedderburnResult:
    algebra: BlockAlgebra
    iso: np.ndarray          # abstract coords -> block coords
    iso_inv: np.ndarray
    residual: float          # worst mult/star/unit defect of the iso


def _minimal_central_idempotents(alg, centre, gram_w, rng):
    """Joint eigenvectors of multiplication on the centre, scaled to idempotents."""
    k = centre.shape[1]
    # orthonormalise the centre w.r.t. the GNS inner product
    q, _ = np.linalg.qr(gram_w @ centre)
    zon = np.linalg.lstsq(gram_w, q, rcond=None)[0]
    # generic self-adjoint central element
    c1 = rng.standard_normal(k)
    c2 = rng.standard_normal(k)
    zs = np.zeros(alg.dim, complex)
    for i in range(k):
        zi = zon[:, i]
        zs = zs + c1[i] * 0.5 * (zi + alg.star_of(zi)) \
                + c2[i] * 0.5j * (zi - alg.star_of(zi))
    # multiplication by zs restricted to the centre, in the ON basis
    img = np.column_stack([alg.mult(zs, zon[:, j]) for j in range(k)])
    b = (gram_w @ zon).conj().T @ (gram_w @ img)
    b = 0.5 * (b + b.conj().T)
    vals, vecs = np.linalg.eigh(b)
    if k > 1 and np.min(np.diff(vals)) < 1e-6 * max(1.0, np.max(np.abs(vals))):
        raise WedderburnRetry("central spectrum not separated")
    idems = []
    for j in range(k):
        w = zon @ vecs[:, j]
        w2 = alg.mult(w, w)
        scale = np.vdot(w, w2) / np.vdot(w, w)
        if abs(scale) < 1e-8:
            raise WedderburnRetry("degenerate central eigenvector")
        p = w / scale
        nrm = max(1.0, float(np.linalg.norm(p)))
        if np.linalg.norm(alg.mult(p, p) - p) > 1e-8 * nrm:
            raise WedderburnRetry("central eigenvector does not scale to an idempotent")
        if np.linalg.norm(alg.star_of(p) - p) > 1e-8 * nrm:
            raise WedderburnRetry("central idempotent is not self-adjoint")
        idems.append(p)
    return idems


def wedderburn(alg: AbstractStarAlgebra, *, seed: int = _DEFAULT_SEED,
               max_tries: int = 8) -> WedderburnResult:
    rng = np.random.default_rng(seed)
    last_err = None
    for _ in range(max_tries):
        try:
            return _wedderburn_once(alg, rng)
        except (WedderburnRetry, np.linalg.LinAlgError) as err:
            last_err = err   # retry with fresh randomness
    raise NotCStarAlgebra(f"wedderburn failed: {last_err}")


def _wedderburn_once(alg: AbstractStarAlgebra, rng) -> WedderburnResult:
    n = alg.dim
    tr = alg.trace_row()

    # GNS inner product <a,b> = tr(a* b); Cholesky gives the ON frame.  Row i
    # is tr @ lmat(e_i*), with column i of star as e_i*: one vector-matrix
    # product per basis element, as lmat computes it
    lmats = ba.matvec(alg.left_mult.reshape(n, n * n).T, alg.star.T).reshape(n, n, n)
    gram = tr @ lmats
    gram = 0.5 * (gram + gram.conj().T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise NotCStarAlgebra("trace form is not positive definite") from err
    w = chol.conj().T
    winv = np.linalg.inv(w)
    rep = w @ alg.left_mult @ winv
    rep_flat = rep.reshape(n, n * n).T      # columns vec(rep(e_a))
    rep_pinv = np.linalg.pinv(rep_flat)

    def to_coords(op: np.ndarray) -> np.ndarray:
        c = rep_pinv @ op.reshape(-1)
        if np.linalg.norm(rep_flat @ c - op.reshape(-1)) > 1e-7 * max(1.0, np.linalg.norm(op)):
            raise WedderburnRetry("operator not in the algebra image")
        return c

    def rep_of(v: np.ndarray) -> np.ndarray:
        return np.tensordot(v, rep, axes=(0, 0))

    # centre = null space of all commutators with basis elements: row block a
    # is right minus left multiplication by e_a, the right one read off
    # left_mult as [k, j] -> left_mult[j, k, a]
    centre = ba.null_space((alg.left_mult.transpose(2, 1, 0) - alg.left_mult).reshape(n * n, n))
    if centre.shape[1] == 0:
        raise NotCStarAlgebra("trivial centre: not unital?")

    idems = _minimal_central_idempotents(alg, centre, w, rng)

    # block dimensions from corner ranks; the corner is spanned by the
    # leading left singular vectors of left multiplication by p
    blocks = []
    for p in idems:
        r, u_corner, _ = ba.numerical_rank(alg.lmat(p))
        d = int(round(np.sqrt(r)))
        if d * d != r:
            raise WedderburnRetry(f"corner rank {r} is not a perfect square")
        blocks.append((d, p, u_corner[:, :r]))
    blocks.sort(key=lambda t: (t[0], float(np.real(tr @ t[1]))))

    target = BlockAlgebra(tuple(d for d, _, _ in blocks))
    phi = np.zeros((n, n), complex)
    row = 0
    for d, p, corner in blocks:
        # minimal projections q_1..q_d from a generic self-adjoint corner element
        for attempt in range(24):
            y = corner @ (rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d))
            y = alg.mult(alg.mult(p, y), p)
            y = 0.5 * (y + alg.star_of(y))
            lam, vecs = np.linalg.eigh(rep_of(y))
            nz = np.abs(lam) > 1e-6 * max(1.0, np.max(np.abs(lam)))
            vals = lam[nz]
            uniq = []
            for v in np.sort(vals):
                if not uniq or v - uniq[-1][-1] > 1e-5:
                    uniq.append([v])
                else:
                    uniq[-1].append(v)
            if len(uniq) == d and all(len(c) == d for c in uniq) and (
                    d == 1 or min(c[0] - pr[-1] for pr, c in zip(uniq, uniq[1:])) > 1e-4):
                break
        else:
            raise WedderburnRetry("no generic corner element found")
        qs = []
        for cluster in uniq:
            sel = np.zeros(n, dtype=bool)
            for v in cluster:
                sel |= np.isclose(lam, v, rtol=0, atol=1e-9 * max(1.0, abs(v)) + 1e-9)
            pr = vecs[:, sel] @ vecs[:, sel].conj().T
            qs.append(to_coords(pr))
        # partial isometries u_r : q_r -> q_1
        us = [qs[0]]
        t_block = np.real(tr @ qs[0])
        for r in range(1, d):
            for attempt in range(24):
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                wv = alg.mult(alg.mult(qs[0], a), qs[r])
                ww = alg.mult(alg.star_of(wv), wv)
                mu = np.real(tr @ ww) / t_block
                if mu > 1e-8:
                    break
            else:
                raise WedderburnRetry("failed to link minimal projections")
            if np.linalg.norm(ww - mu * qs[r]) > 1e-6 * max(1.0, mu):
                raise WedderburnRetry("partial isometry defect")
            us.append(wv / np.sqrt(mu))
        # matrix units and coefficient-extraction rows
        for r in range(d):
            for s in range(d):
                e_sr = alg.mult(alg.star_of(us[s]), us[r])   # e_{sr}
                phi[row + r * d + s, :] = (tr @ alg.lmat(e_sr)) / t_block
        row += d * d

    iso_inv = np.linalg.inv(phi)

    # certify: unit, star, multiplicativity on all basis pairs
    res = max(ba.hom_residuals(phi, alg, target).values())
    if res > 1e-7:
        raise WedderburnRetry(f"iso residual {res:.2e}")
    return WedderburnResult(target, phi, iso_inv, res)
