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
3. A block of size 1 is its central idempotent p, refined by one Newton
   step p <- 3p^2 - 2p^3; its extraction row is tr(p .)/tr(p).  In a larger
   block corner, diagonalise a generic self-adjoint element to get minimal
   projections P, read back as q = w^-1 P (w 1), and join them with partial
   isometries.  Only the random draws go block by block: corner ranks,
   matrix units and extraction rows are stacked, one product per element.
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

    left_mult[a] is the matrix of left multiplication by basis vector e_a,
    kept C-ordered; star satisfies coords(x*) = star @ conj(coords(x)); unit
    is coords(1).
    """

    left_mult: np.ndarray
    star: np.ndarray
    unit: np.ndarray

    def __post_init__(self):
        self.left_mult = np.ascontiguousarray(self.left_mult)
        self._left_cols = self.left_mult.reshape(self.dim, -1).T    # column a: vec(L_{e_a})

    @property
    def dim(self) -> int:
        return self.left_mult.shape[0]

    def lmat(self, v: np.ndarray) -> np.ndarray:
        """Left multiplication by v, or a stack of them for v (..., n), with
        the bits of one element alone (blockalg.matvec)."""
        n = self.dim
        return ba.matvec(self._left_cols, v).reshape(v.shape[:-1] + (n, n))

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.lmat(u) @ v

    def star_of(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v*, or of each element of a stack v (..., n)."""
        return ba.matvec(self.star, np.conj(v))

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
    # generic self-adjoint central element sum_i c1_i (z_i + z_i*)/2 + c2_i i (z_i - z_i*)/2,
    # its 2k terms added in turn as by a loop over i: the idempotents keep
    # their bits, and so the order of blocks of equal size (_wedderburn_once)
    z, zstar = zon.T, alg.star_of(zon.T)
    c1, c2 = rng.standard_normal(k)[:, None], rng.standard_normal(k)[:, None]
    zs = np.stack([c1 * 0.5 * (z + zstar), c2 * 0.5j * (z - zstar)], 1).reshape(2 * k, -1).sum(0)
    # multiplication by zs restricted to the centre, in the ON basis
    img = ba.matvec(alg.lmat(zs), zon.T).T
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


def _corner_blocks(alg, idems):
    """(d, p, corner) for each central idempotent p: the rank d^2 of L_p and
    an orthonormal basis of pA.  L_p is idempotent, so its rank is
    tr(p) = Tr(L_p); where that is 1, pA is spanned by p itself, and the
    larger blocks take their rank and basis (the leading left singular
    vectors) from one stacked SVD."""
    tr = alg.trace_row()
    blocks = [(1, p, (p / np.linalg.norm(p))[:, None]) for p in idems]
    large = [j for j, p in enumerate(idems) if np.real(tr @ p) > 1.5]
    if large:
        ranks, u_corners, _ = ba.numerical_rank(alg.lmat(np.array([idems[j] for j in large])))
        dims = np.rint(np.sqrt(ranks)).astype(int)
        if np.any(dims * dims != ranks):
            raise WedderburnRetry(f"corner rank {ranks[dims * dims != ranks][0]} is not a square")
        for j, d, u, r in zip(large, dims, u_corners, ranks):
            blocks[j] = (int(d), idems[j], u[:, :r])
    return blocks


def _character_rows(alg, ps, tr, tr_l):
    """Extraction rows tr(p .)/tr(p) of the blocks of size 1, whose central
    idempotents ps (k, n) are refined together by one Newton step
    p <- 3p^2 - 2p^3 and their self-adjoint part."""
    lp = alg.lmat(ps)
    p2 = ba.matvec(lp, ps)
    ps = 3 * p2 - 2 * ba.matvec(lp, p2)
    ps = 0.5 * (ps + alg.star_of(ps))
    return (ps @ tr_l) / (ps @ tr)[:, None]


def _preimages(rep, w, winv, unit, ops):
    """q = w^-1 P (w 1) with rep(q) = P (L_q 1 = q) for a stack of operators P
    (k, n, n); WedderburnRetry if some rep(q) misses P by 1e-7 max(1, |P|)."""
    qs = ba.matvec(winv, ba.matvec(ops, w @ unit))
    ops = ops.reshape(len(ops), -1)
    if np.any(ba.norms(qs @ rep.reshape(len(w), -1) - ops) > 1e-7 * np.maximum(1.0, ba.norms(ops))):
        raise WedderburnRetry("operator not in the algebra image")
    return qs


def _unit_rows(alg, us, tr_l):
    """Rows r d + s: tr(e_sr .) for the matrix units e_sr = u_s* u_r of the
    partial isometries us (d, n), from the rows tr_l[a] = tr(e_a .)."""
    units = ba.matvec(alg.lmat(alg.star_of(us)), us[:, None])    # [r, s]: e_sr
    return units.reshape(-1, us.shape[1]) @ tr_l


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

    # GNS inner product <a,b> = tr(a* b), row i tr @ lmat(e_i*); Cholesky gives the ON frame
    gram = tr @ alg.lmat(alg.star.T)
    gram = 0.5 * (gram + gram.conj().T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise NotCStarAlgebra("trace form is not positive definite") from err
    w = chol.conj().T
    winv = np.linalg.inv(w)

    # centre = null space of all commutators with basis elements: row block a
    # is right minus left multiplication by e_a, the right one read off
    # left_mult as [k, j] -> left_mult[j, k, a]
    centre = ba.null_space((alg.left_mult.transpose(2, 1, 0) - alg.left_mult).reshape(n * n, n))
    if centre.shape[1] == 0:
        raise NotCStarAlgebra("trivial centre: not unital?")

    idems = _minimal_central_idempotents(alg, centre, w, rng)

    blocks = _corner_blocks(alg, idems)
    # tr(p) = d^2 for a block of size d, so the second key orders blocks of
    # equal size by the round-off of the idempotents
    blocks.sort(key=lambda t: (t[0], float(np.real(tr @ t[1]))))

    target = BlockAlgebra(tuple(d for d, _, _ in blocks))
    tr_l = tr @ alg.left_mult     # row a: the functional tr(e_a .)
    ones = sum(d == 1 for d, _, _ in blocks)
    phi = np.zeros((n, n), complex)
    if ones:
        phi[:ones] = _character_rows(alg, np.array([p for _, p, _ in blocks[:ones]]), tr, tr_l)
    rng.standard_normal(2 * ones)    # their former corner draws: larger blocks draw as before
    if ones < len(blocks):      # only the larger blocks read rep (N^4 work)
        rep = w @ alg.left_mult @ winv
    row = ones
    for d, p, corner in blocks[ones:]:
        # minimal projections q_1..q_d from a generic self-adjoint corner element
        for attempt in range(24):
            y = corner @ (rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d))
            y = alg.mult(alg.mult(p, y), p)
            y = 0.5 * (y + alg.star_of(y))
            lam, vecs = np.linalg.eigh((y @ rep.reshape(n, n * n)).reshape(n, n))
            vals = np.sort(lam[np.abs(lam) > 1e-6 * max(1.0, np.max(np.abs(lam)))])
            # clusters of the nonzero eigenvalues, split at gaps above 1e-5
            gaps = np.diff(vals)
            uniq = np.split(vals, np.flatnonzero(gaps > 1e-5) + 1)
            if len(uniq) == d and all(len(c) == d for c in uniq) and gaps[gaps > 1e-5].min() > 1e-4:
                break
        else:
            raise WedderburnRetry("no generic corner element found")
        sels = [(np.abs(lam[:, None] - c) <= 1e-9 * np.maximum(1.0, np.abs(c)) + 1e-9).any(axis=1)
                for c in uniq]
        qs = _preimages(rep, w, winv, alg.unit,
                        np.array([vecs[:, sel] @ vecs[:, sel].conj().T for sel in sels]))
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
        # coefficient-extraction rows of the matrix units
        phi[row:row + d * d] = _unit_rows(alg, np.array(us), tr_l) / t_block
        row += d * d

    iso_inv = np.linalg.inv(phi)

    # certify: unit, star, multiplicativity on all basis pairs
    res = max(ba.hom_residuals(phi, alg, target).values())
    if res > 1e-7:
        raise WedderburnRetry(f"iso residual {res:.2e}")
    return WedderburnResult(target, phi, iso_inv, res)
