"""Hopf C*-algebra structure on a block algebra.

Structure maps are stored as matrices over matrix-unit coordinates:
coproduct (N^2 x N), antipode (N x N), counit and Haar state as row vectors.
Only the Kac case is supported: tracial Haar state and involutive antipode;
anything else is rejected by the axiom checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import blockalg as ba
from .blockalg import (AlgebraElement, BlockAlgebra, DEFAULT_TOL, ToleranceConfig,
                       tensor_algebra, tensor_perm, inverse_perm, flip_perm)
from .errors import NoCharacterBlock, NonUniqueHaar, NotInvolutive
from .groups import Group
from .wedderburn import AbstractStarAlgebra, wedderburn


@dataclass(eq=False)
class HopfAlgebra:
    algebra: BlockAlgebra
    coproduct: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    haar: np.ndarray
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.algebra.dim
        self.coproduct = np.asarray(self.coproduct, complex).reshape(n * n, n)
        self.counit = np.asarray(self.counit, complex).reshape(n)
        self.antipode = np.asarray(self.antipode, complex).reshape(n, n)
        self.haar = np.asarray(self.haar, complex).reshape(n)

    # -- plumbing -------------------------------------------------------------
    @cached_property
    def square(self) -> BlockAlgebra:
        return tensor_algebra(self.algebra, self.algebra)

    @cached_property
    def perm2(self) -> np.ndarray:
        return tensor_perm(self.algebra, self.algebra)

    @cached_property
    def flip(self) -> np.ndarray:
        return flip_perm(self.algebra)

    @property
    def coproduct_kron(self) -> np.ndarray:
        """kron_coefficients of the coproduct, recomputed on every read."""
        return kron_coefficients(self.algebra, self.coproduct)

    @cached_property
    def gram(self) -> np.ndarray:
        """Hermitian Gram matrix tau(e_i* e_j)."""
        g = self.gram_bilinear[self.algebra.layout.adjoint]
        return 0.5 * (g + g.conj().T)

    @cached_property
    def gram_bilinear(self) -> np.ndarray:
        """Bilinear Gram matrix tau(e_i e_j)."""
        n = self.algebra.dim
        i, j, k = ba.unit_products(self.algebra)
        g = np.zeros((n, n), complex)
        g[i, j] = self.haar[k] + 0.0   # an exact zero of tau reads +0.0, as from a dot product
        return g

    @cached_property
    def cocentre(self) -> list[AlgebraElement]:
        """cocentre_basis of this algebra, computed once."""
        return cocentre_basis(self)

    @cached_property
    def star_mat(self) -> np.ndarray:
        """Matrix S with coords(x*) = S @ conj(coords(x))."""
        n = self.algebra.dim
        # column j is coords(e_j*); conj() gives the signed zeros of adjoint()
        return np.eye(n, dtype=complex)[:, self.algebra.layout.adjoint].conj()

    # -- structure map application -------------------------------------------
    def delta(self, x: AlgebraElement) -> AlgebraElement:
        return self.square.from_coords(self.coproduct @ x.coords())

    def epsilon(self, x: AlgebraElement) -> complex:
        return complex(self.counit @ x.coords())

    def kappa(self, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_coords(self.antipode @ x.coords())

    def tau(self, x: AlgebraElement) -> complex:
        return complex(self.haar @ x.coords())

    def unit_coords(self) -> np.ndarray:
        return self.algebra.unit_coords()

    def ksym_defect(self, x: AlgebraElement) -> float:
        """Norm of kappa(x*) - x."""
        return (self.kappa(x.adjoint()) - x).norm()


def kron_coefficients(algebra: BlockAlgebra, coproduct: np.ndarray) -> np.ndarray:
    """dk[p, q, x] = coefficient of e_p (x) e_q in column x of coproduct, a
    map into coords(A (x) A) (the coproduct, or the coproduct followed by a
    map into A), read on kron coordinates; a (..., n^2, m) stack of such maps
    gives the (..., n, n, m) stack of their coefficients."""
    n = algebra.dim
    return coproduct[..., inverse_perm(tensor_perm(algebra, algebra)), :].reshape(
        coproduct.shape[:-2] + (n, n, coproduct.shape[-1]))


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(r < self.tol for r in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v >= self.tol]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "tol": self.tol,
                "residuals": {k: float(v) for k, v in self.residuals.items()}}


def verify_axioms(h: HopfAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> AxiomReport:
    """Residual of every defining identity: coassociativity, counit and
    antipode laws, *-homomorphism property of the coproduct, Haar invariance,
    traciality and the Kac conditions.

    Everything is a contraction on kron coordinates: dk[p, q, x] is the
    coefficient of e_p (x) e_q in delta(e_x), and mk[k, (c, b)] that of e_k
    in e_c e_b.  Coassociativity is summed over slabs of the first leg, and
    the coproduct certificate (hom_residuals) forms its pair products
    delta(e_i) delta(e_j) over slabs of i.  So no temporary has n**4
    entries: the largest have n**3 (dk and the products of the
    coassociativity and antipode laws) or fill a slab's HOM_CHUNK_BYTES.
    """
    n = h.algebra.dim
    res: dict[str, float] = {}
    eye = np.eye(n)
    unit = h.unit_coords()
    dk = h.coproduct_kron
    dflat = dk.reshape(n * n, n)
    mk = ba.mult_matrix(h.algebra)

    # coassociativity on kron coordinates [p, q, b, x], one slab p at a time
    sq = np.zeros(3)
    for p in range(n):
        lhs = dk[p] @ dk.reshape(n, n * n)               # sum_a dk[p,q,a] dk[a,b,x]
        rhs = (dflat @ dk[p]).reshape(n, n * n)          # sum_c dk[q,b,c] dk[p,c,x]
        sq += [np.vdot(v, v).real for v in (lhs - rhs, lhs, rhs)]
    res["coassociativity"] = float(np.sqrt(sq[0] / max(1.0, sq[1], sq[2])))

    # counit laws
    left = np.einsum("a,abx->bx", h.counit, dk)
    right = np.einsum("b,abx->ax", h.counit, dk)
    res["counit_left"] = _rel(left - eye, left, eye)
    res["counit_right"] = _rel(right - eye, right, eye)

    # antipode laws: m (kappa (x) id) delta and m (id (x) kappa) delta
    unit_eps = np.outer(unit, h.counit)
    lhs = mk @ (h.antipode @ dk.reshape(n, n * n)).reshape(n * n, n)
    rhs = mk @ (h.antipode @ dk).reshape(n * n, n)
    res["antipode_left"] = _rel(lhs - unit_eps, lhs, unit_eps)
    res["antipode_right"] = _rel(rhs - unit_eps, rhs, unit_eps)

    # coproduct is a unital *-homomorphism, checked on all basis pairs at once
    hom = ba.hom_residuals(h.coproduct, h.algebra, h.square)
    res["coproduct_unital"] = hom["unital"]
    res["coproduct_multiplicative"] = hom["multiplicative"]
    res["coproduct_star"] = hom["star_preserving"]

    # Haar state: normalisation, positivity, two-sided invariance, traciality
    res["haar_normalised"] = abs(complex(h.haar @ unit) - 1.0)
    eig = np.linalg.eigvalsh(h.gram)
    res["haar_positive"] = max(0.0, -float(eig[0]))
    if eig[0] <= tol.inv_tol * max(1.0, eig[-1]):
        res["haar_faithful"] = 1.0
    else:
        res["haar_faithful"] = 0.0
    left_inv = np.einsum("b,abx->ax", h.haar, dk)        # (id (x) tau) delta
    right_inv = np.einsum("a,abx->bx", h.haar, dk)       # (tau (x) id) delta
    target = np.outer(unit, h.haar)
    res["haar_invariance_right"] = _rel(left_inv - target, left_inv, target)
    res["haar_invariance_left"] = _rel(right_inv - target, right_inv, target)
    res["haar_tracial"] = float(np.max(np.abs(h.gram_bilinear - h.gram_bilinear.T)))

    # Kac conditions; kappa(e_i*) - kappa(e_i)* is column i of K S - S conj(K)
    res["antipode_involutive"] = _rel(h.antipode @ h.antipode - eye, eye)
    s = h.star_mat
    res["antipode_star"] = float(np.max(np.linalg.norm(
        h.antipode @ s - s @ h.antipode.conj(), axis=0)))
    res["haar_kappa_invariant"] = float(np.linalg.norm(h.haar @ h.antipode - h.haar))

    return AxiomReport(res, tol.eq_tol)


def _rel(diff: np.ndarray, *refs: np.ndarray) -> float:
    d = float(np.linalg.norm(diff))
    scale = max([1.0] + [float(np.linalg.norm(r)) for r in refs])
    return d / scale


# ---------------------------------------------------------------------------
# Haar state solver
# ---------------------------------------------------------------------------

def compute_haar(algebra: BlockAlgebra, coproduct: np.ndarray,
                 tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve the two-sided invariance system for the Haar state.

    Returns the coefficient row of the unique functional t with
    (id (x) t)delta = t(.)1 = (t (x) id)delta and t(1) = 1; raises
    NonUniqueHaar if the invariance solution space is not one-dimensional.

    With dk = kron_coefficients(algebra, coproduct), the system in t has the
    n**2 rows (p, x) of (id (x) t)delta - 1 t, that is
    sum_q (dk[p, q, x] - unit[p] [q = x]) t[q], and the n**2 rows (q, x) of
    (t (x) id)delta - 1 t, sum_p (dk[p, q, x] - unit[q] [p = x]) t[p].
    """
    n = algebra.dim
    dk = kron_coefficients(algebra, np.asarray(coproduct, complex).reshape(n * n, n))
    unit = algebra.unit_coords()
    ones = (unit[:, None, None] * np.eye(n)[None]).reshape(n * n, n)  # [(p, x), q]
    system = np.vstack([dk.transpose(0, 2, 1).reshape(n * n, n) - ones,
                        dk.transpose(1, 2, 0).reshape(n * n, n) - ones])
    null = ba.null_space(system)
    if null.shape[1] != 1:
        raise NonUniqueHaar(f"invariance solution space has dimension {null.shape[1]}")
    t = null[:, 0]
    norm = t @ unit
    if abs(norm) < tol.inv_tol:
        raise NonUniqueHaar("invariant functional is not normalisable")
    return t / norm


# ---------------------------------------------------------------------------
# distinguished subspaces
# ---------------------------------------------------------------------------

def cocentre_basis(h: HopfAlgebra) -> list[AlgebraElement]:
    """Orthonormal basis (Haar inner product) of the cocommutative elements."""
    raw = ba.null_space(h.coproduct - h.coproduct[h.flip, :])
    # orthonormalise against <a,b> = tau(a* b) = a^dagger Gram b
    chol = np.linalg.cholesky(h.gram + 0j)
    q, _ = np.linalg.qr(chol.conj().T @ raw)
    basis = np.linalg.solve(chol.conj().T, q)
    return [h.algebra.from_coords(basis[:, i]) for i in range(basis.shape[1])]


def ksymmetric_basis(h: HopfAlgebra) -> list[AlgebraElement]:
    """Real basis of the +1 eigenspace of x -> kappa(x*)."""
    n = h.algebra.dim
    theta_mat = ba.realify_antilinear(h.antipode @ h.star_mat)
    ident = np.eye(2 * n)
    if np.linalg.norm(theta_mat @ theta_mat - ident) > 1e-8 * 2 * n:
        raise NotInvolutive("kappa composed with * is not an involution")
    fixed = ba.null_space(theta_mat - ident)
    return [h.algebra.from_coords(ba.real_vec_to_coords(fixed[:, i]))
            for i in range(fixed.shape[1])]


@dataclass(frozen=True)
class CentralProjection:
    element: AlgebraElement
    block: int


def counit_support(h: HopfAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> CentralProjection:
    """Minimal central projection j with x j = eps(x) j for all x.

    The counit is a character, so it lives on a single 1x1 block b: on matrix
    units, e_k j - eps(e_k) j has norm |[e_k = j] - eps(e_k)|, so the identity
    holds exactly where the counit row is the indicator of b's coordinate.
    """
    a = h.algebra
    defect = np.max(np.abs(h.counit[:, None] - a.block_unit_coords()), axis=0)
    found = np.flatnonzero((np.array(a.block_dims) == 1) & (defect < tol.eq_tol * 10))
    if len(found) == 0:
        raise NoCharacterBlock("no 1x1 block carries the counit character")
    return CentralProjection(a.block_unit(int(found[0])), int(found[0]))


# ---------------------------------------------------------------------------
# example families
# ---------------------------------------------------------------------------

def group_algebra(group: Group, seed: int = 0x517C) -> HopfAlgebra:
    """C[G] in block form via the numerical Wedderburn decomposition.

    On the group basis: delta(g) = g (x) g, eps(g) = 1, kappa(g) = g^{-1},
    tau(g) = [g = e].  The change of basis to block coordinates is kept in
    meta["group_basis"].
    """
    n = group.order
    table = np.array(group.table)
    g, x = np.indices((n, n))
    left = np.zeros((n, n, n), complex)
    left[g, table, x] = 1.0
    # g -> g^{-1} (g h = e has index 0): an involution, so the matrix is symmetric
    inverse = np.eye(n)[np.nonzero(table == 0)[1]]
    unit = np.zeros(n)
    unit[0] = 1.0
    wd = wedderburn(AbstractStarAlgebra(left, inverse.astype(complex), unit.astype(complex)),
                    seed=seed)
    phi, phi_inv = wd.iso, wd.iso_inv
    alg = wd.algebra

    # column g is coords(x_g (x) x_g) = kron(phi[:, g], phi[:, g])[perm]
    coproduct = (phi[:, None] * phi[None]).reshape(n * n, n)[tensor_perm(alg, alg)]
    coproduct = coproduct @ phi_inv
    counit = np.ones(n) @ phi_inv
    antipode = phi @ inverse @ phi_inv
    haar = unit @ phi_inv  # tau(lambda_g) = [g = e]
    return HopfAlgebra(alg, coproduct, counit, antipode, haar,
                       name=f"C[{group.name}]",
                       meta={"group": group, "group_basis": phi, "kind": "group"})


def function_algebra(group: Group) -> HopfAlgebra:
    """C(G): all blocks 1x1, delta(f)(s,t) = f(st) on the delta-function basis."""
    n = group.order
    alg = BlockAlgebra((1,) * n)
    table = np.array(group.table)
    # column g is the indicator of {(s, t): st = g} on kron coordinates
    coproduct = np.eye(n, dtype=complex)[table.reshape(-1)[tensor_perm(alg, alg)]]
    counit = np.zeros(n)
    counit[0] = 1.0
    antipode = np.eye(n)[np.nonzero(table == 0)[1]]   # g -> g^{-1}, as in group_algebra
    haar = np.full(n, 1.0 / n)
    return HopfAlgebra(alg, coproduct, counit, antipode, haar,
                       name=f"C({group.name})",
                       meta={"group": group, "kind": "function"})


def with_computed_haar(h: HopfAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> HopfAlgebra:
    """Clone of h with the Haar row recomputed from the invariance system."""
    haar = compute_haar(h.algebra, h.coproduct, tol)
    return HopfAlgebra(h.algebra, h.coproduct, h.counit, h.antipode, haar,
                       name=h.name, meta=dict(h.meta))
