"""Dual Hopf algebra, Fourier transform, convolution, faithful functionals.

A functional on A is stored through its density: f = tau(v .) with v an
element of A (the trace pairing is nondegenerate because the Haar state is
faithful).  The dual algebra is the space of functionals with convolution
product (f.g)(x) = (f (x) g)(delta x); its block form is computed numerically
by the Wedderburn engine, never entered by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import blockalg as ba
from .blockalg import AlgebraElement, DEFAULT_TOL, ToleranceConfig, tensor_perm
from .errors import NotFaithful, NotInjective, NotSelfAdjoint, NotStarHom
from .hopf import HopfAlgebra, compute_haar, verify_axioms
from .wedderburn import AbstractStarAlgebra, wedderburn


class Functional:
    """Linear functional f = tau(density . ) on the algebra of a HopfAlgebra."""

    __slots__ = ("hopf", "density")

    def __init__(self, hopf: HopfAlgebra, density: AlgebraElement):
        if density.algebra != hopf.algebra:
            raise ba.ShapeMismatch("density lives in the wrong algebra")
        object.__setattr__(self, "hopf", hopf)
        object.__setattr__(self, "density", density)

    def __setattr__(self, *a):
        raise AttributeError("Functional is immutable")

    def __call__(self, x: AlgebraElement) -> complex:
        return self.hopf.tau(self.density * x)

    @property
    def row(self) -> np.ndarray:
        """Coefficient row: row[j] = f(e_j)."""
        return self.density.coords() @ self.hopf.gram_bilinear

    @classmethod
    def from_row(cls, hopf: HopfAlgebra, row: np.ndarray) -> "Functional":
        density = hopf.algebra.from_coords(
            np.linalg.solve(hopf.gram_bilinear.T, np.asarray(row, complex)))
        return cls(hopf, density)

    # density-level predicates (these ARE the functional-level notions)
    def is_selfadjoint(self, tol: float = DEFAULT_TOL.eq_tol) -> bool:
        return self.density.is_selfadjoint(tol)

    def is_positive(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return self.is_selfadjoint(tol.eq_tol) and ba.is_positive(self.density, tol)

    def is_faithful(self, inv_tol: float = DEFAULT_TOL.inv_tol) -> bool:
        return self.density.is_invertible(inv_tol)

    def annihilator_rank_defect(self) -> int:
        """dim ker of the bilinear form (a,b) -> f(ab); 0 iff faithful."""
        n = self.hopf.algebra.dim
        g = (self.row @ ba.mult_matrix(self.hopf.algebra)).reshape(n, n)   # f(e_i e_j)
        return n - ba.numerical_rank(g)[0]


@dataclass(eq=False)
class DualHopfAlgebra:
    """The dual quantum group realised as a block algebra.

    to_dual maps a functional row (length N) to block coordinates of the dual
    algebra; the pairing is beta(a, ahat) = (functional of ahat)(a).
    """

    base: HopfAlgebra
    hopf: HopfAlgebra
    to_dual_mat: np.ndarray
    from_dual_mat: np.ndarray

    # -- conversions -----------------------------------------------------------
    def to_dual(self, f: Functional) -> AlgebraElement:
        return self.hopf.algebra.from_coords(self.to_dual_mat @ f.row)

    def pairing(self, a: AlgebraElement, ahat: AlgebraElement) -> complex:
        row = self.from_dual_mat @ ahat.coords()
        return complex(row @ a.coords())

    @cached_property
    def fourier_mat(self) -> np.ndarray:
        """Matrix of F: coords(A) -> coords(Ahat), beta(a, F(b)) = tau(ab)."""
        return self.to_dual_mat @ self.base.gram_bilinear

    @cached_property
    def fourier_inv(self) -> np.ndarray:
        return np.linalg.inv(self.fourier_mat)

    def fourier(self, x: AlgebraElement) -> AlgebraElement:
        return self.hopf.algebra.from_coords(self.fourier_mat @ x.coords())

    def inverse_fourier(self, xhat: AlgebraElement) -> AlgebraElement:
        return self.base.algebra.from_coords(self.fourier_inv @ xhat.coords())

    def convolutions(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of x <> y = F^{-1}(F(x) F(y)) for coordinate stacks x, y
        (..., N) of the base algebra, broadcast against each other: one
        Fourier transform per vector and one product per block size of the
        dual."""
        f = self.fourier_mat
        fxy = ba.products(self.hopf.algebra, ba.matvec(f, x), ba.matvec(f, y))
        return ba.matvec(self.fourier_inv, fxy)

    def convolve(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        """a <> b = F^{-1}(F(a) F(b)) (convolutions on one pair)."""
        if a.algebra != self.base.algebra or b.algebra != self.base.algebra:
            raise ba.ShapeMismatch("convolution arguments must live in the base algebra")
        return self.base.algebra.from_coords(self.convolutions(a.coords(), b.coords()))


def build_dual(h: HopfAlgebra, tol: ToleranceConfig = DEFAULT_TOL,
               seed: int = 0x0D0A1) -> DualHopfAlgebra:
    """Construct the dual quantum group of h and certify its axioms."""
    # abstract convolution algebra on coefficient rows: left[a][:, b] is the
    # row of (f_a (x) f_b) o delta for the dual basis f_a, i.e. the kron
    # coefficients dk[a, b, :] of delta
    left = h.coproduct_kron.transpose(0, 2, 1)

    # star: f*(x) = conj(f(kappa(x)*)); column j of kstar_cols is kappa(e_j)*
    kstar_cols = h.star_mat @ h.antipode.conj()
    star = np.conj(kstar_cols.T)  # rows transform with conj(C^T)

    unit_row = h.counit.copy()
    abstract = AbstractStarAlgebra(left, star, unit_row)
    wd = wedderburn(abstract, seed=seed)
    phi, phi_inv = wd.iso, wd.iso_inv
    dual_alg = wd.algebra

    # dual coproduct: transpose of multiplication, transported block by block;
    # gamma[j] holds f_j(e_a e_b) at (a, b) for the functional f_j of dual
    # basis element j, and column j is phi gamma[j] phi^T read on the tensor
    # coordinates of the dual (two batched products, no N^4 array).  Kept
    # C-ordered: the axiom residuals of the dual read its last bits through
    # the memory layout
    n = h.algebra.dim
    gamma = (phi_inv.T @ ba.mult_matrix(h.algebra)).reshape(n, n, n)
    columns = (phi @ gamma @ phi.T).reshape(n, n * n)[:, tensor_perm(dual_alg, dual_alg)]
    dual_coproduct = np.ascontiguousarray(columns.T)
    dual_counit = h.algebra.unit().coords() @ phi_inv
    dual_antipode = phi @ h.antipode.T @ phi_inv
    dual_haar = compute_haar(dual_alg, dual_coproduct, tol=tol)
    dual_h = HopfAlgebra(dual_alg, dual_coproduct, dual_counit, dual_antipode,
                         dual_haar, name=f"dual({h.name})",
                         meta={"kind": "dual", "base": h.name})
    return DualHopfAlgebra(h, dual_h, phi, phi_inv)


# ---------------------------------------------------------------------------
# Jordan decomposition and pullbacks of faithful functionals
# ---------------------------------------------------------------------------

def jordan_splits(a: ba.BlockAlgebra, v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """Jordan decompositions f = f1 - f2 of the faithful self-adjoint
    functionals tau(v .) for a stack v (..., N) of densities: f1 and f2
    positive, orthogonal, faithful on complementary corners.

    Returns the coordinates (d1, d2, p): p = (1 + sym)/2 for the polar
    symmetry sym of v, and the densities d1 = v p and d2 = -v (1 - p), so
    f1 = f(p .) and f2 = -f((1-p) .).  NotSelfAdjoint or NotInvertible (from
    polar_symmetries) if any density is not self-adjoint or not invertible.
    """
    one = a.unit_coords()
    _, sym = ba.polar_symmetries(a, v, tol)
    p = 0.5 * (one + sym)
    return ba.products(a, v, p), -ba.products(a, v, one - p), p


def jordan_decompose(f: Functional, tol: ToleranceConfig = DEFAULT_TOL):
    """(f1, f2, p) of jordan_splits for one faithful self-adjoint functional."""
    a = f.hopf.algebra
    d1, d2, p = jordan_splits(a, f.density.coords(), tol)
    return (Functional(f.hopf, a.from_coords(d1)), Functional(f.hopf, a.from_coords(d2)),
            a.from_coords(p))


def pullback(hom_matrix: np.ndarray, f: Functional, source: HopfAlgebra,
             tol: ToleranceConfig = DEFAULT_TOL) -> Functional:
    """f o hom for an injective unital *-homomorphism hom: source -> target.

    hom_matrix maps coords(source) to coords(target algebra of f).  The result
    is verified self-adjoint and faithful (density invertible).
    """
    target = f.hopf
    ns = source.algebra.dim
    hom_matrix = np.asarray(hom_matrix, complex)
    if hom_matrix.shape != (target.algebra.dim, ns):
        raise ba.ShapeMismatch("hom matrix has wrong shape")
    sv = np.linalg.svd(hom_matrix, compute_uv=False)
    if sv[-1] <= tol.inv_tol * max(1.0, sv[0]):
        raise NotInjective("homomorphism has a kernel")
    hom = ba.hom_residuals(hom_matrix, source.algebra, target.algebra)
    if hom["unital"] > tol.eq_tol * 10:
        raise NotStarHom("homomorphism is not unital")
    if hom["star_preserving"] > tol.eq_tol * 10:
        raise NotStarHom("homomorphism does not preserve the involution")
    if hom["multiplicative"] > tol.eq_tol * 100:
        raise NotStarHom("homomorphism is not multiplicative")
    if not f.is_selfadjoint(tol.eq_tol):
        raise NotSelfAdjoint("functional must be self-adjoint")
    row = f.row @ hom_matrix
    result = Functional.from_row(source, row)
    if not result.is_faithful(tol.inv_tol):
        raise NotFaithful("pullback density is singular")
    return result


def fourier_of_counit_support(h: HopfAlgebra, d: DualHopfAlgebra,
                              tol: ToleranceConfig = DEFAULT_TOL):
    """F(j) for the counit support j; returns (scalar, residual to scalar*1).

    The scalar is reported, never normalised away.
    """
    from .hopf import counit_support
    j = counit_support(h, tol).element
    fj = d.fourier(j)
    one = d.hopf.algebra.unit()
    scalar = complex(np.vdot(one.coords(), fj.coords()) / np.vdot(one.coords(), one.coords()))
    residual = (fj - scalar * one).norm()
    return scalar, residual
