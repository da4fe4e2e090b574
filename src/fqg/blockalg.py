"""Block-diagonal complex matrix algebras.

A finite-dimensional C*-algebra is stored as a direct sum of full matrix
blocks.  Everything downstream (Hopf structure, duality, automorphism
classification) works in the "matrix-unit coordinates" defined here: an
element is flattened block by block, row-major, into a vector of length
sum(n_i**2), and linear maps between algebras are plain matrices acting on
those coordinates.

An element is stored as that coordinate vector, read-only.  Its arithmetic
runs once per block size, not once per block: each BlockAlgebra caches a
BlockLayout that says where the blocks of each size sit in the vector, so
products, inverses and spectra are one numpy call on the (k, n, n) stack of
each size, and sums, scalar multiples, adjoints and norms act on the whole
vector.  The products, adjoints, norms, singular values, spectra and polar
symmetries are kernels on coordinates of shape (..., dim), so a stack of
elements goes through the same calls as one element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NotInvertible, NotSelfAdjoint, ShapeMismatch


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used everywhere.

    eq_tol: relative Frobenius tolerance for equality of elements/maps.
    inv_tol: smallest-singular-value threshold for invertibility.
    psd_tol: eigenvalue floor below which positivity is rejected.
    """

    eq_tol: float = 1e-9
    inv_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.eq_tol, self.inv_tol, self.psd_tol)):
            raise ValueError("tolerances must be strictly positive and finite")
        if self.eq_tol >= 1:
            raise ValueError("eq_tol must be < 1")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of matrix algebras M_{n_1} + ... + M_{n_k}."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0 or any(n <= 0 for n in self.block_dims):
            raise ValueError("block_dims must be a nonempty tuple of positive ints")
        object.__setattr__(self, "block_dims", tuple(int(n) for n in self.block_dims))

    @cached_property
    def dim(self) -> int:
        """Complex dimension sum(n_i**2)."""
        return sum(n * n for n in self.block_dims)

    @property
    def nblocks(self) -> int:
        return len(self.block_dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        off, acc = [], 0
        for n in self.block_dims:
            off.append(acc)
            acc += n * n
        return tuple(off)

    @property
    def basis_labels(self) -> list[tuple[int, int, int]]:
        """(block, row, col) for every matrix-unit basis vector, in coordinate order."""
        out = []
        for b, n in enumerate(self.block_dims):
            for r in range(n):
                for s in range(n):
                    out.append((b, r, s))
        return out

    def block_coords(self) -> list[np.ndarray]:
        """For every block, the (n, n) array of coordinates of its matrix units."""
        return [off + np.arange(n * n).reshape(n, n)
                for off, n in zip(self.offsets, self.block_dims)]

    @cached_property
    def layout(self) -> "BlockLayout":
        return BlockLayout(self)

    def block_unit_coords(self) -> np.ndarray:
        """(dim, nblocks) array: column b holds the coordinates of the b-th
        minimal central projection."""
        lay = self.layout
        p = np.zeros((self.dim, self.nblocks), complex)
        p[lay.diagonal, lay.block_of[lay.diagonal]] = 1.0
        return p

    def unit_coords(self) -> np.ndarray:
        u = np.zeros(self.dim, complex)
        u[self.layout.diagonal] = 1.0
        return u

    def zero(self) -> "AlgebraElement":
        return self.from_coords(np.zeros(self.dim, complex))

    def unit(self) -> "AlgebraElement":
        return self.from_coords(self.unit_coords())

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def basis_element(self, k: int) -> "AlgebraElement":
        v = np.zeros(self.dim, complex)
        v[k] = 1.0
        return self.from_coords(v)

    def from_coords(self, v: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, coords=v)

    def block_unit(self, b: int) -> "AlgebraElement":
        """Identity of a single block: the b-th minimal central projection."""
        return self.from_coords(self.block_unit_coords()[:, b])

    def central_projections(self) -> list["AlgebraElement"]:
        return [self.block_unit(b) for b in range(self.nblocks)]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class BlockLayout:
    """Where the blocks of each size sit in the coordinate vector of a
    BlockAlgebra; built once per algebra (BlockAlgebra.layout).

    by_size maps each block size n, in order of first appearance, to the
    (k, n, n) array idx of the coordinates of its k blocks, each row-major,
    so v[idx] stacks them.  adjoint is the permutation with
    coords(x*) = conj(coords(x)[adjoint]), i.e. e_(b,r,s)* = e_(b,s,r); draw_real and
    draw_imag say where random_element finds the real and imaginary part of
    each coordinate in its draw of 2 * dim normals (block after block, the
    real parts of a block before its imaginary parts).
    """

    def __init__(self, a: BlockAlgebra):
        self.dim = a.dim
        coords = a.block_coords()
        by_size: dict[int, list[np.ndarray]] = {}
        for idx in coords:
            by_size.setdefault(len(idx), []).append(idx)
        self.by_size = {n: _readonly(np.stack(g)) for n, g in by_size.items()}
        self.adjoint = _readonly(np.concatenate([idx.T.reshape(-1) for idx in coords]))
        sq = np.array([n * n for n in a.block_dims])
        self.block_of = _readonly(np.repeat(np.arange(a.nblocks), sq))
        self.diagonal = _readonly(np.concatenate([np.diagonal(idx) for idx in coords]))
        self.draw_real = _readonly(np.arange(self.dim) + np.repeat(np.array(a.offsets), sq))
        self.draw_imag = _readonly(self.draw_real + np.repeat(sq, sq))

    def stacks(self, v: np.ndarray) -> list[np.ndarray]:
        """The (..., k, n, n) stack of each block size of coordinates v (..., dim)."""
        return [v[..., idx] for idx in self.by_size.values()]

    def join(self, stacks: list[np.ndarray]) -> np.ndarray:
        """Coordinates (..., dim) from one (..., k, n, n) stack per block size."""
        out = np.empty(stacks[0].shape[:-3] + (self.dim,), np.result_type(*stacks))
        for idx, s in zip(self.by_size.values(), stacks):
            out[..., idx] = s
        return out

    def apply(self, v: np.ndarray, fn) -> np.ndarray:
        """Coordinates of fn applied to the stack of each block size of v."""
        return self.join([fn(s) for s in self.stacks(v)])


def hermitian_part(s: np.ndarray) -> np.ndarray:
    """Hermitian part (s + s*) / 2 of a stack of matrices."""
    return (s + s.conj().swapaxes(-1, -2)) / 2


def unit_products(a: BlockAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (i, j, k) of every nonzero product e_i e_j = e_k of two
    matrix units: e_{b,r,s} e_{b,s,u} = e_{b,r,u}."""
    trip = [np.broadcast_arrays(idx[:, :, None], idx[None, :, :], idx[:, None, :])
            for idx in a.block_coords()]
    return tuple(np.concatenate([t[m].reshape(-1) for t in trip]) for m in range(3))


@lru_cache(maxsize=None)
def left_mult_tensor(a: BlockAlgebra) -> np.ndarray:
    """T[a] = matrix of left multiplication by basis e_a on coordinates."""
    n = a.dim
    i, j, k = unit_products(a)
    t = np.zeros((n, n, n), complex)
    t[i, k, j] = 1.0
    return t


@lru_cache(maxsize=None)
def right_mult_tensor(a: BlockAlgebra) -> np.ndarray:
    """T[a] = matrix of right multiplication by basis e_a on coordinates."""
    n = a.dim
    i, j, k = unit_products(a)
    t = np.zeros((n, n, n), complex)
    t[j, k, i] = 1.0
    return t


@lru_cache(maxsize=None)
def mult_matrix(a: BlockAlgebra) -> np.ndarray:
    """Multiplication A (x) A -> A on kron coordinates: column i*n + j holds
    coords(e_i e_j)."""
    n = a.dim
    return left_mult_tensor(a).transpose(1, 0, 2).reshape(n, n * n)


class AlgebraElement:
    """Immutable element of a BlockAlgebra, stored as its read-only
    coordinate vector.

    Built from a list of blocks, or with coords= from a coordinate vector
    (copied either way).
    """

    __slots__ = ("algebra", "_v")

    def __init__(self, algebra: BlockAlgebra, blocks=None, *, coords=None):
        if coords is None:
            if len(blocks) != algebra.nblocks:
                raise ShapeMismatch("wrong number of blocks")
            mats = [np.asarray(blk, dtype=complex) for blk in blocks]
            for n, m in zip(algebra.block_dims, mats):
                if m.shape != (n, n):
                    raise ShapeMismatch(f"block shape {m.shape} != ({n},{n})")
            v = np.concatenate([m.reshape(-1) for m in mats])
        else:
            v = np.array(coords, dtype=complex).reshape(-1)
            if v.shape[0] != algebra.dim:
                raise ShapeMismatch(f"expected {algebra.dim} coordinates, got {v.shape[0]}")
        v.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_v", v)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def _new(self, v: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self.algebra, coords=v)

    # -- arithmetic ---------------------------------------------------------
    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ShapeMismatch("elements live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        return self._new(self._v + other._v)

    def __sub__(self, other):
        self._check_same(other)
        return self._new(self._v - other._v)

    def __neg__(self):
        return self._new(-self._v)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return self._new(products(self.algebra, self._v, other._v))
        return self._new(complex(other) * self._v)

    def __rmul__(self, scalar):
        return self._new(complex(scalar) * self._v)

    def adjoint(self) -> "AlgebraElement":
        return self._new(adjoints(self.algebra, self._v))

    # -- blocks -------------------------------------------------------------
    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only (n, n) views of the blocks, in block order."""
        a, v = self.algebra, self._v
        return tuple(v[off:off + n * n].reshape(n, n) for off, n in zip(a.offsets, a.block_dims))

    def stacks(self) -> list[np.ndarray]:
        """The (k, n, n) stack of the blocks of each size (BlockLayout.by_size)."""
        return self.algebra.layout.stacks(self._v)

    def blockwise(self, fn) -> "AlgebraElement":
        """The element whose blocks of each size are fn of their (k, n, n) stack."""
        return self._new(self.algebra.layout.apply(self._v, fn))

    # -- coordinates and norms ----------------------------------------------
    def coords(self) -> np.ndarray:
        """The read-only coordinate vector."""
        return self._v

    def norm(self) -> float:
        """Global Frobenius norm (used for residuals)."""
        return float(norms(self._v))

    def opnorm(self) -> float:
        """C*-norm: max over blocks of the spectral norm."""
        return max(float(np.linalg.svd(s, compute_uv=False)[..., 0].max()) for s in self.stacks())

    def smallest_sv(self) -> float:
        return float(smallest_svs(self.algebra, self._v))

    def is_selfadjoint(self, tol: float = DEFAULT_TOL.eq_tol) -> bool:
        return bool(_selfadjoint_defects(self.algebra, self._v, tol)[1])

    def is_invertible(self, inv_tol: float = DEFAULT_TOL.inv_tol) -> bool:
        return self.smallest_sv() > inv_tol

    def allclose(self, other, tol: float = DEFAULT_TOL.eq_tol) -> bool:
        self._check_same(other)
        return float(norms(self._v - other._v)) <= tol * max(1.0, self.norm(), other.norm())

    def __repr__(self):
        return f"AlgebraElement(dims={self.algebra.block_dims})"


# ---------------------------------------------------------------------------
# kernels on coordinate stacks
# ---------------------------------------------------------------------------
# Each kernel takes coordinates of shape (..., dim): one element, or a stack
# of them evaluated at once (the sampling checks of `fqg verify` pass one
# stack per check).  The AlgebraElement methods and the functions on
# elements below are wrappers over these, so one element and one row of a
# stack go through the same arithmetic.

def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for every vector v of a stack (..., n), one matrix-vector product
    per vector as for a single vector (a stack times m.T is one matrix
    product, which sums in another order); a 1-d m gives the dot products."""
    return np.matmul(m, v[..., None])[..., 0]


def norms(v: np.ndarray) -> np.ndarray:
    """Frobenius norm of each coordinate vector of v (..., dim)."""
    return np.sqrt(np.matmul(v.conj()[..., None, :], v[..., None])[..., 0, 0].real)


def products(a: BlockAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of the products x y (stacks broadcast against each other),
    one batched matmul per block size."""
    lay = a.layout
    return lay.join([s @ t for s, t in zip(lay.stacks(x), lay.stacks(y))])


def adjoints(a: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoints x*."""
    return x[..., a.layout.adjoint].conj()


def selfadjoint_parts(a: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates of (x + x*) / 2."""
    return 0.5 * (x + adjoints(a, x))


def smallest_svs(a: BlockAlgebra, x: np.ndarray) -> np.ndarray:
    """Smallest singular value over all blocks of each element of x.  Blocks
    of size 1 and 2 take a closed form (_smallest_block_svs), larger ones
    LAPACK's SVD; either way the absolute error is about eps * sigma_max of
    the block, as LAPACK's."""
    return np.min([_smallest_block_svs(s).min(axis=-1) for s in a.layout.stacks(x)], axis=0)


def _smallest_block_svs(s: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix of a stack (..., n, n): |x| for
    n = 1; for n = 2, M = [[a, b], [c, d]], sigma_max^2 is the larger
    eigenvalue of M*M from its Gram entries (no cancellation) and
    sigma_min = |ad - bc| / sigma_max (0 where M = 0); LAPACK for n >= 3.
    The squared entries must not overflow or underflow, which holds for
    entries between about 1e-150 and 1e150."""
    n = s.shape[-1]
    if n == 1:
        return np.abs(s[..., 0, 0])
    if n > 2:
        return np.linalg.svd(s, compute_uv=False)[..., -1]
    a, b, c, d = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    p = a.real ** 2 + a.imag ** 2 + c.real ** 2 + c.imag ** 2
    r = b.real ** 2 + b.imag ** 2 + d.real ** 2 + d.imag ** 2
    big = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, np.abs(a.conj() * b + c.conj() * d)))
    return np.divide(np.abs(a * d - b * c), big, out=np.zeros_like(big), where=big > 0)


def _selfadjoint_defects(a: BlockAlgebra, x: np.ndarray, tol: float):
    """||x - x*|| of each element, and whether it is at most tol * max(1, ||x||)."""
    defect = norms(x - adjoints(a, x))
    return defect, defect <= tol * np.maximum(1.0, norms(x))


def _require_selfadjoint(a: BlockAlgebra, x: np.ndarray, tol: float):
    """NotSelfAdjoint, with the defect of the first offending element, unless
    every element of x is self-adjoint."""
    defect, ok = _selfadjoint_defects(a, x, tol)
    if not np.all(ok):
        raise NotSelfAdjoint(f"residual {defect[~ok].flat[0]:.3e}")


def spectra(a: BlockAlgebra, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Sorted eigenvalue multiset of each self-adjoint element of x across all
    its blocks, shape (..., sum of the block sizes); NotSelfAdjoint if any
    element is not self-adjoint."""
    _require_selfadjoint(a, x, tol.eq_tol)
    lam = [_hermitian_eigs(s) for s in a.layout.stacks(x)]
    flat = [m.reshape(m.shape[:-2] + (math.prod(m.shape[-2:]),)) for m in lam]
    return np.sort(np.concatenate(flat, axis=-1), axis=-1)


def _hermitian_eigs(s: np.ndarray, vectors: bool = False):
    """eigvalsh, or eigh with vectors, of the Hermitian parts of a stack of
    blocks; for blocks of size 1 the real part and the eigenvector 1, bit
    for bit what LAPACK returns for them."""
    if s.shape[-1] == 1:
        lam = s[..., 0].real
        return (lam, np.ones_like(s)) if vectors else lam
    h = hermitian_part(s)
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


def polar_symmetries(a: BlockAlgebra, v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """Coordinates (absval, sym) of the polar splits v = absval * sym of the
    self-adjoint invertible elements of v: absval positive, sym a self-adjoint
    unitary commuting with it.  NotSelfAdjoint or NotInvertible if any element
    is not self-adjoint or not invertible."""
    _require_selfadjoint(a, v, tol.eq_tol)
    if not np.all(smallest_svs(a, v) > tol.inv_tol):
        raise NotInvertible("polar symmetry requires an invertible element")
    lay = a.layout
    eig = [_hermitian_eigs(s, vectors=True) for s in lay.stacks(v)]

    def calculus(fn):
        return lay.join([(q * fn(lam)[..., None, :]) @ q.conj().swapaxes(-1, -2)
                         for lam, q in eig])
    return calculus(np.abs), calculus(np.sign)


# ---------------------------------------------------------------------------
# spectral operations on elements
# ---------------------------------------------------------------------------

def spectrum(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Sorted eigenvalue multiset of a self-adjoint element, across all blocks."""
    return spectra(x.algebra, x.coords(), tol)


def is_positive(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return bool(spectrum(x, tol)[0] >= -tol.psd_tol)


def inverses(a: BlockAlgebra, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of the inverses of x; NotInvertible, with the smallest
    singular value of the stack, unless every element's exceeds tol.inv_tol."""
    sv = smallest_svs(a, x)
    if not np.all(sv > tol.inv_tol):
        raise NotInvertible(f"smallest singular value {np.min(sv):.3e}")
    return a.layout.apply(x, np.linalg.inv)


def invert(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraElement:
    return x._new(inverses(x.algebra, x.coords(), tol))


def polar_symmetry(v: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL):
    """Split a self-adjoint invertible v as |v| * U with U a symmetry
    (polar_symmetries on one element): returns (absval, sym)."""
    return tuple(v.algebra.from_coords(c) for c in polar_symmetries(v.algebra, v.coords(), tol))


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tensor_algebra(a: BlockAlgebra, b: BlockAlgebra) -> BlockAlgebra:
    """A (x) B with blocks n_i*m_j ordered lexicographically in (i, j)."""
    return BlockAlgebra(tuple(n * m for n in a.block_dims for m in b.block_dims))


def _tensor_units(a: BlockAlgebra, b: BlockAlgebra):
    """For every coordinate of A (x) B, the matrix unit e_{i,r,s} (x) e_{j,t,u}
    it holds, as index arrays (i, j, r, t, s, u), with the sizes n = n_i and
    m = m_j, and the offset of every block.  Block (i, j) has size n m and holds
    that unit at row r m + t and column s m + u, read in row-major order
    [r, t, s, u]."""
    dims_a, dims_b = np.array(a.block_dims), np.array(b.block_dims)
    sq = (np.outer(dims_a, dims_b) ** 2).reshape(-1)
    start = np.cumsum(sq) - sq
    i, j = np.divmod(np.repeat(np.arange(len(sq)), sq), b.nblocks)
    n, m = dims_a[i], dims_b[j]
    row, col = np.divmod(np.arange(sq.sum()) - np.repeat(start, sq), n * m)
    return (i, j, *np.divmod(row, m), *np.divmod(col, m)), n, m, start


@lru_cache(maxsize=None)
def tensor_perm(a: BlockAlgebra, b: BlockAlgebra) -> np.ndarray:
    """Permutation P with coords_{A(x)B}(x(x)y) = kron(coords x, coords y)[P]:
    coordinate (i, j, r, t, s, u) of _tensor_units reads kron entry
    coords(e_{i,r,s}) * dim B + coords(e_{j,t,u})."""
    (i, j, r, t, s, u), n, m, _ = _tensor_units(a, b)
    return (np.array(a.offsets)[i] + r * n + s) * b.dim + np.array(b.offsets)[j] + t * m + u


def inverse_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def tensor_element(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x (x) y, read off kron(coords x, coords y) by tensor_perm."""
    ab = tensor_algebra(x.algebra, y.algebra)
    return ab.from_coords(np.kron(x.coords(), y.coords())[tensor_perm(x.algebra, y.algebra)])


@lru_cache(maxsize=None)
def flip_perm(a: BlockAlgebra) -> np.ndarray:
    """Permutation F on coords(A(x)A) with sigma(w) = w[F], sigma(x(x)y) = y(x)x:
    block (i, j) at [r, t, s, u] reads block (j, i), of sizes (m, n), at
    [t, r, u, s]."""
    (i, j, r, t, s, u), n, m, block_off = _tensor_units(a, a)
    return block_off[j * a.nblocks + i] + (t * n + r) * (n * m) + u * n + s


# ---------------------------------------------------------------------------
# *-homomorphism certificate
# ---------------------------------------------------------------------------

# hom_residuals forms the pair products of a slab of source rows at a time,
# as many rows as keep the slab's temporaries, over the whole stack of maps,
# within HOM_CHUNK_BYTES (one row when a single row takes more).
HOM_CHUNK_BYTES = 1 << 20


def hom_residuals(m: np.ndarray, source, target: BlockAlgebra, *,
                  anti: bool = False) -> dict:
    """How far phi = m: coords(source) -> coords(target) is from a unital
    *-homomorphism, and with anti=True from an anti- and a Jordan one.

    source is a BlockAlgebra or a structure-constant algebra (an
    AbstractStarAlgebra: left_mult, star and unit).  Every call returns
    multiplicative, the largest Frobenius defect over all basis pairs
    (e_i, e_j) of phi(e_i e_j) against phi(e_i) phi(e_j); star_preserving,
    the largest defect of phi(e_i*) against phi(e_i)* over the basis; and
    unital, the norm of phi(1) - 1.  Only anti=True adds anti_multiplicative
    and jordan, the defects against phi(e_j) phi(e_i) and (for
    phi(e_i e_j + e_j e_i)) their sum.  Per pair the squared defects are
    summed over the blocks of the target.

    For each target block size the pair products are formed one slab of
    first factors i at a time: the rows of the blocks of phi(e_i), i in the
    slab, times the columns of those of every phi(e_j), one batched matmul.
    A slab holds as many i as keep its temporaries within HOM_CHUNK_BYTES
    (at least one), so what a call holds at once stays near that bound,
    while the products of all n**2 pairs have N**4 entries on the
    coproduct of C(G) and on the GNS representation.  phi(e_i e_j) is read
    off phi at the composable pairs of a block source, for an abstract one
    off phi times columns of its multiplication matrix.  With anti=True a
    slab also forms phi(e_j) phi(e_i) for its i, and reads the products
    e_j e_i.

    m may also be a (..., target dim, source dim) stack of maps: then each
    residual is an array over the stack instead of a float.
    """
    n = source.dim
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    (i, j, by_j), prod, adj, unit_s, unit_t, target_blocks = _hom_structure(source, target)
    j_sorted = j[by_j]
    width = int(np.bincount(i).max())                # most pairs (i, j) for one i
    sq = np.zeros(lead + (3 if anti else 1, n, n))
    sq_s = np.zeros(lead + (n,))
    for idx in target_blocks:
        k, d = idx.shape[:2]
        rows = m[..., idx, :]                        # (..., k, d, d, n): [b, r, s, i]
        blk = np.moveaxis(rows, -1, -3)              # (..., k, n, d, d): blocks of phi(e_i)
        left = blk.reshape(lead + (k, n * d, d))     # their rows, [b, (i, r), t]
        right = blk.swapaxes(-3, -2).reshape(lead + (k, d, n * d))    # columns, [b, t, (j, s)]
        # per i, a slab holds the n blocks of the products and, twice (the
        # images and numpy's copy of the indexed pairs), the blocks of at most
        # width pairs; with anti three arrays of products and three of pairs
        row_blocks = 3 * (n + width) if anti else n + 2 * width
        row_bytes = 16 * math.prod(lead) * k * d * d * row_blocks
        step = max(1, HOM_CHUNK_BYTES // max(1, row_bytes))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            s = hi - lo
            # the listed pairs (i, j) with i in the slab, and their images
            p0, p1 = np.searchsorted(i, (lo, hi))
            si, sj = i[p0:p1] - lo, j[p0:p1]
            want = _pair_images(rows, prod, slice(p0, p1))
            if anti:
                # phi(e_j) phi(e_i) at [b, i, r, j, s]
                flip = (left @ right[..., lo * d:hi * d]).reshape(
                    lead + (k, n, d, s, d)).swapaxes(-4, -2)
                defect = flip.copy()
                defect[..., :, si, :, sj, :] -= want
                sq[..., 1, lo:hi, :] += _sq_norms(defect, "kirjs", "ij")
                # the defect of the pair (j, i), at [b, i, r, j, s], for the Jordan sum
                p0, p1 = np.searchsorted(j_sorted, (lo, hi))
                sel = by_j[p0:p1]
                flip[..., :, j[sel] - lo, :, i[sel], :] -= _pair_images(rows, prod, sel)
            pair = (left[..., lo * d:hi * d, :] @ right).reshape(lead + (k, s, d, n, d))
            pair[..., :, si, :, sj, :] -= want           # the multiplicative defects
            del want
            sq[..., 0, lo:hi, :] += _sq_norms(pair, "kirjs", "ij")
            if anti:
                # the Jordan defect of (i, j) is the sum of the (i, j) and (j, i) ones
                sq[..., 2, lo:hi, :] += _sq_norms(np.add(pair, flip, out=defect), "kirjs", "ij")
        star = rows[..., adj] if adj.dtype.kind == "i" else rows @ adj    # phi(e_i*) at i
        defect = np.moveaxis(star, -1, -3) - blk.conj().swapaxes(-2, -1)
        sq_s += _sq_norms(defect, "kirs", "i")
    worst = np.sqrt(np.max(sq, axis=(-2, -1)))
    res = {"multiplicative": worst[..., 0]}
    if anti:
        res.update(anti_multiplicative=worst[..., 1], jordan=worst[..., 2])
    # for one map, the norm of one vector (a dot product, not a reduction)
    res.update(star_preserving=np.sqrt(np.max(sq_s, axis=-1)),
               unital=np.linalg.norm(m @ unit_s - unit_t, axis=-1 if lead else None))
    return res if lead else {k: float(v) for k, v in res.items()}


def _pair_images(rows: np.ndarray, prod: np.ndarray, sel) -> np.ndarray:
    """phi(e_i e_j) at the listed pairs sel (a slice or indices), as blocks
    (pairs, ..., k, d, d) of one target block size: rows at the product
    indices of a block source, else rows times the multiplication matrix's
    columns."""
    got = rows[..., prod[sel]] if prod.dtype.kind == "i" else rows @ prod[:, sel]
    return np.moveaxis(got, -1, 0)


def _sq_norms(x: np.ndarray, axes: str, out: str) -> np.ndarray:
    """Sums of |x|^2 over the trailing axes (einsum letters) not in out: the
    squared real and imaginary parts of a float view of x, no temporary.  For
    blocks of size 1 the block axis (first in axes) is summed over whole rows."""
    v = np.ascontiguousarray(x).view(np.float64)
    if x.shape[-1] > 1:
        return np.einsum(f"...{axes},...{axes}->...{out}", v, v)
    lead = x.shape[:x.ndim - len(axes)]
    kept = tuple(x.shape[len(lead) + axes.index(c)] for c in out)
    v = v.reshape(lead + (x.shape[len(lead)], 2 * math.prod(kept)))
    return np.einsum("...kc,...kc->...c", v, v).reshape(lead + kept + (2,)).sum(-1)


def _hom_structure(source, target: BlockAlgebra):
    """What hom_residuals reads of its two algebras: the pairs i, j with
    e_i e_j possibly nonzero, listed in order of i, with the order by_j that
    sorts them by j; their products (the k of e_i e_j = e_k in a
    BlockAlgebra, else the multiplication matrix, column p for pair p); the
    source's star (a permutation, else the matrix of coords(e_i*)), both
    units and the target's blocks by size."""
    if isinstance(source, BlockAlgebra):
        return _block_hom_structure(source, target)
    n = source.dim
    i, j = np.divmod(np.arange(n * n), n)
    return ((i, j, np.argsort(j, kind="stable")), source.left_mult.transpose(1, 0, 2).reshape(n, n * n),
            source.star, source.unit, target.unit_coords(), list(target.layout.by_size.values()))


@lru_cache(maxsize=None)
def _block_hom_structure(source: BlockAlgebra, target: BlockAlgebra):
    """_hom_structure of two block algebras, built once per pair: for small
    algebras it costs more than the residuals, and the sampling harnesses
    ask about thousands of maps on one algebra.  unit_products lists the
    pairs in order of i."""
    i, j, k = unit_products(source)
    return ((i, j, np.argsort(j, kind="stable")), k, source.layout.adjoint,
            source.unit_coords(), target.unit_coords(), list(target.layout.by_size.values()))


# ---------------------------------------------------------------------------
# numerical rank and null spaces
# ---------------------------------------------------------------------------

# A singular value counts towards the rank when it exceeds
# RANK_RTOL * max(1, sigma_1).  Across `fqg verify` and `fqg biinner` on the
# bundled algebras up to N = 24, every dropped value sits at or below
# 3.1e-12 * max(1, sigma_1) and every kept one at or above 0.15 * max(1, sigma_1),
# so one fixed constant decides every rank and null-space question; the
# --tol-* options do not move it.
RANK_RTOL = 1e-9


def numerical_rank(mat: np.ndarray) -> tuple[int | np.ndarray, np.ndarray, np.ndarray]:
    """(rank, u, vh) of the thin SVD of mat, or of every matrix in a stack
    along the last two axes (rank is then an integer array)."""
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    rank = np.sum(sv > RANK_RTOL * np.maximum(1.0, sv[..., :1]), axis=-1)
    return (int(rank) if rank.ndim == 0 else rank), u, vh


def null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a real or complex
    matrix, by null_spaces: a tall system goes through its square triangular
    factor, so no m x n U factor is formed.

    Wide matrices are padded with zero rows so that the SVD sees every
    direction of the domain.
    """
    if mat.shape[0] < mat.shape[1]:
        mat = np.vstack([mat, np.zeros((mat.shape[1] - mat.shape[0], mat.shape[1]))])
    rank, vh = null_spaces(mat)
    return vh[rank:].conj().T


def null_spaces(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null spaces of a tall matrix (m, n), m >= n, or of a stack of them
    (..., m, n): (rank, vh) with the null space of matrix i spanned by the
    rows vh[i, rank[i]:] conjugated.  One thin QR per matrix reduces it to
    its n x n triangular factor, which has the same singular values and null
    space, before the SVD (on a 4,608 x 48 system, a tenth of the SVD's
    time)."""
    rank, _, vh = numerical_rank(np.linalg.qr(mats, mode="r"))
    return rank, vh


# ---------------------------------------------------------------------------
# centre
# ---------------------------------------------------------------------------

def centre_basis(a: BlockAlgebra) -> list[AlgebraElement]:
    """Orthonormal basis of {z : [z, e] = 0 for all basis matrix units e}.

    For a block algebra this is spanned by the block identities; computed
    honestly from the commutator system so it doubles as a test oracle.
    """
    n = a.dim
    # rows k*n + i: coords of z e_k - e_k z, linear in z
    null = null_space((right_mult_tensor(a) - left_mult_tensor(a)).reshape(n * n, n))
    return [a.from_coords(null[:, i]) for i in range(null.shape[1])]


# ---------------------------------------------------------------------------
# seeded random elements (shared source for all property tests)
# ---------------------------------------------------------------------------

def random_coords(a: BlockAlgebra, rng: np.random.Generator,
                  count: int | None = None) -> np.ndarray:
    """Coordinates of random_element, or (count, dim) of count of them, from
    one draw that takes the same numbers from rng as the per-block draws
    (real parts of a block, then its imaginary parts, block after block)."""
    lay = a.layout
    z = rng.standard_normal((2 * a.dim,) if count is None else (count, 2 * a.dim))
    return (z[..., lay.draw_real] + 1j * z[..., lay.draw_imag]) / math.sqrt(2)


# random_selfadjoint_invertible gives up after this many consecutive draws
# with smallest singular value at most min_sv
MAX_DRAWS = 64


def random_stacks(a: BlockAlgebra, rng: np.random.Generator, plan: str, count: int,
                  min_sv: float = 1e-3, gate=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Coordinates of count repetitions of the draws named by plan, bitwise as
    the per-sample helpers would take them from rng one after another:
    'e' random_element, 's' random_selfadjoint, 'i'
    random_selfadjoint_invertible(min_sv).  With gate, a predicate on an
    (m, dim) stack of first-role coordinates, a repetition whose first draw
    fails it ends there (the later roles are not drawn).

    Returns one (m, dim) stack per letter of plan and the (count,) mask of
    repetitions that passed the gate.

    Each role takes one draw of 2 * dim normals per attempt.  Draws are taken
    in rounds, each as large as the sequential loop still takes at least: one
    draw per role left (per repetition left, with a gate, plus the rest of a
    repetition already under way), and no more than the rejections left
    before NotInvertible.  A scan over the per-draw acceptances then hands the
    draws to the roles.  So rng ends in the state the per-sample calls leave,
    also when MAX_DRAWS consecutive rejections raise NotInvertible.
    """
    per_rep = 1 if gate is not None else len(plan)
    draws, picks, kept = [], [[] for _ in plan], []
    role = rep = streak = taken = 0
    while rep < count:
        # the rest of the repetition under way, then per_rep for each one after it
        need = (len(plan) - role if role else per_rep) + (count - rep - 1) * per_rep
        raw = random_coords(a, rng, min(need, MAX_DRAWS - streak))
        out = {"e": raw}
        out["s"] = out["i"] = selfadjoint_parts(a, raw)
        draws.append(out)
        ok = (smallest_svs(a, out["i"]) > min_sv).tolist() if "i" in plan else None
        passed = gate(out[plan[0]]).tolist() if gate is not None else None
        for k in range(len(raw)):
            if plan[role] == "i" and not ok[k]:
                streak += 1
                if streak == MAX_DRAWS:
                    raise NotInvertible("failed to sample a well-conditioned "
                                        "self-adjoint element")
                continue
            streak = 0
            picks[role].append(taken + k)
            if role == 0 and gate is not None:
                kept.append(passed[k])
                if not passed[k]:
                    rep += 1
                    continue
            role += 1
            if role == len(plan):
                role, rep = 0, rep + 1
        taken += len(raw)
    stacks = [np.concatenate([out[kind] for out in draws])[idx] for kind, idx in zip(plan, picks)]
    return stacks, np.array(kept) if gate is not None else np.ones(count, bool)


def _random_one(a: BlockAlgebra, rng: np.random.Generator, kind: str,
                min_sv: float = 1e-3) -> AlgebraElement:
    (x,), _ = random_stacks(a, rng, kind, 1, min_sv)
    return a.from_coords(x[0])


def random_element(a: BlockAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return _random_one(a, rng, "e")


def random_selfadjoint(a: BlockAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return _random_one(a, rng, "s")


def random_selfadjoint_invertible(a: BlockAlgebra, rng: np.random.Generator,
                                  min_sv: float = 1e-3) -> AlgebraElement:
    return _random_one(a, rng, "i", min_sv)


def random_positive_invertible(a: BlockAlgebra, rng: np.random.Generator,
                               floor: float = 0.1) -> AlgebraElement:
    x = random_element(a, rng)
    return x * x.adjoint() + floor * a.unit()


def _unitary_factor(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the phases of diag(R) moved into Q (Haar for Gaussian z)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(a: BlockAlgebra, rng: np.random.Generator) -> AlgebraElement:
    """Haar-random unitary, independently per block."""
    return a.from_coords(a.layout.apply(random_coords(a, rng), _unitary_factor))


def random_central_unitary(a: BlockAlgebra, rng: np.random.Generator) -> AlgebraElement:
    phases = np.exp(2j * np.pi * rng.random(a.nblocks))
    return a.from_coords(phases[a.layout.block_of] * a.unit_coords())


# ---------------------------------------------------------------------------
# real-linear solves
# ---------------------------------------------------------------------------

def realify_complex_linear(m: np.ndarray) -> np.ndarray:
    """Realified matrix of w -> M w on stacked [Re w; Im w] coordinates."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def realify_antilinear(b: np.ndarray) -> np.ndarray:
    """Realified matrix of w -> B conj(w).

    + 0.0 clears the -0.0 entries of -Re(B): LAPACK's reflectors read the
    sign bit, so null spaces of matrices built from this one would depend on
    how a zero was reached.
    """
    return np.block([[b.real, b.imag], [b.imag, -b.real]]) + 0.0


def real_vec_to_coords(v: np.ndarray) -> np.ndarray:
    n = len(v) // 2
    return v[:n] + 1j * v[n:]
