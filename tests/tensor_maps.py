"""Tensor products of coordinate maps and functionals, for test oracles.

The library reads tensors on kron coordinates through tensor_perm; these
helpers form the matrix of a tensor product of maps, or the row of a tensor
product of functionals, on the coordinates of the tensor algebra.
"""

import numpy as np


def tensor_map(m1: np.ndarray, m2: np.ndarray, p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
    """Matrix of L1 (x) L2 on tensor coordinates.

    m1: coords(A)->coords(B), m2: coords(C)->coords(D); p_in = tensor_perm(A, C),
    p_out = tensor_perm(B, D).
    """
    return np.kron(m1, m2)[np.ix_(p_out, p_in)]


def tensor_functional_row(r1: np.ndarray, r2: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Row vector of f (x) g on coords of the tensor algebra."""
    return np.kron(r1, r2)[p_in]
