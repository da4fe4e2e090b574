"""The 8-dimensional Kac-Paljutkin quantum group.

Construction from the standard presentation by unitary generators x, y, z with

    x^2 = y^2 = 1,  xy = yx,  zx = yz,  zy = xz,  z^2 = (1 + x + y - xy)/2,
    delta(x) = x (x) x,  delta(y) = y (x) y,
    delta(z) = (1(x)1 + 1(x)x + y(x)1 - y(x)x)/2 * (z (x) z),
    eps(x) = eps(y) = eps(z) = 1.

The generators are realised concretely on C + C + C + C + M_2: the four
characters send (x, y, z) to (1,1,1), (1,1,-1), (-1,-1,i), (-1,-1,-i) and the
2-dimensional block uses x = diag(1,-1), y = -x, z = [[0,1],[1,0]].  The
antipode is solved from the antipode law and the Haar state from the
invariance system, so nothing is copied from the literature unchecked.
"""

from __future__ import annotations

import numpy as np

from .blockalg import BlockAlgebra, right_mult_tensor, tensor_element
from .hopf import HopfAlgebra, compute_haar, kron_coefficients, verify_axioms
from .errors import NotCStarAlgebra

BLOCK_DIMS = (1, 1, 1, 1, 2)


def _generators(alg: BlockAlgebra):
    sx = np.array([[1, 0], [0, -1]], dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    x = alg.element([np.array([[1.0]])] * 2 + [np.array([[-1.0]])] * 2 + [sx])
    y = alg.element([np.array([[1.0]])] * 2 + [np.array([[-1.0]])] * 2 + [-sx])
    z = alg.element([np.array([[1.0]]), np.array([[-1.0]]),
                     np.array([[1j]]), np.array([[-1j]]), flip])
    return x, y, z


def build_kac_paljutkin() -> HopfAlgebra:
    alg = BlockAlgebra(BLOCK_DIMS)
    x, y, z = _generators(alg)
    one = alg.unit()
    words = [one, x, y, x * y, z, x * z, y * z, x * y * z]
    wmat = np.column_stack([w.coords() for w in words])
    winv = np.linalg.inv(wmat)

    # coproduct on generators, extended multiplicatively to the word basis
    dx = tensor_element(x, x)
    dy = tensor_element(y, y)
    omega = 0.5 * (tensor_element(one, one) + tensor_element(one, x)
                   + tensor_element(y, one) - tensor_element(y, x))
    dz = omega * tensor_element(z, z)
    done = tensor_element(one, one)
    dwords = [done, dx, dy, dx * dy, dz, dx * dz, dy * dz, dx * dy * dz]
    n = alg.dim
    coproduct = np.column_stack([d.coords() for d in dwords]) @ winv

    counit = np.ones(n) @ winv  # every generator has counit 1

    # antipode: solve m(kappa (x) id)delta = eps(.)1 as a linear system in
    # kappa, unknown as an N x N matrix (row-major): the rows of e_j read
    # sum_ab gamma[a, b, j] kappa(e_a) e_b, with gamma the kron coefficients of
    # delta and right_mult_tensor[b] the right multiplication by e_b
    gamma = kron_coefficients(alg, coproduct)
    sys = np.einsum('abj,brk->jrka', gamma, right_mult_tensor(alg)).reshape(n * n, n * n)
    target = np.outer(counit, one.coords()).reshape(-1)
    sol, *_ = np.linalg.lstsq(sys, target, rcond=None)
    antipode = sol.reshape(n, n)
    if np.linalg.norm(sys @ sol - target) > 1e-9:
        raise NotCStarAlgebra("antipode system inconsistent")

    haar = compute_haar(alg, coproduct)
    h = HopfAlgebra(alg, coproduct, counit, antipode, haar,
                    name="KacPaljutkin", meta={"kind": "kac_paljutkin"})
    report = verify_axioms(h)
    if not report.passed:
        raise NotCStarAlgebra(f"presentation fails axioms: {report.failing()}")
    return h

