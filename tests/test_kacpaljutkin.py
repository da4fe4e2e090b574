import numpy as np

from fqg.hopf import verify_axioms, cocentre_basis
from fqg.io import hopf_to_json, load_bundled_kac_paljutkin
from fqg.kacpaljutkin import build_kac_paljutkin, _generators


def test_builds_and_passes_axioms():
    h = build_kac_paljutkin()
    rep = verify_axioms(h)
    assert rep.passed
    assert rep.max_residual < 1e-12
    assert h.algebra.block_dims == (1, 1, 1, 1, 2)


def test_neither_commutative_nor_cocommutative():
    h = build_kac_paljutkin()
    a = h.algebra.basis_element(4)
    b = h.algebra.basis_element(5)
    assert (a * b - b * a).norm() > 0.5
    assert np.linalg.norm(h.coproduct - h.coproduct[h.flip, :]) > 0.5


def test_haar_weights():
    h = build_kac_paljutkin()
    # tracial Haar state with weights 1/8 on characters and Tr/4 on the
    # 2x2 block, forced by the invariance system
    weights = [h.tau(h.algebra.block_unit(b)) for b in range(5)]
    assert np.allclose(weights, [1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 2])


def test_generator_relations():
    h = build_kac_paljutkin()
    x, y, z = _generators(h.algebra)
    one = h.algebra.unit()
    assert (x * x - one).norm() < 1e-12
    assert (z * z - 0.5 * (one + x + y - x * y)).norm() < 1e-12
    assert (z * x - y * z).norm() < 1e-12
    assert (h.kappa(z) - z).norm() < 1e-12   # antipode solved from the axioms


def test_cocentre_dimension_is_five():
    h = build_kac_paljutkin()
    assert len(cocentre_basis(h)) == 5


def test_bundled_file_matches_fresh_build():
    h = build_kac_paljutkin()
    bundled = load_bundled_kac_paljutkin()
    fresh = hopf_to_json(h)
    assert bundled.algebra.block_dims == h.algebra.block_dims
    assert np.linalg.norm(bundled.coproduct - h.coproduct) < 1e-12
    assert np.linalg.norm(bundled.haar - h.haar) < 1e-12
    assert np.linalg.norm(bundled.antipode - h.antipode) < 1e-12


def test_self_dual_block_structure(kp):
    assert kp.dual.hopf.algebra.block_dims == (1, 1, 1, 1, 2)


def _antipode_loop(h):
    """Oracle: the antipode system m(kappa (x) id)delta = eps(.)1 assembled one
    pair of matrix units at a time, right multiplication by element products."""
    alg, n = h.algebra, h.algebra.dim
    basis = [alg.basis_element(k) for k in range(n)]
    rows, rhs = [], []
    for j in range(n):
        gamma = h.coproduct_kron[:, :, j]
        block_rows = np.zeros((n, n * n), complex)
        for a in range(n):
            for b in range(n):
                if abs(gamma[a, b]) < 1e-15:
                    continue
                lm = np.column_stack([(basis[k] * basis[b]).coords() for k in range(n)])
                block_rows += gamma[a, b] * np.kron(lm, np.eye(n)[a:a + 1])
        rows.append(block_rows)
        rhs.append(h.counit[j] * alg.unit().coords())
    sol, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    return sol.reshape(n, n)


def test_antipode_matches_the_basis_loop():
    h = build_kac_paljutkin()
    assert np.abs(h.antipode - _antipode_loop(h)).max() < 1e-14
