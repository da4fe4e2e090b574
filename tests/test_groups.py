import itertools
import re

import numpy as np
import pytest

from fqg.errors import NotAGroup, ParseError
from fqg.groups import (by_name, cyclic, dihedral, from_cayley_csv,
                        from_cayley_table, from_permutations, symmetric)


def test_cyclic_basics():
    g = cyclic(4)
    assert g.order == 4
    assert g.inv(1) == 3
    assert g.is_abelian()


def test_dihedral_order_and_nonabelian():
    g = dihedral(4)
    assert g.order == 8
    assert not g.is_abelian()
    assert len(g.conjugacy_classes()) == 5


def test_symmetric_s3():
    g = symmetric(3)
    assert g.order == 6
    assert len(g.conjugacy_classes()) == 3
    assert not g.is_abelian()


def test_every_element_has_inverse():
    g = dihedral(3)
    for x in range(g.order):
        assert g.mul(x, g.inv(x)) == 0


def test_rejects_non_associative_table():
    # a quasigroup that is not a group
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(NotAGroup):
        from_cayley_table(table)


def _first_nonassociative_triple(table):
    """The former check: the first (g, h, k) in loop order with (gh)k != g(hk)."""
    n = len(table)
    return next(((g, h, k) for g, h, k in itertools.product(range(n), repeat=3)
                 if table[table[g][h]][k] != table[g][table[h][k]]), None)


def test_nonassociative_loop_is_refused_at_the_loops_first_triple():
    # the smallest loop that is not a group: a Latin square of order 5 with
    # identity 0
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    assert all(sorted(row) == list(range(5)) for row in table + [list(c) for c in zip(*table)])
    triple = _first_nonassociative_triple(table)
    assert triple is not None
    message = "associativity fails at ({},{},{})".format(*triple)
    with pytest.raises(NotAGroup, match=re.escape(message)):
        from_cayley_table(table)
    for name in ("S3", "D4", "S4", "cyclic:7"):
        assert _first_nonassociative_triple(by_name(name).table) is None


def test_rejects_identity_not_first():
    table = [[1, 0], [0, 1]]
    with pytest.raises(NotAGroup):
        from_cayley_table(table)


def test_cayley_csv_roundtrip(tmp_path):
    g = cyclic(3)
    path = tmp_path / "z3.csv"
    path.write_text("\n".join(",".join(str(g.mul(a, b)) for b in range(3))
                              for a in range(3)))
    g2 = from_cayley_csv(str(path))
    assert g2.table == g.table


@pytest.mark.parametrize("rows, message", [
    (["0,1,2", "1,2", "2,0,1"], "each row must be a permutation of 0..n-1"),
    (["0,1,2", "1,2,0", "1,0,2"], "each column must be a permutation of 0..n-1"),
])
def test_cayley_csv_refuses_ragged_and_non_latin_tables(tmp_path, rows, message):
    """A ragged table is refused before it becomes an array, and a table
    whose rows are permutations but one of whose columns is not is refused
    by the column check, both with their messages."""
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows))
    with pytest.raises(NotAGroup, match=re.escape(message)):
        from_cayley_csv(str(path))


def test_permutation_generators_s3():
    g = from_permutations([[1, 0, 2], [1, 2, 0]])
    assert g.order == 6
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 2, 3]


def test_by_name_and_parametrised():
    assert by_name("S3").order == 6
    assert by_name("cyclic:7").order == 7
    assert by_name("dihedral:5").order == 10
    with pytest.raises(ParseError):
        by_name("E8")
