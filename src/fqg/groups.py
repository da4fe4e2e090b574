"""Finite groups given by Cayley tables.

The identity always has index 0 (the CSV ingestion format requires it and the
built-in constructors guarantee it).
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotAGroup, ParseError

MAX_ORDER = 64


@dataclass(frozen=True)
class Group:
    """Finite group as a validated Cayley table: table[g, h] = g*h."""

    table: tuple[tuple[int, ...], ...]
    name: str = "group"

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        row = self.table[g]
        return row.index(0)

    def conjugacy_classes(self) -> list[list[int]]:
        seen, classes = set(), []
        for g in range(self.order):
            if g in seen:
                continue
            orbit = {self.mul(self.mul(h, g), self.inv(h)) for h in range(self.order)}
            classes.append(sorted(orbit))
            seen |= orbit
        return classes

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[g][h] == self.table[h][g] for g in range(n) for h in range(n))


def _validate(table: list[list[int]], name: str) -> Group:
    n = len(table)
    if n == 0 or n > MAX_ORDER:
        raise NotAGroup(f"order must be in 1..{MAX_ORDER}")
    if any(len(row) != n for row in table):
        raise NotAGroup("each row must be a permutation of 0..n-1")
    t = np.array(table)
    perm = np.arange(n)
    if np.any(np.sort(t, axis=1) != perm):
        raise NotAGroup("each row must be a permutation of 0..n-1")
    if np.any(np.sort(t, axis=0) != perm[:, None]):
        raise NotAGroup("each column must be a permutation of 0..n-1")
    if np.any(t[0] != perm) or np.any(t[:, 0] != perm):
        raise NotAGroup("index 0 must be the identity")
    # T[T][g, h, k] = (gh)k and T[:, T][g, h, k] = g(hk); argwhere lists the
    # failures in the order of a loop over (g, h, k)
    bad = np.argwhere(t[t] != t[:, t])
    if len(bad):
        g, h, k = bad[0].tolist()
        raise NotAGroup(f"associativity fails at ({g},{h},{k})")
    return Group(tuple(tuple(r) for r in table), name)


def cyclic(n: int) -> Group:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _validate(table, f"Z{n}")


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n: elements (r, f) = r^i f^j, encoded i + n*j."""
    if n < 2:
        raise NotAGroup("dihedral requires n >= 2")
    order = 2 * n

    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        # (r^i f^j)(r^k f^l): f r^k = r^{-k} f
        ii = (i + (k if j == 0 else -k)) % n
        return ii + n * ((j + l) % 2)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return _validate(table, f"D{n}")


def symmetric(n: int) -> Group:
    perms = sorted(itertools.permutations(range(n)))
    # reorder so the identity permutation is index 0 (it already sorts first)
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return index[tuple(pa[pb[i]] for i in range(n))]

    order = len(perms)
    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return _validate(table, f"S{n}")


def from_cayley_table(table, name: str = "cayley") -> Group:
    return _validate([list(map(int, row)) for row in table], name)


def from_cayley_csv(path: str, name: str | None = None) -> Group:
    try:
        with open(path, newline="") as fh:
            rows = [[int(c) for c in row if c.strip() != ""] for row in csv.reader(fh)
                    if any(c.strip() for c in row)]
    except (OSError, ValueError) as err:
        raise ParseError(f"cannot read cayley table: {err}") from err
    return _validate(rows, name or "cayley")


def from_permutations(gens: list[list[int]], name: str = "permgroup") -> Group:
    """Group generated by permutations (lists mapping i -> g(i))."""
    if not gens:
        raise NotAGroup("no generators")
    npts = len(gens[0])
    if any(len(g) != npts or sorted(g) != list(range(npts)) for g in gens):
        raise NotAGroup("generators must be permutations of 0..n-1")
    ident = tuple(range(npts))
    elems = {ident}
    frontier = [ident]
    gens_t = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens_t:
                q = tuple(p[g[i]] for i in range(npts))
                if q not in elems:
                    if len(elems) >= MAX_ORDER:
                        raise NotAGroup(f"group order exceeds {MAX_ORDER}")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = [ident] + sorted(p for p in elems if p != ident)
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[tuple(a[b[i]] for i in range(npts))] for b in ordered] for a in ordered]
    return _validate(table, name)


def from_permutation_file(path: str, name: str | None = None) -> Group:
    """One permutation per line, space- or comma-separated images of 0..n-1."""
    try:
        with open(path) as fh:
            gens = []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace(",", " ").split()
                gens.append([int(p) for p in parts])
    except (OSError, ValueError) as err:
        raise ParseError(f"cannot read permutation file: {err}") from err
    return from_permutations(gens, name or "permgroup")


_NAMED = {
    "Z2": lambda: cyclic(2), "Z3": lambda: cyclic(3), "Z4": lambda: cyclic(4),
    "Z5": lambda: cyclic(5), "Z6": lambda: cyclic(6), "Z8": lambda: cyclic(8),
    "S3": lambda: symmetric(3), "S4": lambda: symmetric(4),
    "D3": lambda: dihedral(3), "D4": lambda: dihedral(4), "D5": lambda: dihedral(5),
}


def by_name(spec: str) -> Group:
    """Resolve 'Z4', 'S3', 'D4', 'cyclic:7', 'dihedral:6', 'symmetric:3'."""
    spec = spec.strip()
    if spec in _NAMED:
        return _NAMED[spec]()
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        try:
            n = int(arg)
        except ValueError as err:
            raise ParseError(f"bad group parameter {arg!r}") from err
        if kind == "cyclic":
            return cyclic(n)
        if kind == "dihedral":
            return dihedral(n)
        if kind == "symmetric":
            return symmetric(n)
    raise ParseError(f"unknown group spec {spec!r}")
