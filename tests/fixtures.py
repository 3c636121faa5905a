"""Simplicial sets read and built by identifier, for the tests.

The package addresses a built simplex by its position only.  These helpers
look a simplex up by its identifier instead: face, degeneracy and apply give
d_i, s_i and a map's image of a named simplex, and standard_simplex, product
and disjoint_union build sets from such lookups through tabulate.  A set's
levels are read into tuples, with a {simplex: position} index per level, once
per set (and once per map for apply), so a lookup on a bar realization does
not locate the simplex at a position again on every call.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import combinations_with_replacement
from typing import Callable, Iterable

from finsite.canon import cstr
from finsite.reports import InputError
from finsite.sset import SimplicialMap, SimplicialSet, tabulate

# id(set or map) -> what it is read into, by _of for a set and by apply for a
# map; an entry goes when its set or map does
_READ: dict[int, tuple] = {}


def _keep(x, read: tuple) -> tuple:
    _READ[id(x)] = read
    weakref.finalize(x, _READ.pop, id(x), None)
    return read


def _of(s: SimplicialSet) -> tuple[tuple[tuple, ...], tuple[dict, ...]]:
    """The levels of s as tuples and, per level, {simplex: position}."""
    got = _READ.get(id(s))
    if got is None:
        at = tuple(map(tuple, s.levels))
        got = _keep(s, (at, tuple({z: p for p, z in enumerate(level)} for level in at)))
    return got


def levels(s: SimplicialSet) -> tuple[tuple, ...]:
    """The levels of s as tuples, read once per set."""
    return _of(s)[0]


def face(s: SimplicialSet, k: int, z, i: int):
    """d_i on the k-simplex z of s, 0 <= i <= k, k >= 1."""
    if 1 <= k <= s.dim_cap and 0 <= i <= k:
        at, index = _READ.get(id(s)) or _of(s)
        p = index[k].get(z)
        if p is not None:
            return at[k - 1][s._faces[k][i][p]]
    raise InputError(f"no face d_{i} for {cstr(z)} in dimension {k}")


def degeneracy(s: SimplicialSet, k: int, z, i: int):
    """s_i on the k-simplex z of s, 0 <= i <= k, k < dim_cap."""
    if 0 <= k < s.dim_cap and 0 <= i <= k:
        at, index = _READ.get(id(s)) or _of(s)
        p = index[k].get(z)
        if p is not None:
            return at[k + 1][s._degeneracies[k][i][p]]
    raise InputError(f"no degeneracy s_{i} for {cstr(z)} in dimension {k}")


def formulas(s: SimplicialSet) -> tuple[Callable, Callable]:
    """d_i and s_i of s as the formulas (k, z, i) -> simplex that tabulate takes."""
    return partial(face, s), partial(degeneracy, s)


def apply(m: SimplicialMap, k: int, z):
    """The image under m of the k-simplex z of its source."""
    got = _READ.get(id(m))
    if got is None:
        got = _keep(m, (_of(m.source)[1], _of(m.target)[0]))
    index, at = got
    p = index[k].get(z) if 0 <= k <= m.source.dim_cap else None
    if p is None:
        raise InputError(f"map undefined on {cstr(z)} in dimension {k}")
    return at[k][m.images[k][p]]


def standard_simplex(n: int, dim_cap: int) -> SimplicialSet:
    """Delta^n truncated at dim_cap; k-simplices are weak monotone tuples."""
    if n < 0:
        raise InputError("standard_simplex needs n >= 0")
    levels = [combinations_with_replacement(range(n + 1), k + 1) for k in range(dim_cap + 1)]

    def d(k: int, z: tuple, i: int) -> tuple:
        return z[:i] + z[i + 1 :]

    def s(k: int, z: tuple, i: int) -> tuple:
        return z[: i + 1] + z[i:]

    return tabulate(dim_cap, levels, d, s)


def product(a: SimplicialSet, b: SimplicialSet) -> SimplicialSet:
    """Levelwise product; operators act componentwise."""
    if a.dim_cap != b.dim_cap:
        raise InputError("product requires equal dim_cap")
    cap = a.dim_cap
    levels = [
        [(za, zb) for za in a.simplices(k) for zb in b.simplices(k)]
        for k in range(cap + 1)
    ]

    def d(k: int, z: tuple, i: int) -> tuple:
        return (face(a, k, z[0], i), face(b, k, z[1], i))

    def s(k: int, z: tuple, i: int) -> tuple:
        return (degeneracy(a, k, z[0], i), degeneracy(b, k, z[1], i))

    return tabulate(cap, levels, d, s)


def disjoint_union(parts: Iterable[SimplicialSet]) -> SimplicialSet:
    """Tagged disjoint union; all parts must share one dim_cap."""
    parts = list(parts)
    if not parts:
        raise InputError("disjoint_union needs at least one part")
    cap = parts[0].dim_cap
    if any(p.dim_cap != cap for p in parts):
        raise InputError("disjoint_union requires equal dim_cap")
    levels = [
        [(t, z) for t, p in enumerate(parts) for z in p.simplices(k)]
        for k in range(cap + 1)
    ]

    def d(k: int, z: tuple, i: int) -> tuple:
        t, w = z
        return (t, face(parts[t], k, w, i))

    def s(k: int, z: tuple, i: int) -> tuple:
        t, w = z
        return (t, degeneracy(parts[t], k, w, i))

    return tabulate(cap, levels, d, s)
