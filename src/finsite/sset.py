"""Dimension-capped simplicial sets with face/degeneracy tables by position.

A simplicial set here is a finite family of simplex identifiers per dimension
0..dim_cap together with total face maps d_i (dimensions 1..dim_cap) and
degeneracy maps s_i (dimensions 0..dim_cap-1).  All simplices are
materialized, degenerate ones included.  By the Eilenberg-Zilber lemma every
simplex is s_J(b) for exactly one nondegenerate b and one monotone surjection
J, so a simplex is degenerate exactly when it is an s_i image, and
nondegenerate reads that off the s_i table alone.

Storage is by position.  Each level lists its simplices once, in canonical
order.  d_i and s_i of level k are k + 1 int array columns, one per operator:
entry p of column i is the position in the adjacent level of op_i of the
simplex at p.  Builders fill a table one operator column at a time, and
readers index t[i][p].  nondegenerate lists positions too, and a built
simplex has no other address than its position.  The {simplex: position}
index of the levels is derived only where a formula names simplices by
identifier: in tabulate, in SimplicialMap.from_function, and in has, which
from_json needs.  tabulate builds a set from formulas: it sorts each level,
evaluates the formulas once per simplex through that index, and refuses an
image outside its level.  The bar realization (realization.realize) computes
every position inside a block from tables already in range, so it needs
neither the sort, the check nor the index.  A map between two sets is stored
the same way: per level, an int array of the target position of each source
simplex's image, like one operator's column.  SimplicialMap.from_function
evaluates a formula once per simplex and refuses an image outside the target.
pi0 answers by position too: each component is the tuple of its vertex
positions in level 0.

Identifiers are opaque: strings for user data, nested tuples for constructed
simplices (chains of a category, bar simplices).  Serialization names
the simplex at position p of level k "k_p", so internal tuple ids never leak
into output.  write_tables writes the tables in the form from_json reads back,
as canonical JSON text straight from the position tables, keys in sorted
order, each level in bounded pieces of simplices, so neither a dict of the
tables nor a level's text is built.  A piece of rows is one % format, filled
from the columns of the table, and the only per-position memory it adds is
json_layout's orders, each level's positions in the string order of their
names, found by a walk of the decimal digits.
from_json accepts one spelling of a level key, the one str(k) gives.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property
from itertools import chain, combinations, compress, islice
from math import comb
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from finsite.canon import ckey, csorted, cstr
from finsite.reports import InputError, Report, ValidationError

SimplexId = Any  # str | nested tuple of str/int

# Per level k, k + 1 array("i") columns: entry p of column i is op_i of simplex p.
Table = tuple[array, ...]
# A formula (k, z, i) -> d_i z or s_i z for a k-simplex z.
Op = Callable[[int, SimplexId, int], SimplexId]


class SimplicialSet:
    """Immutable-by-convention simplicial set truncated at dim_cap.

    levels[k] holds the k-simplices in canonical order, as any read-only
    sequence addressed by position: a tuple, or a bar level that computes
    the simplex at p (realization._BarLevel); simplices(k) gives it as a
    tuple.  _faces[k][i][p] is the position in level k-1 of d_i of the
    simplex at p of level k, and _degeneracies[k][i][p] the position in
    level k+1 of s_i; _faces[0] has no columns, and _degeneracies covers
    levels 0..dim_cap-1 only.
    Every constructor keeps each position in its level: tabulate checks each
    image, realize and catsite.chains compute each one inside the level.
    """

    def __init__(
        self,
        dim_cap: int,
        levels: tuple[Sequence[SimplexId], ...],
        faces: tuple[Table, ...],
        degeneracies: tuple[Table, ...],
    ):
        self.dim_cap = dim_cap
        self.levels = levels
        self._faces = faces
        self._degeneracies = degeneracies
        self._nondeg_cache: dict[int, tuple[int, ...]] = {}

    @cached_property
    def _index(self) -> tuple[dict[SimplexId, int], ...]:
        """Per level, {simplex: position}; derived on the first lookup by id."""
        return tuple({z: p for p, z in enumerate(level)} for level in self.levels)

    # -- basic access ------------------------------------------------------

    def _level(self, k: int) -> Sequence[SimplexId]:
        if not 0 <= k <= self.dim_cap:
            raise InputError(f"dimension {k} outside 0..{self.dim_cap}")
        return self.levels[k]

    def simplices(self, k: int) -> tuple[SimplexId, ...]:
        return tuple(self._level(k))

    def has(self, k: int, z: SimplexId) -> bool:
        return 0 <= k <= self.dim_cap and z in self._index[k]

    def nondegenerate(self, k: int) -> tuple[int, ...]:
        """Positions in level k of the nondegenerate k-simplices, ascending:
        those that no entry of the s_i columns of level k-1 hits, kept as a
        bytearray of one byte a position that each hit clears."""
        if k not in self._nondeg_cache:
            n = len(self._level(k))
            free = bytearray(b"\1") * n
            for q in chain.from_iterable(self._degeneracies[k - 1] if k else ()):
                free[q] = 0
            self._nondeg_cache[k] = tuple(compress(range(n), free))
        return self._nondeg_cache[k]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def nondegenerate_counts(self) -> tuple[int, ...]:
        return tuple(len(self.nondegenerate(k)) for k in range(self.dim_cap + 1))

    def __repr__(self) -> str:
        return f"SimplicialSet(dim_cap={self.dim_cap}, counts={self.counts()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialSet)
            and self.dim_cap == other.dim_cap
            and self.levels == other.levels
            and self._faces == other._faces
            and self._degeneracies == other._degeneracies
        )


def _refusal(kind: str, detail: str, witness: tuple) -> ValidationError:
    """A ValidationError carrying the report validate_sset would give."""
    return ValidationError(
        f"{kind}: {detail} at {cstr(witness)}", Report.failure(kind, detail, witness)
    )


def _positions(
    fn: Op, k: int, level: tuple[SimplexId, ...], target: dict[SimplexId, int], kind: str, op: str
) -> Table:
    """fn(k, z, i) for i = 0..k on every z of the level, as the k + 1
    columns of their positions in the target level.  The formulas run simplex
    by simplex, so a refusal names the first bad simplex in level order."""
    ops = range(k + 1)
    try:
        flat = array("i", [target[fn(k, z, i)] for z in level for i in ops])
    except KeyError:
        for z in level:
            for i in ops:
                if fn(k, z, i) not in target:
                    raise _refusal(
                        f"{kind}-codomain", f"{op}_{i} lands outside", (k, z, i)
                    ) from None
        raise
    return tuple(flat[i :: k + 1] for i in ops)


def tabulate(
    dim_cap: int, levels: Iterable[Iterable[SimplexId]], face_fn: Op, deg_fn: Op
) -> SimplicialSet:
    """Materialize a simplicial set from formulas for d_i and s_i.

    Each level is sorted into canonical order once; every face of levels
    1..dim_cap is then evaluated, and after them every degeneracy of levels
    0..dim_cap-1.  A level with a duplicate, or an image outside its level,
    raises a ValidationError naming the level or the simplex.
    """
    if dim_cap < 0:
        raise InputError("dim_cap must be nonnegative")
    ordered = tuple(tuple(csorted(level)) for level in levels)
    if len(ordered) != dim_cap + 1:
        raise InputError(f"expected {dim_cap + 1} levels, got {len(ordered)}")
    s = SimplicialSet(dim_cap, ordered, (), ())  # tables filled in below
    index = s._index
    for k, (level, at) in enumerate(zip(ordered, index)):
        if len(at) != len(level):
            raise _refusal("duplicate-simplex", "level has duplicates", (k,))
    s._faces = ((),) + tuple(
        _positions(face_fn, k, ordered[k], index[k - 1], "face", "d") for k in range(1, dim_cap + 1)
    )
    s._degeneracies = tuple(
        _positions(deg_fn, k, ordered[k], index[k + 1], "degeneracy", "s") for k in range(dim_cap)
    )
    return s


# -- constant sets -----------------------------------------------------------


def discrete_sset(elements: Iterable[str], dim_cap: int) -> SimplicialSet:
    """Constant simplicial set on a finite set: every operator is identity."""
    elements = list(elements)
    levels = [list(elements) for _ in range(dim_cap + 1)]

    def same(k: int, z: SimplexId, i: int) -> SimplexId:
        return z

    return tabulate(dim_cap, levels, same, same)


def point_sset(dim_cap: int) -> SimplicialSet:
    return discrete_sset(["pt"], dim_cap)


# -- maps --------------------------------------------------------------------


class SimplicialMap:
    """Levelwise map of simplicial sets, stored by position.

    images[k], an array("i"), holds at p the position in the target's level
    k of the image of the simplex at position p of the source's level k.
    Build one with from_function, identity or compose: from_function refuses
    an image outside the target, so every map is total and in range.  Whether it
    commutes with d_i and s_i is validate_map's question.
    """

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        images: tuple[array, ...],
    ):
        if source.dim_cap != target.dim_cap:
            raise InputError("map requires equal dim_cap")
        self.source = source
        self.target = target
        self.images = images

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialMap)
            and self.images == other.images
            and self.source == other.source
            and self.target == other.target
        )

    @staticmethod
    def identity(s: SimplicialSet) -> "SimplicialMap":
        return SimplicialMap(s, s, tuple(array("i", range(len(level))) for level in s.levels))

    @staticmethod
    def from_function(
        source: SimplicialSet,
        target: SimplicialSet,
        fn: Callable[[int, SimplexId], SimplexId],
    ) -> "SimplicialMap":
        """The map z -> fn(k, z); an image that is not a simplex of the
        target raises a ValidationError whose report kind is map-codomain."""
        images = []
        for k, (level, at) in enumerate(zip(source.levels, target._index)):
            row = array("i")
            for z in level:
                w = fn(k, z)
                q = at.get(w)
                if q is None:
                    raise _refusal("map-codomain", "image not in target", (k, z, w))
                row.append(q)
            images.append(row)
        return SimplicialMap(source, target, tuple(images))

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise InputError("composition mismatch")
        images = tuple(
            array("i", map(mine.__getitem__, theirs)) for mine, theirs in zip(self.images, other.images)
        )
        return SimplicialMap(other.source, self.target, images)


def validate_map(m: SimplicialMap) -> Report:
    """Check that m commutes with every d_i and s_i.

    Domain and codomain need no check: from_function, identity and compose
    build total maps whose positions all lie in the target's levels.
    """
    src, images, cap = m.source, m.images, m.source.dim_cap
    for kind, op, step, ks, src_ops, tgt_ops in (
        ("map-face", "d", -1, range(1, cap + 1), src._faces, m.target._faces),
        ("map-degeneracy", "s", 1, range(cap), src._degeneracies, m.target._degeneracies),
    ):
        for k in ks:
            near, here, ops_of_image = images[k + step], images[k], tgt_ops[k]
            for p, ops in enumerate(zip(*src_ops[k])):
                for i, q in enumerate(ops):
                    # m(op_i z) == op_i(m z)
                    if near[q] != ops_of_image[i][here[p]]:
                        return Report.failure(
                            kind, f"does not commute with {op}_{i}", (k, src.levels[k][p], i)
                        )
    return Report.success()


# -- pi0 ---------------------------------------------------------------------


def components(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph on 0..n-1 with these edges, by
    union-find: each lists its vertices in increasing order, and they come
    out ordered by first vertex."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    classes: dict[int, list[int]] = {}
    for p in range(n):
        classes.setdefault(find(p), []).append(p)
    return tuple(tuple(ps) for ps in classes.values())


def pi0(s: SimplicialSet) -> tuple[tuple[int, ...], ...]:
    """Connected components as tuples of level-0 positions, by union-find
    over the edges."""
    return components(len(s.levels[0]), zip(*s._faces[1]) if s.dim_cap >= 1 else ())


# -- validation ----------------------------------------------------------------


def validate_sset(s: SimplicialSet) -> Report:
    """Check every simplicial identity in range.

    Domains and codomains need no check here: tabulate, realize and chains
    build total tables whose positions all lie in their levels.  Nor is there
    a degeneracy rule to check: nondegenerate takes the s_i images to be the
    degenerate simplices, whatever the tables, and once d_j s_j == id holds,
    as checked here, every image z = s_j w also has s_j(d_j z) == z.
    """
    levels, faces, degs = s.levels, s._faces, s._degeneracies
    for k in range(2, s.dim_cap + 1):
        below = faces[k - 1]
        for p, fz in enumerate(zip(*faces[k])):
            for j in range(1, k + 1):
                for i in range(j):
                    # d_i d_j = d_{j-1} d_i
                    if below[i][fz[j]] != below[j - 1][fz[i]]:
                        return Report.failure(
                            "identity-dd",
                            f"d_{i} d_{j} != d_{j-1} d_{i}",
                            (k, levels[k][p], i, j),
                        )
    for k in range(s.dim_cap - 1):
        above = degs[k + 1]
        for p, sz in enumerate(zip(*degs[k])):
            for j in range(k + 1):
                for i in range(j + 1):
                    # s_i s_j = s_{j+1} s_i for i <= j
                    if above[i][sz[j]] != above[j + 1][sz[i]]:
                        return Report.failure(
                            "identity-ss",
                            f"s_{i} s_{j} != s_{j+1} s_{i}",
                            (k, levels[k][p], i, j),
                        )
    for k in range(s.dim_cap):
        up, down = faces[k + 1], faces[k]
        for p, sz in enumerate(zip(*degs[k])):
            for j, q in enumerate(sz):
                for i in range(k + 2):
                    if i == j or i == j + 1:
                        want = p
                    elif i < j:
                        want = degs[k - 1][j - 1][down[i][p]]
                    else:
                        want = degs[k - 1][j][down[i - 1][p]]
                    if up[i][q] != want:
                        return Report.failure(
                            "identity-ds", f"d_{i} s_{j} mismatch", (k, levels[k][p], i, j)
                        )
    return Report.success()


# -- serialization -------------------------------------------------------------


def _string_order(n: int) -> array:
    """0..n-1 as an array("i") in the order of their decimal strings, "10"
    before "2": 0, then each of 1..9 and the numbers under it in the decimal
    trie, depth first.  A node whose children have none of their own puts
    them out as one run."""
    order = array("i", range(min(n, 1)))
    stack = list(range(min(n, 10) - 1, 0, -1))
    while stack:
        p = stack.pop()
        order.append(p)
        first = p * 10
        if first < n:
            last = min(first + 10, n)
            if first * 10 >= n:
                order.extend(range(first, last))
            else:
                stack.extend(range(last - 1, first - 1, -1))
    return order


def json_layout(s: SimplicialSet) -> list[array]:
    """Per level, its positions, an array("i"), in the order sorted keys
    take: the JSON name of p in level k is '"k_' + str(p) + '"', and names
    sort as their digits do, "k_10" before "k_2" and "k_1" before "k_10",
    because the closing quote sorts before any digit."""
    return [_string_order(len(level)) for level in s.levels]


# a piece of text is held three times at once: as a list of entries, joined and encoded
_PIECE = 256


def _write_pieces(write: Callable, entries: Iterable[str]) -> None:
    """Writes the entries, none of them empty, comma-separated and _PIECE at
    a time, so a writer holds one piece of a level's text, never the level."""
    entries, seam = iter(entries), False
    while piece := ",".join(islice(entries, _PIECE)):
        if seam:
            write(",")
        write(piece)
        seam = True


def _write_rows(write: Callable, row: str, order: Sequence[int], cols: Sequence[Sequence[int]]) -> None:
    """Writes row % (p, cols[0][p], ..., cols[-1][p]) for each p of order,
    comma-separated: each piece of _PIECE rows is one % format of the row
    joined _PIECE times, filled with one flat tuple."""
    full = ",".join([row] * _PIECE)
    for start in range(0, len(order), _PIECE):
        ps = order[start : start + _PIECE]
        if len(ps) == 1:  # itemgetter of one index gives the entry, not a tuple
            values = (ps[0], *(col[ps[0]] for col in cols))
        else:
            values = tuple(chain.from_iterable(zip(ps, *map(itemgetter(*ps), cols))))
        text = full if len(ps) == _PIECE else ",".join([row] * len(ps))
        if start:
            write(",")
        write(text % values)


def write_tables(s: SimplicialSet, orders: list[array], write: Callable[[str], Any]) -> None:
    """Writes the tables of s as canonical JSON in the full form from_json
    reads, the simplex at position p of level k named "k_p": the members from
    "degeneracies" to "simplices", without the braces around them, straight
    from the position tables; orders come from json_layout.  Each level's
    rows and names go out in pieces of _PIECE simplices, so beside the orders
    the text held at once is one piece, and a row's entries are read off the
    table's columns, never copied."""
    # the level keys sort as strings too: "10" comes before "2"
    by_str = sorted(range(s.dim_cap + 1), key=str)

    def table(key: str, ops: tuple[Table, ...], step: int, ks: list[int]) -> None:
        write(f'"{key}":{{')
        for n, k in enumerate(ks):
            cols, j = ops[k], k + step
            write(("," if n else "") + f'"{k}":{{')
            row = f'"{k}_%d":[' + ",".join([f'"{j}_%d"'] * len(cols)) + "]"
            _write_rows(write, row, orders[k], cols)
            write("}")
        write("}")

    table("degeneracies", s._degeneracies, 1, [k for k in by_str if k < s.dim_cap])
    write(f',"dim_cap":{s.dim_cap},')
    table("faces", s._faces, -1, [k for k in by_str if k > 0])
    write(',"simplices":{')
    for n, k in enumerate(by_str):
        write(("," if n else "") + f'"{k}":[')
        _write_rows(write, f'"{k}_%d"', range(len(s.levels[k])), ())
        write("]")
    write("}")


def _named_table(raw: dict) -> dict[tuple[int, SimplexId, int], SimplexId]:
    table = {}
    for k_str, rows in raw.items():
        k = int(k_str)
        for z, imgs in rows.items():
            for i, w in enumerate(imgs):
                table[(k, z, i)] = w
    return table


def _check_shape(data: dict) -> None:
    """from_json's one check of shape: dim_cap is an integer, simplex
    identifiers are strings, levels and operator tables are objects of lists
    keyed by level, and the compact form's degeneracy words are lists of ints."""
    # not int(...) of it: "2", true and 2.9 would be read as 2, 1 and 2
    cap = data.get("dim_cap")
    if type(cap) is not int:
        raise InputError(f"bad simplicial set JSON: dim_cap {json.dumps(cap)} is not an integer")
    compact = "nondegenerate" in data

    def lists(table, ok) -> bool:
        return isinstance(table, dict) and all(
            isinstance(row, list) and all(map(ok, row)) for row in table.values()
        )

    def image(ref) -> bool:
        if not (compact and isinstance(ref, dict)):
            return isinstance(ref, str)
        word = ref.get("degeneracy", [])
        return isinstance(ref.get("of"), str) and isinstance(word, list) and all(
            type(i) is int for i in word
        )

    levels = data.get("nondegenerate" if compact else "simplices", {})
    ops = ("faces",) if compact else ("faces", "degeneracies")
    tables = [data.get(op, {}) for op in ops]
    if not lists(levels, lambda z: isinstance(z, str)) or not all(
        isinstance(t, dict) and all(lists(rows, image) for rows in t.values()) for t in tables
    ):
        raise InputError(
            "bad simplicial set JSON: identifiers must be strings, tables objects of lists"
            " and degeneracy words lists of ints"
        )
    # one spelling per level, the one str(k) gives, so no two keys name one level
    for key in chain(levels, *tables):
        if not (isinstance(key, str) and key.isdecimal() and key == str(int(key))):
            raise InputError(f"bad simplicial set JSON: level key {key!r} is not 0, 1, 2, ...")


# The most face and degeneracy columns, plus entries in them, that one
# document may ask tabulate to build.  The realization that realize writes for
# the interval cover at --dim-cap 5 needs about 394,000.
_TABLE_BUDGET = 4_000_000


def _check_budget(data: dict) -> None:
    """Refuses, before anything is built, a document whose tables would
    exceed _TABLE_BUDGET: level k has k + 1 face columns for k >= 1 and k + 1
    degeneracy columns below the cap, each with one entry per k-simplex.
    Level sizes are those listed, or in the compact form the binomial sizes
    of the expansion."""
    cap = data["dim_cap"]
    cost = cap * cap + 2 * cap  # the columns alone
    if cost <= _TABLE_BUDGET:
        compact = "nondegenerate" in data
        levels = data.get("nondegenerate" if compact else "simplices", {})
        counts = {int(k): len(zs) for k, zs in levels.items()}
        for k in range(cap + 1):
            size = sum(c * comb(k, n) for n, c in counts.items()) if compact else counts.get(k, 0)
            cost += (k + 1) * size * ((k > 0) + (k < cap))
    if cost > _TABLE_BUDGET:
        raise InputError(
            f"dim_cap {cap} needs tables of more than {_TABLE_BUDGET} columns and entries"
        )


def from_json(data: dict) -> SimplicialSet:
    """Load either the full table form or the compact generator form.

    A document whose tables would exceed _TABLE_BUDGET is an InputError.
    Tables that are not total maps between the listed levels raise a
    ValidationError whose report names the first defect.
    """
    if not isinstance(data, dict):
        raise InputError("simplicial set JSON must be an object")
    _check_shape(data)
    _check_budget(data)
    if "nondegenerate" in data:
        return _expand_compact(data)
    try:
        cap = data["dim_cap"]
        levels = [list(data["simplices"].get(str(k), [])) for k in range(cap + 1)]
        faces = _named_table(data.get("faces", {}))
        degeneracies = _named_table(data.get("degeneracies", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad simplicial set JSON: {exc}") from exc

    def lookup(table: dict, kind: str, op: str):
        def image(k: int, z: SimplexId, i: int) -> SimplexId:
            try:
                return table[(k, z, i)]
            except KeyError:
                raise _refusal(f"{kind}-missing", f"{op}_{i} missing", (k, z)) from None

        return image

    s = tabulate(
        cap, levels, lookup(faces, "face", "d"), lookup(degeneracies, "degeneracy", "s")
    )
    for table, kind, lo, hi in (
        (faces, "face", 1, cap),
        (degeneracies, "degeneracy", 0, cap - 1),
    ):
        stray = {
            key
            for key in table
            if not (lo <= key[0] <= hi and s.has(key[0], key[1]) and 0 <= key[2] <= key[0])
        }
        if stray:
            raise _refusal(
                f"{kind}-domain",
                f"{kind} table has stray entries",
                (min(stray, key=ckey),),
            )
    return s


# Compact form: nondegenerate simplices plus their faces.  By the
# Eilenberg-Zilber lemma a k-simplex is s_J(b) for exactly one declared b of
# dimension n <= k and one nondecreasing J = (J(0), ..., J(k)) onto 0..n,
# held as the pair (J, b).  s_i repeats entry i of J; d_i drops it, and pushes
# b's declared face d_j along the rest when j = J(i) occurred only there.  b
# keeps its name; s_J(b) is named "s", the positions i with J(i) == J(i+1),
# largest first and joined by ".", then ":" and b.  A declared face may be
# degenerate, {"degeneracy": [indices], "of": base_id}, indices right to left.


def _expand_compact(data: dict) -> SimplicialSet:
    try:
        cap = data["dim_cap"]
        nondeg = {
            int(k): list(v) for k, v in data["nondegenerate"].items()
        }
        declared_faces = {
            int(k): dict(v) for k, v in data.get("faces", {}).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad compact simplicial set JSON: {exc}") from exc

    base_dim: dict[str, int] = {}
    for k, zs in nondeg.items():
        for z in zs:
            if z in base_dim:
                raise InputError(f"duplicate nondegenerate id {z!r}")
            base_dim[z] = k
    # every declared entry must be read: faces of declared simplices only, k + 1
    # of them for a k-simplex with k >= 1, and no table of the full form
    for key in ("degeneracies", "simplices"):
        if key in data:
            raise InputError(f"compact simplicial set JSON has a {key!r} table it never reads")
    for k, rows in declared_faces.items():
        for z, refs in rows.items():
            if base_dim.get(z) != k:
                raise InputError(f"faces given for {z!r}, which is not a declared {k}-simplex")
            want = k + 1 if k else 0
            if len(refs) != want:
                raise InputError(f"{k}-simplex {z!r} has {len(refs)} faces, not {want}")

    def s_apply(i: int, z: tuple[tuple[int, ...], str]) -> tuple[tuple[int, ...], str]:
        J, base = z
        return (J[: i + 1] + J[i:], base)

    def degenerate(word: Sequence[int], base: str) -> tuple[tuple[int, ...], str]:
        """s_{w0} s_{w1} ... base, the indices acting right to left."""
        if base not in base_dim:
            raise InputError(f"reference to undeclared simplex {base!r}")
        z = (tuple(range(base_dim[base] + 1)), base)
        for i in reversed(word):
            if not 0 <= i < len(z[0]):
                raise InputError(f"degeneracy index {i} outside 0..{len(z[0]) - 1} on {base!r}")
            z = s_apply(i, z)
        return z

    def d_apply(i: int, z: tuple[tuple[int, ...], str]) -> tuple[tuple[int, ...], str]:
        J, base = z
        j, rest = J[i], J[:i] + J[i + 1 :]
        if j in rest:
            return (rest, base)
        try:
            ref = declared_faces[base_dim[base]][base][j]
        except (KeyError, IndexError):
            raise InputError(f"missing face d_{j} of {base!r}") from None
        # _check_shape let through only names and {"degeneracy": ints, "of": name}
        word, of = ([], ref) if isinstance(ref, str) else (ref.get("degeneracy", []), ref["of"])
        rho, of = degenerate(word, of)
        if len(rho) != base_dim[base]:
            raise InputError(f"face d_{j} of {base!r} has wrong dimension")
        return (tuple(rho[v - (v > j)] for v in rest), of)

    # level k holds s_w(b) for each strictly decreasing word w of length k - dim b
    levels = [
        [
            degenerate(word, base)
            for n in range(k + 1)
            for base in nondeg.get(n, [])
            for word in combinations(range(k - 1, -1, -1), k - n)
        ]
        for k in range(cap + 1)
    ]

    def name(z) -> str:
        J, base = z
        repeats = [str(i) for i in reversed(range(len(J) - 1)) if J[i] == J[i + 1]]
        return "s" + ".".join(repeats) + ":" + base if repeats else base

    named = {name(z): z for level in levels for z in level}

    def by_name(op: Callable) -> Op:
        return lambda k, z, i: name(op(i, named[z]))

    names = [[name(z) for z in level] for level in levels]
    return tabulate(cap, names, by_name(d_apply), by_name(s_apply))
