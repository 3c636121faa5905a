"""Independent oracles and reference routes for the property tests.

These recompute results the package already produces, by different
algorithms (fraction-free determinants, determinant divisors, exhaustive
stalk-family search), so agreement between the two routes is evidence and
not circularity.  Beside them are reference routes that no command runs:
the former identifier-keyed tables and formulas, the order complex built
one open at a time (per_open_order_complex), the tables as a JSON dict
(sset_to_json), homology one degree at a time (homology), and the global
sections of a set presheaf (sections_set), the route through the sieve
category that matching families and descent realizations are checked against
(sieve_category, slice_descent_realization), the representable presheaf as
hom-sets (hom_presheaf), which the maximal sieve replaces, and the covering
sieves of a space site by their definition (union_coverings), which the
site's minimal sieves replace.  The diagonal route of compare is here too:
a map of simplicial presheaves (PresheafMap) and the discrete one a set map
gives (discretize_map), the map of bar realizations a presheaf map induces
(induced_realization_map) and the map it induces on homology
(chain_map_matrix, induced_map), the oracle for compare and realize on the
core of the element poset.  So is the projector stack that criterion 6
checks the paper's projector lemma with: the triples category and its
projector (triples_category, ProjectorData, validate_projector,
projector_image), the matching-sections presheaf on the triples
(sections_presheaf_on_triples), and the two comparison maps
(projector_maps), built, like induced_realization_map, by _block_map from
the realization's one column rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import Callable, NamedTuple

from finsite.canon import ckey, csorted, cstr
from finsite.catsite import (
    FinCat,
    FiniteSpace,
    MappedCat,
    Morphism,
    Sieve,
    Site,
    all_sieves,
    chains,
    full_subcategory,
    maximal_sieve,
    nerve,
    open_id,
    poset_category,
    pullback_sieve,
)
from finsite.homology import (
    ChainComplex,
    Homology,
    HomologyGroup,
    InducedMap,
    IntMatrix,
    _group_at,
    induced_by_chains,
    smith_normal_form,
)
from finsite.presheaf import (
    Functor,
    MorId,
    ObjId,
    SetFunctor,
    SetPresheafMap,
    _families,
    _same,
    _solutions,
    discretize,
    point_functor,
    reindex,
)
from finsite.realization import _column, realize
from finsite.reports import InputError, Report, ValidationError
from finsite.sset import SimplicialMap, SimplicialSet, tabulate

from fixtures import apply, degeneracy, face, formulas

# -- integer matrices ---------------------------------------------------------------


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    assert len(a[0]) == len(b) if a and b else True
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a
    ]


def bareiss_det(rows_: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(rows_)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows_)
    a = [list(r) for r in rows_]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def from_dense(rows: list[list[int]]) -> IntMatrix:
    """The matrix with these dense rows; needs at least one row."""
    return IntMatrix(
        len(rows), len(rows[0]), [{j: v for j, v in enumerate(row) if v} for row in rows]
    )


def dense_rows(a: IntMatrix) -> list[list[int]]:
    """The rows of a written out as plain lists."""
    return [[line.get(j, 0) for j in range(a.cols)] for line in a.sparse]


class DenseSNF(NamedTuple):
    """A normal form with dense transforms, as lists of rows: U @ A @ V == D."""

    diag: tuple[int, ...]
    rank: int
    U: list[list[int]]
    V: list[list[int]]
    Uinv: list[list[int]]
    Vinv: list[list[int]]


def densify(res) -> DenseSNF:
    """The package's normal form with its sparse transforms written out: U and
    Vinv are stored as rows, V and Uinv as columns."""

    def from_rows(lines):
        n = len(lines)
        return [[line.get(j, 0) for j in range(n)] for line in lines]

    def from_cols(lines):
        n = len(lines)
        return [[lines[j].get(i, 0) for j in range(n)] for i in range(n)]

    return DenseSNF(
        res.diag, res.rank, from_rows(res.U), from_cols(res.V), from_cols(res.Uinv),
        from_rows(res.Vinv),
    )


def _dense_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_smith_normal_form(a: IntMatrix) -> DenseSNF:
    """The dense elimination the package's sparse engine reproduces step for
    step: pivot on the smallest (|v|, row, column) entry left, clear its column
    then its row, and add a row that the pivot fails to divide into the pivot
    row.  Every row and column operation updates four dense transforms."""
    rows, cols = a.rows, a.cols
    d = dense_rows(a)
    U = _dense_identity(rows)
    Uinv = _dense_identity(rows)
    V = _dense_identity(cols)
    Vinv = _dense_identity(cols)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, t):
        # row_i += t * row_j
        ri, rj = d[i], d[j]
        for k in range(cols):
            ri[k] += t * rj[k]
        ui, uj = U[i], U[j]
        for k in range(rows):
            ui[k] += t * uj[k]
        for r in Uinv:
            r[j] -= t * r[i]

    def row_neg(i):
        d[i] = [-v for v in d[i]]
        U[i] = [-v for v in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(j, i, t):
        # col_j += t * col_i
        for r in d:
            r[j] += t * r[i]
        for r in V:
            r[j] += t * r[i]
        vi, vj = Vinv[i], Vinv[j]
        for k in range(cols):
            vi[k] -= t * vj[k]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                v = row[j]
                if v != 0:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            piv = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // piv
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // piv
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            piv = d[t][t]
            offender = None
            for i in range(t + 1, rows):
                if any(v % piv for v in d[i][t + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            row_neg(i)
    diag = tuple(d[i][i] for i in range(limit))
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    return DenseSNF(diag, sum(1 for v in diag if v), U, V, Uinv, Vinv)


def snf_violations(a_rows: list[list[int]], res) -> list[str]:
    """Everything the normal form promises, checked with local arithmetic only."""
    res = densify(res)
    rows, cols = len(a_rows), len(a_rows[0])
    probs = []
    want = [
        [res.diag[i] if i == j and i < len(res.diag) else 0 for j in range(cols)]
        for i in range(rows)
    ]
    if mat_mul(mat_mul(res.U, a_rows), res.V) != want:
        probs.append("U*A*V != D")
    if abs(bareiss_det(res.U)) != 1:
        probs.append("U not unimodular")
    if abs(bareiss_det(res.V)) != 1:
        probs.append("V not unimodular")
    diag = list(res.diag)
    if any(v < 0 for v in diag):
        probs.append("negative diagonal entry")
    nz = [v for v in diag if v]
    if diag != nz + [0] * (len(diag) - len(nz)):
        probs.append("zero before a nonzero on the diagonal")
    if any(nz[i + 1] % nz[i] for i in range(len(nz) - 1)):
        probs.append("divisibility chain broken")
    if res.rank != len(nz):
        probs.append("rank disagrees with the diagonal")
    return probs


def determinant_divisor_diagonal(rows_: list[list[int]]) -> list[int]:
    """Invariant factors via gcds of all k x k minors; small matrices only."""
    m, n = len(rows_), len(rows_[0])
    r = min(m, n)
    out = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                sub = [[rows_[i][j] for j in cs] for i in rs]
                g = gcd(g, bareiss_det(sub))
        if g == 0:
            out.extend([0] * (r - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def composite_is_zero(cx) -> bool:
    """d_k . d_{k+1} == 0 for every adjacent pair, with local multiplication."""
    for k in range(len(cx.boundary) - 1):
        a, b = cx.boundary[k], cx.boundary[k + 1]
        if a.cols != b.rows:
            return False
        if a.rows and b.cols:
            prod_ = mat_mul(dense_rows(a), dense_rows(b))
            if any(any(v for v in row) for row in prod_):
                return False
    return True


def homology(cx: ChainComplex, k: int) -> HomologyGroup:
    """Homology of a chain complex in one degree, from the normal form of
    boundary[k] taken afresh: the per-degree reference for sset_homology's
    walk.  Needs the boundary out of level k + 1, so k must stay below the
    top level of the complex."""
    if k < 0:
        raise InputError("degree must be nonnegative")
    if k + 1 >= len(cx.basis):
        raise InputError(f"degree {k} needs level {k + 1}, past the complex top")
    return _group_at(cx, k, smith_normal_form(cx.boundary[k]))[0]


# -- simplicial set tables keyed by identifier --------------------------------------


def sset_to_json(s) -> dict:
    """The tables of s as the dict from_json reads, with the simplex at
    position p of level k named "k_p": the reference for sset.write_tables."""
    names = [[f"{k}_{p}" for p in range(len(level))] for k, level in enumerate(s.levels)]

    def named(t, k: int, near: list[str]) -> dict:
        return {name: [near[q] for q in row] for name, row in zip(names[k], zip(*t))}

    return {
        "dim_cap": s.dim_cap,
        "simplices": {str(k): names[k] for k in range(s.dim_cap + 1)},
        "faces": {str(k): named(s._faces[k], k, names[k - 1]) for k in range(1, s.dim_cap + 1)},
        "degeneracies": {str(k): named(s._degeneracies[k], k, names[k + 1]) for k in range(s.dim_cap)},
    }


class DictSimplicialSet:
    """The former table layout, kept as a reference: levels sorted by plain
    ckey, and d_i and s_i in dicts keyed by (k, simplex, i)."""

    def __init__(self, dim_cap: int, levels, face_fn, deg_fn):
        self.dim_cap = dim_cap
        self.levels = tuple(tuple(sorted(level, key=ckey)) for level in levels)
        self.faces = {
            (k, z, i): face_fn(k, z, i)
            for k in range(1, dim_cap + 1)
            for z in self.levels[k]
            for i in range(k + 1)
        }
        self.degeneracies = {
            (k, z, i): deg_fn(k, z, i)
            for k in range(dim_cap)
            for z in self.levels[k]
            for i in range(k + 1)
        }

    def is_degenerate(self, k: int, z) -> bool:
        return k > 0 and any(
            self.degeneracies[(k - 1, self.faces[(k, z, i)], i)] == z for i in range(k)
        )

    def nondegenerate(self, k: int) -> tuple:
        return tuple(z for z in self.levels[k] if not self.is_degenerate(k, z))

    def to_json(self) -> dict:
        names = {
            (k, z): f"{k}_{i}"
            for k, level in enumerate(self.levels)
            for i, z in enumerate(level)
        }
        return {
            "dim_cap": self.dim_cap,
            "simplices": {
                str(k): [names[(k, z)] for z in level] for k, level in enumerate(self.levels)
            },
            "faces": {
                str(k): {
                    names[(k, z)]: [names[(k - 1, self.faces[(k, z, i)])] for i in range(k + 1)]
                    for z in self.levels[k]
                }
                for k in range(1, self.dim_cap + 1)
            },
            "degeneracies": {
                str(k): {
                    names[(k, z)]: [
                        names[(k + 1, self.degeneracies[(k, z, i)])] for i in range(k + 1)
                    ]
                    for z in self.levels[k]
                }
                for k in range(self.dim_cap)
            },
        }


def table_mismatches(s, ref: DictSimplicialSet) -> list[str]:
    """Every way the package's set s differs from the reference tables."""
    out = []
    if s.dim_cap != ref.dim_cap or s.levels != ref.levels:
        return ["levels differ"]
    for table, op, get in zip((ref.faces, ref.degeneracies), "ds", formulas(s)):
        out += [
            f"{op}_{i} of {z!r} in dimension {k}"
            for (k, z, i), w in table.items()
            if get(k, z, i) != w
        ]
    for k in range(s.dim_cap + 1):
        if tuple(s.levels[k][p] for p in s.nondegenerate(k)) != ref.nondegenerate(k):
            out.append(f"nondegenerate simplices of dimension {k}")
    if sset_to_json(s) != ref.to_json():
        out.append("JSON tables")
    return out


# -- compact documents by degeneracy words ------------------------------------------
# Degenerate simplices are named by their normal form s_{w0} s_{w1} ... base
# with w0 > w1 > ..., reached by the rewrite s_i s_j = s_{j+1} s_i for i <= j.


def _normalize_word(word: list[int]) -> tuple[int, ...]:
    w = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(w) - 1):
            if w[t] <= w[t + 1]:
                w[t], w[t + 1] = w[t + 1] + 1, w[t]
                changed = True
    return tuple(w)


def expand_compact(data: dict):
    """The compact loader that normal-forms degeneracy words by rewriting
    and derives faces through the simplicial identities, kept as the
    reference for sset.from_json on compact documents."""
    try:
        cap = int(data["dim_cap"])
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

    def parse_ref(ref) -> tuple[tuple[int, ...], str]:
        # a well-formed face is a name or {"degeneracy": ints, "of": name}
        if isinstance(ref, str):
            word, base = (), ref
        else:
            word, base = _normalize_word(ref.get("degeneracy", [])), ref["of"]
        if base not in base_dim:
            raise InputError(f"reference to undeclared simplex {base!r}")
        return word, base

    # simplex = (word, base); dimension = len(word) + base dimension
    def s_apply(i: int, z: tuple[tuple[int, ...], str]) -> tuple[tuple[int, ...], str]:
        return (_normalize_word([i, *z[0]]), z[1])

    def d_apply(i: int, z: tuple[tuple[int, ...], str]) -> tuple[tuple[int, ...], str]:
        word, base = z
        if not word:
            k = base_dim[base]
            try:
                ref = declared_faces[k][base][i]
            except (KeyError, IndexError):
                raise InputError(f"missing face d_{i} of {base!r}") from None
            w, b = parse_ref(ref)
            if len(w) + base_dim[b] != k - 1:
                raise InputError(f"face d_{i} of {base!r} has wrong dimension")
            return (w, b)
        j, rest = word[0], (word[1:], base)
        if i < j:
            return s_apply(j - 1, d_apply(i, rest))
        if i in (j, j + 1):
            return rest
        return s_apply(j, d_apply(i - 1, rest))

    levels: list[list] = [[] for _ in range(cap + 1)]
    for k in range(cap + 1):
        for z in nondeg.get(k, []):
            levels[k].append(((), z))
    for k in range(cap):
        seen = set(levels[k + 1])
        for z in levels[k]:
            for i in range(k + 1):
                w = s_apply(i, z)
                if w not in seen:
                    seen.add(w)
                    levels[k + 1].append(w)

    # friendlier ids: nondegenerate keep their names, degenerate get a tag
    def name(z) -> str:
        word, base = z
        if not word:
            return base
        return "s" + ".".join(str(i) for i in word) + ":" + base

    named = {name(z): z for level in levels for z in level}

    def face(k: int, z: str, i: int) -> str:
        return name(d_apply(i, named[z]))

    def deg(k: int, z: str, i: int) -> str:
        return name(s_apply(i, named[z]))

    return tabulate(cap, [[name(z) for z in level] for level in levels], face, deg)


# -- simplicial maps keyed by identifier ---------------------------------------------


class DictSimplicialMap:
    """The former map layout, kept as a reference: a {(k, simplex): image}
    dict between two of the package's simplicial sets, read by identifier."""

    def __init__(self, source, target, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping

    @staticmethod
    def from_function(source, target, fn) -> "DictSimplicialMap":
        return DictSimplicialMap(
            source,
            target,
            {(k, z): fn(k, z) for k in range(source.dim_cap + 1) for z in source.simplices(k)},
        )

    def apply(self, k: int, z):
        return self.mapping[(k, z)]


def dict_validate_map(m: DictSimplicialMap) -> Report:
    """The former validate_map: domain and codomain by identifier, then
    commutation with every d_i and every s_i."""
    src, tgt = m.source, m.target
    for k in range(src.dim_cap + 1):
        for z in src.simplices(k):
            if (k, z) not in m.mapping:
                return Report.failure("map-domain", "map misses a simplex", (k, z))
            w = m.mapping[(k, z)]
            if not tgt.has(k, w):
                return Report.failure("map-codomain", "image not in target", (k, z, w))
    for k in range(1, src.dim_cap + 1):
        for z in src.simplices(k):
            for i in range(k + 1):
                if m.apply(k - 1, face(src, k, z, i)) != face(tgt, k, m.apply(k, z), i):
                    return Report.failure("map-face", f"does not commute with d_{i}", (k, z, i))
    for k in range(src.dim_cap):
        for z in src.simplices(k):
            for i in range(k + 1):
                if m.apply(k + 1, degeneracy(src, k, z, i)) != degeneracy(tgt, k, m.apply(k, z), i):
                    return Report.failure(
                        "map-degeneracy", f"does not commute with s_{i}", (k, z, i)
                    )
    return Report.success()


def pi0_components(s) -> tuple:
    """Path components by search over the edges, read by identifier: each
    component in ckey order, and the components in ckey order."""
    neighbours = {v: set() for v in s.simplices(0)}
    for e in s.simplices(1) if s.dim_cap >= 1 else ():
        a, b = face(s, 1, e, 0), face(s, 1, e, 1)
        neighbours[a].add(b)
        neighbours[b].add(a)
    comps: list[tuple] = []
    seen: set = set()
    for v in neighbours:
        if v not in seen:
            comp, frontier = {v}, [v]
            while frontier:
                for w in neighbours[frontier.pop()] - comp:
                    comp.add(w)
                    frontier.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp, key=ckey)))
    return tuple(sorted(comps, key=ckey))


# -- the bar realization by face formulas -------------------------------------------


def formula_chains(cat, dim_cap: int) -> list[list[tuple]]:
    """The k-chains (start, morphisms, end) for k = 0..dim_cap, listed chain
    by chain: each chain followed by every morphism out of its end."""
    outgoing = {x: [] for x in cat.objects}
    for m in cat.morphisms.values():
        outgoing[m.src].append(m.mid)
    chains = [[(x, (), x) for x in cat.objects]]
    for k in range(1, dim_cap + 1):
        chains.append(
            [(x0, ms + (m,), cat.tgt(m)) for x0, ms, xk in chains[k - 1] for m in outgoing[xk]]
        )
    return chains


def formula_nerve(cat, dim_cap: int):
    """The former nerve, kept as a reference: chains named ("o", x) and
    ("m", *morphisms), sorted by tabulate, with d_i and s_i evaluated by
    formula on identifiers; inner faces compose adjacent morphisms, the outer
    faces drop the first or last object."""
    by_level = formula_chains(cat, dim_cap)
    levels = [[("o", x) for x, _, _ in by_level[0]]]
    levels += [[("m",) + ms for _, ms, _ in level] for level in by_level[1:]]

    def face(k: int, chain, i: int):
        mors = chain[1:]
        if k == 1:
            return ("o", cat.tgt(mors[0])) if i == 0 else ("o", cat.src(mors[0]))
        if i == 0:
            return ("m",) + mors[1:]
        if i == k:
            return ("m",) + mors[:-1]
        return ("m",) + mors[: i - 1] + (cat.compose(mors[i], mors[i - 1]),) + mors[i + 1 :]

    def deg(k: int, chain, i: int):
        if k == 0:
            return ("m", cat.identity(chain[1]))
        mors = chain[1:]
        at = cat.src(mors[i]) if i < k else cat.tgt(mors[-1])
        return ("m",) + mors[:i] + (cat.identity(at),) + mors[i:]

    return tabulate(dim_cap, levels, face, deg)


def formula_realize(cat, f, g, dim_cap: int):
    """The former realize, kept as a reference: bar simplices (start, chain, F
    part, G part) listed chain by chain and sorted by tabulate, with d_i and
    s_i evaluated by formula on identifiers."""
    chains = formula_chains(cat, dim_cap)
    levels = [
        [
            (x0, ms, fs, gs)
            for x0, ms, xk in chains[k]
            for fs in f.values[x0].simplices(k)
            for gs in g.values[xk].simplices(k)
        ]
        for k in range(dim_cap + 1)
    ]
    end = {m.mid: m.tgt for m in cat.morphisms.values()}

    def bar_face(k: int, z: tuple, i: int) -> tuple:
        x0, ms, fs, gs = z
        xk = end[ms[-1]] if ms else x0
        if i == 0:
            fv = apply(f.action[ms[0]], k - 1, face(f.values[x0], k, fs, 0))
            return (end[ms[0]], ms[1:], fv, face(g.values[xk], k, gs, 0))
        if i == k:
            fv = face(f.values[x0], k, fs, k)
            gv = apply(g.action[ms[-1]], k - 1, face(g.values[xk], k, gs, k))
            return (x0, ms[:-1], fv, gv)
        merged = ms[: i - 1] + (cat.compose(ms[i], ms[i - 1]),) + ms[i + 1 :]
        return (x0, merged, face(f.values[x0], k, fs, i), face(g.values[xk], k, gs, i))

    def bar_degeneracy(k: int, z: tuple, i: int) -> tuple:
        x0, ms, fs, gs = z
        xk = end[ms[-1]] if ms else x0
        at = x0 if i == 0 else end[ms[i - 1]]
        ext = ms[:i] + (cat.identity(at),) + ms[i:]
        return (x0, ext, degeneracy(f.values[x0], k, fs, i), degeneracy(g.values[xk], k, gs, i))

    return tabulate(dim_cap, levels, bar_face, bar_degeneracy)


def per_open_order_complex(space: FiniteSpace, dim_cap: int, site: Site) -> Functor:
    """The former order-complex functor, kept as a reference: the value at
    each open U is the nerve of the specialization order on U's points,
    built and sorted on its own, and each inclusion acts by looking every
    chain up by identifier in the bigger nerve."""
    cat = site.category
    by_id = {open_id(o): o for o in space.opens}
    values = {u: nerve(poset_category(by_id[u], space.specialization_leq), dim_cap) for u in cat.objects}
    action = {
        m.mid: SimplicialMap.from_function(values[m.src], values[m.tgt], lambda k, z: z)
        for m in cat.morphisms.values()
    }
    return Functor(cat, dim_cap, values, action, covariant=True)


def functor_mismatches(f: Functor, ref: Functor) -> list[tuple]:
    """Where two functors on one category differ, position by position: per
    value, its levels and every face and degeneracy column; per action, its
    images, level by level."""
    found = []
    for x, v in f.values.items():
        w = ref.values[x]
        found += [(x, "level", k) for k, (a, b) in enumerate(zip(v.levels, w.levels, strict=True)) if tuple(a) != tuple(b)]
        for name, mine, theirs in (("d", v._faces, w._faces), ("s", v._degeneracies, w._degeneracies)):
            found += [
                (x, name, k, i)
                for k, (t, u) in enumerate(zip(mine, theirs, strict=True))
                for i, (a, b) in enumerate(zip(t, u, strict=True))
                if list(a) != list(b)
            ]
    for m, a in f.action.items():
        found += [(m, "image", k) for k, (p, q) in enumerate(zip(a.images, ref.action[m].images, strict=True)) if list(p) != list(q)]
    return found


def push_rule(cat, m):
    """The former rule of the map a presheaf map m induces on realizations:
    the G part moves through m's component at the chain's end."""

    def push(k: int, z: tuple) -> tuple:
        x0, ms, fs, gs = z
        xk = cat.tgt(ms[-1]) if ms else x0
        return (x0, ms, fs, apply(m.components[xk], k, gs))

    return push


def projector_rules(d, g):
    """The former rules of the projector maps a and b, read by identifier: a
    sends the chain through P and pulls the G part back along psi at the
    chain's end; b is the inclusion, every simplex sent to itself."""
    cat = d.category

    def a_rule(k: int, z: tuple) -> tuple:
        x0, ms, fs, gs = z
        xk = cat.tgt(ms[-1]) if ms else x0
        pms = tuple(d.mor_map[m] for m in ms)
        return (d.obj_map[x0], pms, fs, apply(g.action[d.psi[xk]], k, gs))

    return a_rule, lambda k, z: z


# -- projector data and the two comparison maps --------------------------------------


def _block_map(
    f: Functor, chain_map: SimplicialMap, target: SimplicialSet, move: Callable
) -> tuple:
    """Images of a map of realizations, f being the source's F and target
    the target realization: chain_map, a map of chain tables, picks each
    target block, the F column stays, so F must have the value f(x0) at the
    target chain's start, and the G column moves through move(xk), a map of G
    values."""
    images, steps = [], zip(chain_map.source.levels, chain_map.images, target.levels)
    for k, (level, to, there) in enumerate(steps):
        fcols = [range(len(f.values[x0].levels[k])) for x0, _, _ in level]
        gcols = [move(xk).images[k] for _, _, xk in level]
        images.append(_column(there, to, fcols, gcols))
    return tuple(images)


@dataclass(frozen=True)
class ProjectorData:
    """An idempotent endofunctor P with a natural map psi: P -> identity
    restricting to the identity on P's image."""

    category: FinCat
    obj_map: dict[ObjId, ObjId]
    mor_map: dict[MorId, MorId]
    psi: dict[ObjId, MorId]


def validate_projector(d: ProjectorData) -> Report:
    cat = d.category
    for x in cat.objects:
        if x not in d.obj_map or d.obj_map[x] not in cat.objects:
            return Report.failure("projector-objects", "object image missing", (x,))
    for m in cat.morphisms.values():
        pm = d.mor_map.get(m.mid)
        if pm is None or pm not in cat.morphisms:
            return Report.failure("projector-morphisms", "morphism image missing", (m.mid,))
        if cat.src(pm) != d.obj_map[m.src] or cat.tgt(pm) != d.obj_map[m.tgt]:
            return Report.failure("projector-typing", "image endpoints wrong", (m.mid,))
    for x in cat.objects:
        if d.mor_map[cat.identity(x)] != cat.identity(d.obj_map[x]):
            return Report.failure("projector-identity", "identity not preserved", (x,))
    for (g, f), h in cat.composition.items():
        if d.mor_map[h] != cat.compose(d.mor_map[g], d.mor_map[f]):
            return Report.failure("projector-functorial", "composition not preserved", (g, f))
    for x in cat.objects:
        if d.obj_map[d.obj_map[x]] != d.obj_map[x]:
            return Report.failure("projector-idempotent", "P(P(x)) != P(x)", (x,))
    for m in cat.morphisms.values():
        if d.mor_map[d.mor_map[m.mid]] != d.mor_map[m.mid]:
            return Report.failure("projector-idempotent", "P(P(f)) != P(f)", (m.mid,))
    for x in cat.objects:
        px = d.psi.get(x)
        if px is None or px not in cat.morphisms:
            return Report.failure("psi-missing", "no component", (x,))
        if cat.src(px) != d.obj_map[x] or cat.tgt(px) != x:
            return Report.failure("psi-typing", "component endpoints wrong", (x,))
    for m in cat.morphisms.values():
        # naturality: f . psi_src == psi_tgt . P(f)
        lhs = cat.compose(m.mid, d.psi[m.src])
        rhs = cat.compose(d.psi[m.tgt], d.mor_map[m.mid])
        if lhs != rhs:
            return Report.failure("psi-naturality", "square does not commute", (m.mid,))
    for x in cat.objects:
        px = d.obj_map[x]
        if d.psi[px] != cat.identity(px):
            return Report.failure("psi-image", "psi is not the identity on the image", (x,))
    return Report.success()


def projector_image(d: ProjectorData) -> MappedCat:
    """The full subcategory on the image objects: naturality of psi forces P
    to fix every morphism between them, so it coincides with the image of P."""
    return full_subcategory(d.category, [d.obj_map[x] for x in d.category.objects])


def projector_maps(
    d: ProjectorData, f: Functor, g: Functor, dim_cap: int
) -> tuple[SimplicialMap, SimplicialMap]:
    """The comparison maps a: Re_C(P*f, g) -> Re_D(f, g|_D) and its section b.

    a projects the chain through P and pulls the g part back along psi at the
    chain's end; b is induced by the inclusion of the image subcategory.
    a . b is the identity on the nose; b . a is expected to act as the
    identity on homology and pi0, which callers certify separately.
    """
    rep = validate_projector(d)
    if not rep.ok:
        raise ValidationError(f"invalid projector data: {rep.kind}: {rep.detail}")
    cat = d.category
    mapped = projector_image(d)
    sub = mapped.category
    if not _same(f.category, sub):
        raise InputError("diagram must live on the projector's image category")
    if not _same(g.category, cat):
        raise InputError("presheaf must live on the projector's category")
    # f after P: the diagram x -> f(P(x)) on the whole category
    pf, gd = reindex(f, MappedCat(cat, d.obj_map, d.mor_map)), reindex(g, mapped)
    re_c, re_d = realize(cat, pf, g, dim_cap), realize(sub, f, gd, dim_cap)
    ch_c, ch_d = chains(cat, dim_cap), chains(sub, dim_cap)

    # the F column stays: f after P has the value f(P(x0)) at x0, and P fixes
    # the image objects
    through_p = SimplicialMap.from_function(
        ch_c, ch_d, lambda k, c: (d.obj_map[c[0]], tuple(map(d.mor_map.get, c[1])), d.obj_map[c[2]])
    )
    inclusion = SimplicialMap.from_function(ch_d, ch_c, lambda k, c: c)
    ident = {x: SimplicialMap.identity(v) for x, v in gd.values.items()}
    a = _block_map(pf, through_p, re_d, lambda xk: g.action[d.psi[xk]])
    b = _block_map(f, inclusion, re_c, ident.__getitem__)
    return SimplicialMap(re_c, re_d, a), SimplicialMap(re_d, re_c, b)


# -- the category of sieve triples ----------------------------------------------------


def triples_category(site: Site) -> ProjectorData:
    """Category of triples (object x, sieve B on x, member m: y -> x of B),
    with the projector sending a triple to (y, maximal sieve, identity).

    A morphism (x,B,m) -> (x',B',m') is a pair (phi: x -> x', rho: y -> y')
    with B contained in phi^* B' and m' . rho == phi . m.  Desk scale only:
    sieves are enumerated exhaustively per object.
    """
    cat = site.category
    triples: list[tuple] = []
    for x in cat.objects:
        for b in all_sieves(cat, x):
            if not b.members:
                continue
            for m in csorted(b.members):
                triples.append((("tri", x, b.key(), m), x, b, m))
    mors = []
    identities: dict[ObjId, MorId] = {}
    for tid, x, b, m in triples:
        y = cat.src(m)
        for tid2, x2, b2, m2 in triples:
            y2 = cat.src(m2)
            for phi in cat.hom(x, x2):
                if not b.members <= pullback_sieve(cat, phi, b2).members:
                    continue
                for rho in cat.hom(y, y2):
                    if cat.compose(m2, rho) != cat.compose(phi, m):
                        continue
                    mid = ("trim", phi, rho, tid, tid2)
                    mors.append(Morphism(mid, tid, tid2))
                    if tid == tid2 and cat.is_identity(phi) and cat.is_identity(rho):
                        identities[tid] = mid
    composition = {}
    for m1 in mors:
        for m2 in mors:
            if m2.src != m1.tgt:
                continue
            phi = cat.compose(m2.mid[1], m1.mid[1])
            rho = cat.compose(m2.mid[2], m1.mid[2])
            composition[(m2.mid, m1.mid)] = ("trim", phi, rho, m1.src, m2.tgt)
    tcat = FinCat([t[0] for t in triples], mors, identities, composition)
    obj_map = {}
    psi = {}
    for tid, x, b, m in triples:
        y = cat.src(m)
        ptid = ("tri", y, maximal_sieve(cat, y).key(), cat.identity(y))
        obj_map[tid] = ptid
        psi[tid] = ("trim", m, cat.identity(y), ptid, tid)
    mor_map = {}
    for mm in mors:
        _, phi, rho, t1, t2 = mm.mid
        mor_map[mm.mid] = ("trim", rho, rho, obj_map[t1], obj_map[t2])
    return ProjectorData(tcat, obj_map, mor_map, psi)


def sections_presheaf_on_triples(
    site: Site, g: SetFunctor, d: ProjectorData
) -> SetFunctor:
    """Set presheaf on the triples category: the value at (x, B, m) is the
    matching sections of g over B; (phi, rho) acts by precomposing with phi."""
    if not _same(g.category, site.category):
        raise InputError("presheaf must live on the site's category")
    return _families(site, g, d.category, lambda t: Sieve(t[1], frozenset(t[2])), lambda mm: mm[1])


# -- the diagonal route of compare ------------------------------------------------


@dataclass(frozen=True)
class PresheafMap:
    """A map of simplicial presheaves, one component per object.  Its ends
    are contravariant Functors on one category with one cap, and each
    component goes from the source's value to the target's; naturality is not
    checked here."""

    source: Functor
    target: Functor
    components: dict[ObjId, SimplicialMap]

    def __post_init__(self):
        src, tgt = self.source, self.target
        if not all(isinstance(e, Functor) and not e.covariant for e in (src, tgt)):
            raise InputError("a presheaf map needs contravariant functors at both ends")
        if not _same(src.category, tgt.category) or src.dim_cap != tgt.dim_cap:
            raise InputError("a presheaf map needs both ends on one category with one cap")
        if set(self.components) != set(src.category.objects):
            raise InputError("presheaf map components must match the category's objects")
        for x, comp in self.components.items():
            if not (_same(comp.source, src.values[x]) and _same(comp.target, tgt.values[x])):
                raise InputError(f"the component at {cstr(x)} does not go between its values")


def discretize_map(pm: SetPresheafMap, dim_cap: int) -> PresheafMap:
    """The same map between the discrete presheaves of its endpoints."""
    src = discretize(pm.source, dim_cap)
    tgt = discretize(pm.target, dim_cap)
    comps = {}
    for x, comp in pm.components.items():
        comps[x] = SimplicialMap.from_function(
            src.values[x], tgt.values[x], lambda k, v, comp=comp: comp[v]
        )
    return PresheafMap(src, tgt, comps)


def induced_realization_map(f: Functor, m, dim_cap: int) -> SimplicialMap:
    """The map Re(f, m.source) -> Re(f, m.target) acting on the g part only:
    block to block of the same chain, through the component at its end."""
    cat = f.category
    if not _same(m.source.category, cat):
        raise InputError("presheaf map must live on the diagram's base")
    src, tgt = realize(cat, f, m.source, dim_cap), realize(cat, f, m.target, dim_cap)
    ch = chains(cat, dim_cap)
    images = _block_map(f, SimplicialMap.identity(ch), tgt, m.components.__getitem__)
    return SimplicialMap(src, tgt, images)


def chain_map_matrix(m: SimplicialMap, k: int, src_basis, tgt_basis) -> list[dict[int, int]]:
    """Sparse rows, one per target basis position, of the normalized chain
    map in degree k; degenerate images, which tgt_basis omits, drop to 0."""
    row_of, images = {p: i for i, p in enumerate(tgt_basis)}, m.images[k]
    out: list[dict[int, int]] = [{} for _ in tgt_basis]
    for j, p in enumerate(src_basis):
        i = row_of.get(images[p])
        if i is not None:
            out[i][j] = 1
    return out


def induced_map(m: SimplicialMap, hs: Homology, ht: Homology, degree: int) -> InducedMap:
    """The map a simplicial map induces on homology in one degree, in the
    canonical coordinates of the two groups."""
    if m.source is not hs.sset or m.target is not ht.sset:
        if m.source != hs.sset or m.target != ht.sset:
            raise InputError("homology data does not match the map's endpoints")
    cmat = chain_map_matrix(m, degree, hs.complex.basis[degree], ht.complex.basis[degree])
    return induced_by_chains(cmat, hs.group(degree), ht.group(degree))


def realization_to_json(s) -> dict:
    """The former realization renderer, kept as a reference for the streamed
    writer: the simplicial-set JSON plus per-simplex (object, chain, f, g)
    annotations, as one dict for cjson."""
    data = sset_to_json(s)
    text = lru_cache(maxsize=None)(cstr)
    annotations = {}
    for k, level in enumerate(s.levels):
        for p, (x0, ms, fs, gs) in enumerate(level):
            annotations[f"{k}_{p}"] = {
                "object": text(x0),
                "chain": [text(m) for m in ms],
                "f": text(fs),
                "g": text(gs),
            }
    data["annotations"] = annotations
    return data


# -- abelian group bookkeeping ---------------------------------------------------


def prime_powers(summands) -> tuple[int, tuple[int, ...]]:
    """Free rank plus the multiset of prime-power torsion factors."""
    betti = sum(1 for s in summands if s == 0)
    pps = []
    for d in summands:
        if d > 1:
            n = d
            f = 2
            while f * f <= n:
                if n % f == 0:
                    e = 0
                    while n % f == 0:
                        n //= f
                        e += 1
                    pps.append(f**e)
                f += 1
            if n > 1:
                pps.append(n)
    return betti, tuple(sorted(pps))


def direct_sum_matches(sa, sb, s_total) -> bool:
    ba, pa = prime_powers(sa)
    bb, pb = prime_powers(sb)
    bt, pt = prime_powers(s_total)
    return bt == ba + bb and pt == tuple(sorted(pa + pb))


# -- global sections ----------------------------------------------------------------


def sections_set(cat: FinCat, sp: SetFunctor) -> tuple[tuple, ...]:
    """All global sections, each a tuple of (object, value) pairs in canonical
    object order, found by the package's solver for matching families.  A
    section picks s_x with action[f](s_tgt) == s_src."""
    if sp.covariant or (sp.category is not cat and sp.category != cat):
        raise InputError("sections need a set presheaf on the given category")
    pos = {x: i for i, x in enumerate(cat.objects)}
    arrows = [(pos[m.src], sp.action[m.mid], pos[m.tgt]) for m in cat.morphisms.values()]
    return _solutions(list(cat.objects), [sp.values[x] for x in cat.objects], arrows)


# -- the slice category over a sieve -------------------------------------------------


def sieve_category(cat: FinCat, s: Sieve) -> MappedCat:
    """Full subcategory of the slice cat/base on the sieve's members: objects
    are the members, morphisms are the triangles between them."""
    members = csorted(s.members)
    mors = []
    obj_to_base = {f: cat.src(f) for f in members}
    mor_to_base = {}
    for f in members:
        for g in members:
            for h in cat.hom(cat.src(f), cat.src(g)):
                if cat.compose(g, h) == f:
                    mid = ("t", h, f, g)
                    mors.append(Morphism(mid, f, g))
                    mor_to_base[mid] = h
    identities = {f: ("t", cat.identity(cat.src(f)), f, f) for f in members}
    composition = {}
    for m1 in mors:
        for m2 in mors:
            if m1.tgt == m2.src:
                h = cat.compose(mor_to_base[m2.mid], mor_to_base[m1.mid])
                composition[(m2.mid, m1.mid)] = ("t", h, m1.src, m2.tgt)
    return MappedCat(FinCat(members, mors, identities, composition), obj_to_base, mor_to_base)


def slice_descent_realization(site: Site, f: Functor, s: Sieve, cap: int):
    """The former descent realization, kept as a reference: f reindexed onto
    the sieve category of s, realized against the terminal presheaf there.
    The sieve category is the category of elements of s, so this is
    isomorphic to Re(f, s)."""
    mapped = sieve_category(site.category, s)
    terminal = point_functor(mapped.category, cap, covariant=False)
    return realize(mapped.category, reindex(f, mapped), terminal, cap)


def hom_presheaf(cat: FinCat, z) -> SetFunctor:
    """The former representable presheaf, kept as a reference: hom(x, z) at
    each x, acting by precomposition."""
    values = {x: cat.hom(x, z) for x in cat.objects}
    action = {}
    for m in cat.morphisms.values():
        action[m.mid] = {h: cat.compose(h, m.mid) for h in values[m.tgt]}
    return SetFunctor(cat, values, action, covariant=False)


# -- brute-force sheafification over a finite space -------------------------------


def _opens_by_id(space: FiniteSpace) -> dict[str, frozenset]:
    return {open_id(o): o for o in space.opens}


def union_coverings(space: FiniteSpace, cat: FinCat) -> dict[str, tuple]:
    """The covering sieves of the space's site by saturation: every sieve on
    each open U whose members' opens union to U, in all_sieves order."""
    by_id = _opens_by_id(space)
    return {
        uid: tuple(
            s
            for s in all_sieves(cat, uid)
            if frozenset().union(*(by_id[cat.src(f)] for f in s.members)) == by_id[uid]
        )
        for uid in cat.objects
    }


def stalk_family_sheaf(space: FiniteSpace, site: Site, sp: SetFunctor) -> SetFunctor:
    """Sheafification by exhaustive search: a section over U is one value per
    point, drawn from the stalk (the value at the point's minimal open), such
    that every specialization relation is respected."""
    cat = site.category
    by_id = _opens_by_id(space)
    min_id = {p: open_id(space.minimal_open(p)) for p in space.points}

    def incl(vid: str, uid: str) -> str:
        ms = cat.hom(vid, uid)
        assert len(ms) == 1
        return ms[0]

    values = {}
    for uid in cat.objects:
        upts = sorted(by_id[uid])
        families = []
        for choice in product(*(sp.values[min_id[p]] for p in upts)):
            fam = dict(zip(upts, choice))
            ok = True
            for p in upts:
                up = space.minimal_open(p)
                for q in up:
                    moved = sp.action[incl(min_id[q], min_id[p])][fam[p]]
                    if fam[q] != moved:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                families.append(tuple((p, fam[p]) for p in upts))
        values[uid] = tuple(families)
    action = {}
    for m in cat.morphisms.values():
        vpts = sorted(by_id[m.src])
        action[m.mid] = {
            fam: tuple((p, v) for p, v in fam if p in set(vpts)) for fam in values[m.tgt]
        }
    return SetFunctor(cat, values, action, covariant=False)


def stalk_family_unit(space: FiniteSpace, site: Site, sp: SetFunctor) -> dict:
    """Per object: each plain section's stalk family of restrictions."""
    cat = site.category
    by_id = _opens_by_id(space)
    min_id = {p: open_id(space.minimal_open(p)) for p in space.points}
    out = {}
    for uid in cat.objects:
        upts = sorted(by_id[uid])
        comp = {}
        for s in sp.values[uid]:
            comp[s] = tuple(
                (p, sp.action[cat.hom(min_id[p], uid)[0]][s]) for p in upts
            )
        out[uid] = comp
    return out


def germs(space: FiniteSpace, site: Site, g0: SetFunctor, t, uid: str):
    """Stalk family of a twice-plus section, asserting choice independence.

    t is a tuple of (member, section) pairs whose sections are themselves
    (member, value) pairs; only the raw tables of g0 and the poset structure
    are consulted.
    """
    cat = site.category
    by_id = _opens_by_id(space)
    out = []
    for p in sorted(by_id[uid]):
        up_id = open_id(space.minimal_open(p))
        seen = set()
        for m, s1 in t:
            if p not in by_id[cat.src(m)]:
                continue
            for m2, v in s1:
                wid = cat.src(m2)
                if p not in by_id[wid]:
                    continue
                incl = cat.hom(up_id, wid)
                assert len(incl) == 1
                seen.add(g0.action[incl[0]][v])
        assert len(seen) == 1, f"incompatible germs at {p}: {seen}"
        out.append((p, seen.pop()))
    return tuple(out)
