"""Independent oracles for the property tests.

These recompute results the package already produces, by different
algorithms (fraction-free determinants, determinant divisors, exhaustive
stalk-family search), so agreement between the two routes is evidence and
not circularity.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from finsite.catsite import FiniteSpace, Site, open_id
from finsite.homology import IntMatrix
from finsite.presheaf import SetFunctor

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


class DenseSNF(NamedTuple):
    """A normal form with dense transforms: U @ A @ V == D."""

    diag: tuple[int, ...]
    rank: int
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix


def densify(res) -> DenseSNF:
    """The package's normal form with its sparse transforms written out: U and
    Vinv are stored as rows, V and Uinv as columns."""

    def from_rows(lines):
        n = len(lines)
        return IntMatrix(n, n, [[line.get(j, 0) for j in range(n)] for line in lines])

    def from_cols(lines):
        n = len(lines)
        return IntMatrix(n, n, [[lines[j].get(i, 0) for j in range(n)] for i in range(n)])

    return DenseSNF(
        res.diag, res.rank, from_rows(res.U), from_cols(res.V), from_cols(res.Uinv),
        from_rows(res.Vinv),
    )


def dense_smith_normal_form(a: IntMatrix) -> DenseSNF:
    """The dense elimination the package's sparse engine reproduces step for
    step: pivot on the smallest (|v|, row, column) entry left, clear its column
    then its row, and add a row that the pivot fails to divide into the pivot
    row.  Every row and column operation updates four dense transforms."""
    rows, cols = a.rows, a.cols
    d = [list(r) for r in a.data]
    U = IntMatrix.identity(rows)
    Uinv = IntMatrix.identity(rows)
    V = IntMatrix.identity(cols)
    Vinv = IntMatrix.identity(cols)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        U.data[i], U.data[j] = U.data[j], U.data[i]
        for r in Uinv.data:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, t):
        # row_i += t * row_j
        ri, rj = d[i], d[j]
        for k in range(cols):
            ri[k] += t * rj[k]
        ui, uj = U.data[i], U.data[j]
        for k in range(rows):
            ui[k] += t * uj[k]
        for r in Uinv.data:
            r[j] -= t * r[i]

    def row_neg(i):
        d[i] = [-v for v in d[i]]
        U.data[i] = [-v for v in U.data[i]]
        for r in Uinv.data:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in V.data:
            r[i], r[j] = r[j], r[i]
        Vinv.data[i], Vinv.data[j] = Vinv.data[j], Vinv.data[i]

    def col_add(j, i, t):
        # col_j += t * col_i
        for r in d:
            r[j] += t * r[i]
        for r in V.data:
            r[j] += t * r[i]
        vi, vj = Vinv.data[i], Vinv.data[j]
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
    if mat_mul(mat_mul(res.U.data, a_rows), res.V.data) != want:
        probs.append("U*A*V != D")
    if abs(bareiss_det(res.U.data)) != 1:
        probs.append("U not unimodular")
    if abs(bareiss_det(res.V.data)) != 1:
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
            prod_ = mat_mul(a.data, b.data)
            if any(any(v for v in row) for row in prod_):
                return False
    return True


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


# -- brute-force sheafification over a finite space -------------------------------


def _opens_by_id(space: FiniteSpace) -> dict[str, frozenset]:
    return {open_id(o): o for o in space.opens}


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
