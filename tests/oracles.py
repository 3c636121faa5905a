"""Independent oracles for the property tests.

These recompute results the package already produces, by different
algorithms (fraction-free determinants, determinant divisors, exhaustive
stalk-family search), so agreement between the two routes is evidence and
not circularity.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

from finsite.catsite import FiniteSpace, Site, open_id
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


def snf_violations(a_rows: list[list[int]], res) -> list[str]:
    """Everything the normal form promises, checked with local arithmetic only."""
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
