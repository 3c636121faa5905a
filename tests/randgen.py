"""Seeded random generators shared by the property tests.

Everything is a pure function of the Random instance handed in; tests pin
their own seeds so failures reproduce exactly.
"""

from __future__ import annotations

from finsite.catsite import FinCat, FiniteSpace, poset_category
from finsite.presheaf import (
    SetFunctor,
    constant_set_presheaf,
    discretize,
    representable_set_presheaf,
    validate_set_functor,
)


def random_poset_with_max(rng, n: int):
    """Subset poset on a small ground set, always containing the full set.

    Returns (category, id of the maximum).  n is clamped to the number of
    available subsets so sampling terminates.
    """
    ground = "pqrstu"[: rng.randint(2, 4)]
    n = min(n, 2 ** len(ground))
    subs = {frozenset(ground)}
    while len(subs) < n:
        size = rng.randint(0, len(ground))
        subs.add(frozenset(rng.sample(ground, size)))
    by = {"".join(sorted(s)) or "-": s for s in subs}
    els = list(by)
    cat = poset_category(els, lambda a, b: by[a] <= by[b])
    return cat, max(els, key=lambda e: (len(by[e]), e))


def random_nested_diagram(rng, cat: FinCat, cap: int):
    """Covariant diagram of nested finite sets, as a simplicial diagram.

    Heights are pushed forward until monotone, so inclusions are functorial.
    """
    pool = ["v0", "v1", "v2", "v3"]
    base = {x: rng.randint(0, 2) for x in cat.objects}
    for _ in range(len(cat.objects)):
        for m in cat.morphisms.values():
            if base[m.tgt] < base[m.src]:
                base[m.tgt] = base[m.src]
    values = {x: tuple(pool[: base[x] + 1]) for x in cat.objects}
    action = {m.mid: {v: v for v in values[m.src]} for m in cat.morphisms.values()}
    sd = SetFunctor(cat, values, action, covariant=True)
    assert validate_set_functor(sd).ok
    return discretize(sd, cap)


def random_space(rng, max_opens: int = 12) -> FiniteSpace:
    """Small finite space: random subsets closed up under union/intersection."""
    pts = "wxyz"[: rng.randint(2, 4)]
    while True:
        seeds = [
            frozenset(rng.sample(pts, rng.randint(1, len(pts))))
            for _ in range(rng.randint(1, 3))
        ]
        sets = {frozenset(pts), *seeds}
        while True:
            fresh = set()
            for a in sets:
                for b in sets:
                    for c in (a | b, a & b):
                        if c and c not in sets:
                            fresh.add(c)
            if not fresh:
                break
            sets |= fresh
        if len(sets) <= max_opens:
            return FiniteSpace.build(pts, sets)


def random_joined_space(rng, max_opens: int = 12) -> FiniteSpace:
    """Small finite space whose opens are generated by the minimal opens of a
    random order on three to five points and the unions of the minimal opens
    of incomparable points, closed under union and intersection; a third of
    the spaces also get a point that no open separates from another.  The
    union of U_p and U_q, for p and q incomparable, is covered by the sieve
    the two generate, which is not maximal, so these sites hold many covering
    sieves that random_space rarely makes."""
    while True:
        pts = "vwxyz"[: rng.randint(3, 5)]
        below = {}
        for i, q in enumerate(pts):
            below[q] = {q}.union(*(below[p] for p in pts[:i] if rng.random() < 0.35))
        minimal = [frozenset(below[q]) for q in pts]
        joins = [
            a | b
            for i, a in enumerate(minimal)
            for b in minimal[i + 1 :]
            if not (a <= b or b <= a) and rng.random() < 0.6
        ]
        sets = {frozenset(pts), *minimal, *joins}
        while True:
            fresh = {c for a in sets for b in sets for c in (a | b, a & b) if c and c not in sets}
            if not fresh:
                break
            sets |= fresh
        points = list(pts)
        if rng.random() < 1 / 3:
            # t lies in exactly the opens of its twin: the space is not T0
            twin = rng.choice(pts)
            sets = {o | {"t"} if twin in o else o for o in sets}
            points.append("t")
        if len(sets) <= max_opens:
            return FiniteSpace.build(points, sets)


def disjoint_union_sp(a: SetFunctor, b: SetFunctor) -> SetFunctor:
    """Objectwise disjoint union, tagged left/right."""
    cat = a.category
    values = {
        x: tuple(("l", v) for v in a.values[x]) + tuple(("r", v) for v in b.values[x])
        for x in cat.objects
    }
    action = {}
    for m in cat.morphisms.values():
        # contravariant: values at the target restrict to the source
        act = {("l", v): ("l", a.action[m.mid][v]) for v in a.values[m.tgt]}
        act.update({("r", v): ("r", b.action[m.mid][v]) for v in b.values[m.tgt]})
        action[m.mid] = act
    return SetFunctor(cat, values, action, covariant=False)


def product_sp(a: SetFunctor, b: SetFunctor) -> SetFunctor:
    """Objectwise cartesian product."""
    cat = a.category
    values = {
        x: tuple((u, v) for u in a.values[x] for v in b.values[x]) for x in cat.objects
    }
    action = {}
    for m in cat.morphisms.values():
        action[m.mid] = {
            (u, v): (a.action[m.mid][u], b.action[m.mid][v])
            for u in a.values[m.tgt]
            for v in b.values[m.tgt]
        }
    return SetFunctor(cat, values, action, covariant=False)


def collapse_below(cat: FinCat, top) -> SetFunctor:
    """Two elements at one object, one everywhere else; inclusions collapse."""
    from finsite.gallery import collapse_set_presheaf

    return collapse_set_presheaf(cat, top)


def random_set_presheaf(rng, cat: FinCat, depth: int = 1) -> SetFunctor:
    """Random functorial set presheaf built from closed families."""
    kinds = ["constant", "representable"]
    if depth > 0:
        kinds += ["union", "product"]
    kind = rng.choice(kinds)
    if kind == "constant":
        k = rng.randint(1, 3)
        sp = constant_set_presheaf(cat, [str(i) for i in range(k)])
    elif kind == "representable":
        sp = representable_set_presheaf(cat, rng.choice(list(cat.objects)))
    elif kind == "union":
        sp = disjoint_union_sp(
            random_set_presheaf(rng, cat, depth - 1),
            random_set_presheaf(rng, cat, depth - 1),
        )
    else:
        sp = product_sp(
            random_set_presheaf(rng, cat, depth - 1),
            random_set_presheaf(rng, cat, depth - 1),
        )
    assert validate_set_functor(sp).ok
    return sp


def random_matrix(rng, max_n: int = 8):
    """Rows of a random integer matrix with entries in [-9, 9]."""
    rows = rng.randint(1, max_n)
    cols = rng.randint(1, max_n)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def random_compact_document(rng) -> tuple[dict, list[str]]:
    """A well-formed compact simplicial set document at a cap in 1..5.

    Dimensions 0..3 hold up to three bases each, dimension 0 at least one.
    Each face of a base of dimension k names a lower base under a degeneracy
    word landing in dimension k - 1: a plain name, the word in normal form
    (strictly decreasing), or a word drawn index by index in range, which is
    often not normal.  Returns the document and the kinds of face it declares.
    """
    bases = {n: [f"b{n}{t}" for t in range(rng.randint(0 if n else 1, 3))] for n in range(4)}
    faces: dict[str, dict] = {}
    kinds = []
    for k in range(1, 4):
        for b in bases[k]:
            row = []
            for _ in range(k + 1):
                n = rng.choice([m for m in range(k) if bases[m]])
                of, length = rng.choice(bases[n]), k - 1 - n
                kind = rng.choice(("normal", "drawn") if length else ("name", "normal"))
                if kind == "name":
                    row.append(of)
                elif kind == "normal":
                    word = sorted(rng.sample(range(k - 1), length), reverse=True)
                    row.append({"degeneracy": word, "of": of})
                else:
                    word = []
                    for m in range(n, k - 1):
                        word.insert(0, rng.randint(0, m))
                    row.append({"degeneracy": word, "of": of})
                kinds.append(kind)
            faces.setdefault(str(k), {})[b] = row
    nondeg = {str(n): bs for n, bs in bases.items() if bs}
    return {"dim_cap": rng.randint(1, 5), "nondegenerate": nondeg, "faces": faces}, kinds
