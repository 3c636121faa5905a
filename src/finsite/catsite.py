"""Finite categories, sieves, Grothendieck topologies, and finite spaces.

A FinCat stores objects, morphisms, identities, and a total composition table
on composable pairs.  chains gives its nerve by position, built once per cap
and kept on the category: the one place where faces and degeneracies act on
chains, read by nerve, by the bar realization and by the maps between
realizations.  A site pairs a category with one minimal covering sieve per
object: on a finite site a sieve covers exactly when it contains that one,
and the list of covering sieves is derived from it when read.  A sieve is
its set of members, a subpresheaf of hom(-, base) (presheaf.sieve_presheaf),
and no slice category is built: a category built over another is a full
subcategory.  Everything is small enough to enumerate, and every collection
is kept canonically sorted.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate
from typing import Any, Callable, Iterable

from finsite.canon import ckey, csorted, cstr
from finsite.reports import InputError, Report, ValidationError
from finsite.sset import SimplicialSet, tabulate

ObjId = Any
MorId = Any


class Morphism:
    __slots__ = ("mid", "src", "tgt")

    def __init__(self, mid: MorId, src: ObjId, tgt: ObjId):
        self.mid, self.src, self.tgt = mid, src, tgt

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mid, self.src, self.tgt) == (other.mid, other.src, other.tgt)

    def __hash__(self) -> int:
        return hash((self.mid, self.src, self.tgt))


class FinCat:
    def __init__(
        self,
        objects: Iterable[ObjId],
        morphisms: Iterable[Morphism],
        identities: dict[ObjId, MorId],
        composition: dict[tuple[MorId, MorId], MorId],
    ):
        self.objects: tuple[ObjId, ...] = tuple(csorted(objects))
        self.morphisms: dict[MorId, Morphism] = {
            m.mid: m for m in sorted(morphisms, key=lambda m: ckey(m.mid))
        }
        self.identities = dict(identities)
        self.composition = dict(composition)
        self._into: dict[ObjId, tuple[MorId, ...]] = {}
        self._chains: dict[int, SimplicialSet] = {}
        for x in self.objects:
            self._into[x] = tuple(
                m.mid for m in self.morphisms.values() if m.tgt == x
            )

    def src(self, mid: MorId) -> ObjId:
        return self.morphisms[mid].src

    def tgt(self, mid: MorId) -> ObjId:
        return self.morphisms[mid].tgt

    def identity(self, x: ObjId) -> MorId:
        try:
            return self.identities[x]
        except KeyError:
            raise InputError(f"no identity for object {cstr(x)}") from None

    def is_identity(self, mid: MorId) -> bool:
        return self.identities.get(self.morphisms[mid].src) == mid

    def compose(self, g: MorId, f: MorId) -> MorId:
        """g after f; defined when tgt(f) == src(g)."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise InputError(
                f"composition undefined for ({cstr(g)}, {cstr(f)})"
            ) from None

    def hom_into(self, x: ObjId) -> tuple[MorId, ...]:
        return self._into.get(x, ())

    def hom(self, a: ObjId, b: ObjId) -> tuple[MorId, ...]:
        return tuple(m for m in self.hom_into(b) if self.src(m) == a)

    def __repr__(self) -> str:
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FinCat)
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identities == other.identities
            and self.composition == other.composition
        )


def validate_category(cat: FinCat) -> Report:
    """Identity, associativity, and typing of the composition table."""
    for m in cat.morphisms.values():
        if m.src not in cat._into or m.tgt not in cat._into:
            return Report.failure("morphism-endpoints", "endpoint not an object", (m.mid,))
    for x in cat.objects:
        if x not in cat.identities:
            return Report.failure("identity-missing", "object lacks identity", (x,))
        i = cat.identities[x]
        if i not in cat.morphisms:
            return Report.failure("identity-missing", "identity not a morphism", (x,))
        if cat.src(i) != x or cat.tgt(i) != x:
            return Report.failure("identity-typing", "identity has wrong endpoints", (x,))
    composable = {
        (g.mid, f.mid)
        for f in cat.morphisms.values()
        for g in cat.morphisms.values()
        if f.tgt == g.src
    }
    table = set(cat.composition)
    if table != composable:
        missing = composable - table
        extra = table - composable
        witness = min(missing or extra, key=ckey)
        kind = "composition-missing" if missing else "composition-extra"
        return Report.failure(kind, "composition table domain mismatch", (witness,))
    for (g, f), h in cat.composition.items():
        if h not in cat.morphisms:
            return Report.failure("composition-codomain", "composite not a morphism", (g, f))
        if cat.src(h) != cat.src(f) or cat.tgt(h) != cat.tgt(g):
            return Report.failure("composition-typing", "composite has wrong endpoints", (g, f))
    for m in cat.morphisms.values():
        if cat.compose(cat.identity(m.tgt), m.mid) != m.mid:
            return Report.failure("identity-law", "id . f != f", (m.mid,))
        if cat.compose(m.mid, cat.identity(m.src)) != m.mid:
            return Report.failure("identity-law", "f . id != f", (m.mid,))
    mors = list(cat.morphisms.values())
    for f in mors:
        for g in mors:
            if g.src != f.tgt:
                continue
            gf = cat.compose(g.mid, f.mid)
            for h in mors:
                if h.src != g.tgt:
                    continue
                if cat.compose(h.mid, gf) != cat.compose(
                    cat.compose(h.mid, g.mid), f.mid
                ):
                    return Report.failure(
                        "associativity", "h.(g.f) != (h.g).f", (h.mid, g.mid, f.mid)
                    )
    return Report.success()


def poset_category(
    elements: Iterable[ObjId], leq: Callable[[ObjId, ObjId], bool]
) -> FinCat:
    """Thin category of a finite poset; morphism ids are 'src<=tgt' strings."""
    elements = list(csorted(elements))

    def mid(a, b) -> str:
        return f"{cstr(a)}<={cstr(b)}"

    mors = []
    for a in elements:
        for b in elements:
            if leq(a, b):
                mors.append(Morphism(mid(a, b), a, b))
    identities = {a: mid(a, a) for a in elements}
    composition = {}
    for f in mors:
        for g in mors:
            if f.tgt == g.src:
                composition[(g.mid, f.mid)] = mid(f.src, g.tgt)
    return FinCat(elements, mors, identities, composition)


def chains(cat: FinCat, dim_cap: int) -> SimplicialSet:
    """The nerve by position, built once per cap and kept on the category:
    level k lists the k-chains (start, morphisms, end), identities allowed as
    steps, in (start, morphisms) order under ckey.  The children of a chain,
    one per morphism out of its end, are consecutive, and each k-chain is its
    parent d_k followed by its last morphism m: d_i (i < k-1) and s_i (i < k)
    are those of the parent followed by m, d_{k-1} is the grandparent followed
    by m after the parent's last morphism, and s_k appends an identity."""
    if dim_cap in cat._chains:
        return cat._chains[dim_cap]
    mors = list(cat.morphisms.values())
    at = {m.mid: j for j, m in enumerate(mors)}
    obj = {x: n for n, x in enumerate(cat.objects)}
    out = [[j for j, m in enumerate(mors) if m.src == x] for x in cat.objects]
    # the chain q followed by m_j sits at first[q] + rank[j] in the next level
    rank = [out[obj[m.src]].index(j) for j, m in enumerate(mors)]
    tgt = [obj[m.tgt] for m in mors]
    comp = {(at[g], at[f]): at[h] for (g, f), h in cat.composition.items()}
    ident = [rank[at[cat.identity(x)]] for x in cat.objects]
    # steps: each chain's parent and last morphism; ends: its end object
    levels, steps, ends = [tuple((x, (), x) for x in cat.objects)], [], list(range(len(obj)))
    faces, degeneracies, prev = [()], [], []
    for k in range(dim_cap):
        first = list(accumulate((len(out[e]) for e in ends), initial=0))
        below = degeneracies[k - 1] if k else ()
        cols = [array("i", [first[col[q]] + rank[j] for q, j in steps]) for col in below]
        cols.append(array("i", [first[p] + ident[e] for p, e in enumerate(ends)]))
        degeneracies.append(tuple(cols))
        new = [(q, j) for q, e in enumerate(ends) for j in out[e]]
        ch = levels[k]
        levels.append(tuple([(ch[q][0], ch[q][1] + (mors[j].mid,), mors[j].tgt) for q, j in new]))
        cols = [array("i", [prev[col[q]] + rank[j] for q, j in new]) for col in faces[k][:k]]
        # d_k (k > 0) is q's parent steps[q][0] followed by m after q's last morphism
        last = [tgt[j] if not k else prev[steps[q][0]] + rank[comp[j, steps[q][1]]] for q, j in new]
        faces.append((*cols, array("i", last), array("i", [q for q, _ in new])))
        steps, ends, prev = new, [tgt[j] for _, j in new], first
    cat._chains[dim_cap] = SimplicialSet(dim_cap, tuple(levels), tuple(faces), tuple(degeneracies))
    return cat._chains[dim_cap]


def nerve(cat: FinCat, dim_cap: int) -> SimplicialSet:
    """Nerve truncated at dim_cap: the chain table with each 0-chain named
    ("o", x) and each k-chain ("m", *morphisms), sorted by tabulate."""
    ch = chains(cat, dim_cap)
    names = [[("o", x) for x, _, _ in ch.levels[0]]]
    names += [[("m",) + ms for _, ms, _ in level] for level in ch.levels[1:]]
    at = [dict(zip(level, range(len(level)))) for level in names]
    return tabulate(
        dim_cap,
        names,
        lambda k, z, i: names[k - 1][ch._faces[k][i][at[k][z]]],
        lambda k, z, i: names[k + 1][ch._degeneracies[k][i][at[k][z]]],
    )


def has_final_object(cat: FinCat) -> ObjId | None:
    """First object (canonical order) receiving exactly one morphism from each."""
    for u in cat.objects:
        if all(len(cat.hom(a, u)) == 1 for a in cat.objects):
            return u
    return None


# -- sieves ---------------------------------------------------------------


class MappedCat:
    """A category built over another, with the projection to the base.

    Objects project to base objects, morphisms to base morphisms.
    """

    __slots__ = ("category", "obj_to_base", "mor_to_base")

    def __init__(self, category: FinCat, obj_to_base: dict[ObjId, ObjId], mor_to_base: dict[MorId, MorId]):
        self.category, self.obj_to_base, self.mor_to_base = category, obj_to_base, mor_to_base


def full_subcategory(cat: FinCat, objects: Iterable[ObjId]) -> MappedCat:
    """The full subcategory on the given objects; identifiers are unchanged."""
    keep = set(objects)
    objs = csorted(keep)
    mors = [m for m in cat.morphisms.values() if m.src in keep and m.tgt in keep]
    mids = {m.mid for m in mors}
    composition = {(g, f): h for (g, f), h in cat.composition.items() if g in mids and f in mids}
    sub = FinCat(objs, mors, {x: cat.identity(x) for x in objs}, composition)
    return MappedCat(sub, {x: x for x in objs}, {m: m for m in sub.morphisms})


class Sieve:
    """A precomposition-closed set of morphisms into base."""

    __slots__ = ("base", "members")

    def __init__(self, base: ObjId, members: frozenset[MorId]):
        self.base, self.members = base, members

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.members) == (other.base, other.members)

    def __hash__(self) -> int:
        return hash((self.base, self.members))

    def key(self) -> tuple:
        return tuple(csorted(self.members))


def generate_sieve(cat: FinCat, x: ObjId, generators: Iterable[MorId]) -> Sieve:
    """Smallest sieve on x containing the generators: every f.g for f a
    generator and g into src(f), closed already, as composition is
    associative and unital."""
    generators = list(generators)
    for f in generators:
        if cat.tgt(f) != x:
            raise InputError(f"generator {cstr(f)} does not land in {cstr(x)}")
    return Sieve(x, frozenset(cat.compose(f, g) for f in generators for g in cat.hom_into(cat.src(f))))


def maximal_sieve(cat: FinCat, x: ObjId) -> Sieve:
    return Sieve(x, frozenset(cat.hom_into(x)))


def is_sieve(cat: FinCat, s: Sieve) -> bool:
    """A fixpoint of generate_sieve: closed under precomposition."""
    return all(cat.tgt(f) == s.base for f in s.members) and generate_sieve(cat, s.base, s.members) == s


def pullback_sieve(cat: FinCat, f: MorId, s: Sieve) -> Sieve:
    """f^* s = {g into src(f) : f . g in s}; always a sieve."""
    if cat.tgt(f) != s.base:
        raise InputError("pullback morphism must land in the sieve base")
    y = cat.src(f)
    return Sieve(y, frozenset(g for g in cat.hom_into(y) if cat.compose(f, g) in s.members))


_SIEVE_ENUM_LIMIT = 18


def _fan_in(cat: FinCat, x: ObjId) -> tuple[MorId, ...]:
    """hom(-, x), refused when it is too large for its sieves to be listed."""
    into = cat.hom_into(x)
    if len(into) > _SIEVE_ENUM_LIMIT:
        raise InputError(f"cannot enumerate sieves: {len(into)} morphisms into {cstr(x)}")
    return into


def _sieve_masks(cat: FinCat, x: ObjId) -> tuple[tuple[MorId, ...], list[int]]:
    """hom(-, x) and every sieve on x, as a bitmask over that tuple: brute
    force over all subsets, so desk scale only, under _fan_in's limit."""
    into = _fan_in(cat, x)
    index = {f: i for i, f in enumerate(into)}
    # choosing f forces the sieve it generates; a mask is a sieve when it is
    # its own closure, the closure of its lowest bit and of the rest
    need = [sum(1 << index[g] for g in generate_sieve(cat, x, [f]).members) for f in into]
    closure = [0] * (1 << len(into))
    for mask in range(1, 1 << len(into)):
        low = mask & -mask
        closure[mask] = closure[mask ^ low] | need[low.bit_length() - 1]
    return into, [mask for mask, c in enumerate(closure) if c == mask]


def all_sieves(cat: FinCat, x: ObjId, containing: frozenset = frozenset()) -> tuple[Sieve, ...]:
    """Every sieve on x that contains the given morphisms, in canonical order."""
    into, masks = _sieve_masks(cat, x)
    held = sum(1 << i for i, f in enumerate(into) if f in containing)
    kept = [mask for mask in masks if mask & held == held]
    sieves = [Sieve(x, frozenset(f for i, f in enumerate(into) if mask >> i & 1)) for mask in kept]
    return tuple(sorted(sieves, key=lambda s: ckey(s.key())))


# -- sites -----------------------------------------------------------------------


class Site:
    """Category plus one minimal covering sieve per object.  Finite
    intersections of covering sieves cover, and a sieve containing a covering
    one covers, so a sieve covers exactly when it contains the intersection
    of them all (SGA 4, Exp. II): that is all a finite site stores."""

    def __init__(self, category: FinCat, minimal: dict[ObjId, Sieve]):
        if set(minimal) != set(category.objects):
            raise InputError("a site needs one minimal covering sieve per object")
        self.category = category
        self.minimal = {x: minimal[x] for x in category.objects}

    def is_covering(self, s: Sieve) -> bool:
        return s.base in self.minimal and self.minimal[s.base].members <= s.members

    def minimal_covering_sieve(self, x: ObjId) -> Sieve:
        return self.minimal[x]

    @cached_property
    def coverings(self) -> dict[ObjId, tuple[Sieve, ...]]:
        """Every covering sieve per object, in canonical order; listed on
        first read, under the fan-in limit of all_sieves."""
        return {x: all_sieves(self.category, x, s.members) for x, s in self.minimal.items()}


def validate_site(site: Site) -> Report:
    """The axioms of a Grothendieck topology, on the minimal sieves: each is a
    sieve on its object, f^* smin(x) contains smin(src f), and a sieve t on x
    covers when f^* t covers for every f in smin(x).  A covering sieve
    contains smin(x) and pullback is monotone, so these hold for every
    covering sieve once they hold for the minimal ones."""
    cat = site.category
    rep = validate_category(cat)
    if not rep.ok:
        return rep
    for x, s in site.minimal.items():
        if s.base != x:
            return Report.failure("covering-base", "sieve stored under wrong object", (x,))
        if not is_sieve(cat, s):
            return Report.failure("covering-not-sieve", "stored covering is not a sieve", (x, s.key()))
    for x, s in site.minimal.items():
        for f in cat.hom_into(x):
            if not site.is_covering(pullback_sieve(cat, f, s)):
                return Report.failure("stability", "pullback of covering sieve not covering", (x, f))
    # transitivity (local character), exhaustively over all sieves
    for x, s in site.minimal.items():
        for t in all_sieves(cat, x):
            if not site.is_covering(t) and all(
                site.is_covering(pullback_sieve(cat, g, t)) for g in s.members
            ):
                detail = "locally covering sieve is not covering"
                return Report.failure("transitivity", detail, (x, t.key()))
    return Report.success()


# -- finite topological spaces -----------------------------------------------------


def open_id(points: Iterable[str]) -> str:
    return "{" + ",".join(sorted(frozenset(points))) + "}"


class FiniteSpace:
    """Finite topological space: points plus its nonempty open sets.

    The empty set is implicit; the whole point set must be open.
    """

    __slots__ = ("points", "opens")

    def __init__(self, points: tuple[str, ...], opens: tuple[frozenset, ...]):
        self.points, self.opens = points, opens

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.opens) == (other.points, other.opens)

    def __hash__(self) -> int:
        return hash((self.points, self.opens))

    @staticmethod
    def build(points: Iterable[str], opens: Iterable[Iterable[str]]) -> "FiniteSpace":
        pts = tuple(sorted(set(points)))
        sets = {frozenset(o) for o in opens}
        sets.discard(frozenset())
        return FiniteSpace(pts, tuple(sorted(sets, key=lambda o: (len(o), open_id(o)))))

    def minimal_open(self, p: str) -> frozenset:
        """Intersection of all opens containing p; open in a finite space."""
        around = [o for o in self.opens if p in o]
        if not around:
            raise ValidationError(f"point {p} lies in no open set")
        return frozenset.intersection(*around)

    def specialization_leq(self, p: str, q: str) -> bool:
        """p <= q iff p lies in every open containing q."""
        return p in self.minimal_open(q)


def validate_space(space: FiniteSpace) -> Report:
    pts = frozenset(space.points)
    for o in space.opens:
        if not o <= pts:
            return Report.failure("open-points", "open set uses unknown points", (open_id(o),))
        if not o:
            return Report.failure("open-empty", "empty set must stay implicit", ())
    if pts not in space.opens:
        return Report.failure("whole-missing", "whole point set is not open", ())
    open_set = set(space.opens)
    for a in space.opens:
        for b in space.opens:
            if a | b not in open_set:
                return Report.failure("union", "opens not closed under union", (open_id(a), open_id(b)))
            meet = a & b
            if meet and meet not in open_set:
                return Report.failure(
                    "intersection", "opens not closed under intersection", (open_id(a), open_id(b))
                )
    return Report.success()


def site_from_finite_space(space: FiniteSpace) -> Site:
    """Poset of nonempty opens; a sieve covers U iff its members union to U,
    that is, iff it holds U_p <= U for each point p of U, where U_p is the
    minimal open around p.  Those inclusions generate the minimal covering
    sieve.  The covering sieves must stay listable: the whole space has the
    most opens below it, so an oversized space is refused there first."""
    validate_space(space).raise_if_failed()
    by_id = {open_id(o): o for o in space.opens}
    cat = poset_category(by_id.keys(), lambda a, b: by_id[a] <= by_id[b])
    _fan_in(cat, open_id(space.points))
    near = {p: open_id(space.minimal_open(p)) for p in space.points}
    minimal = {
        uid: generate_sieve(cat, uid, [m for p in u for m in cat.hom(near[p], uid)])
        for uid, u in by_id.items()
    }
    return Site(cat, minimal)


# -- JSON ------------------------------------------------------------------------


def category_to_json(cat: FinCat) -> dict:
    return {
        "objects": [cstr(x) for x in cat.objects],
        "morphisms": [
            {"id": cstr(m.mid), "src": cstr(m.src), "tgt": cstr(m.tgt)}
            for m in cat.morphisms.values()
        ],
        "identities": {cstr(x): cstr(i) for x, i in sorted(cat.identities.items())},
        "composition": sorted(
            [[cstr(g), cstr(f), cstr(h)] for (g, f), h in cat.composition.items()]
        ),
    }


def _json_list(value, field: str) -> list:
    """value, which must be a JSON list: a string is not read as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a list")
    return value


def category_from_json(data: dict) -> FinCat:
    """Load a category; identity morphisms may be omitted and are synthesized.
    Every identifier is a string."""
    try:
        objects = _json_list(data["objects"], '"objects"')
        raw = _json_list(data["morphisms"], '"morphisms"')
        morphisms = [Morphism(m["id"], m["src"], m["tgt"]) for m in raw]
        identities = data.get("identities", {})
        if not isinstance(identities, dict):
            raise TypeError('"identities" must be an object')
        identities = dict(identities)
        rows = _json_list(data.get("composition", []), '"composition"')
        comp_rows = [tuple(_json_list(row, 'each "composition" row')) for row in rows]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad category JSON: {exc}") from exc
    rows = [*comp_rows, *identities.items(), *((m.mid, m.src, m.tgt) for m in morphisms)]
    if not all(isinstance(x, str) for x in [*objects, *(x for row in rows for x in row)]):
        raise InputError("bad category JSON: identifiers must be strings")
    if len(set(objects)) != len(objects):
        raise InputError("duplicate object ids")
    mids = {m.mid for m in morphisms}
    if len(mids) != len(morphisms):
        raise InputError("duplicate morphism ids")
    for x in objects:
        if x not in identities:
            iid = f"id:{x}"
            if iid in mids:
                raise InputError(f"cannot synthesize identity {iid}: id taken")
            identities[x] = iid
            morphisms.append(Morphism(iid, x, x))
            mids.add(iid)
    composition = {}
    for row in comp_rows:
        if len(row) != 3:
            raise InputError(f"bad composition row {row!r}")
        g, f, h = row
        composition[(g, f)] = h
    for m in morphisms:
        # a morphism whose ends are not objects is left to validate_category
        if m.src in identities and m.tgt in identities:
            composition.setdefault((identities[m.tgt], m.mid), m.mid)
            composition.setdefault((m.mid, identities[m.src]), m.mid)
    # missing non-identity compositions stay missing: validation will flag them
    for x in objects:
        composition.setdefault((identities[x], identities[x]), identities[x])
    cat = FinCat(objects, morphisms, identities, composition)
    return cat


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "opens": [sorted(o) for o in space.opens],
    }


def space_from_json(data: dict) -> FiniteSpace:
    """Load a space: "points" is a list of points, and so is each of "opens"."""
    try:
        opens = [_json_list(o, 'each of "opens"') for o in _json_list(data["opens"], '"opens"')]
        return FiniteSpace.build(_json_list(data["points"], '"points"'), opens)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad finite space JSON: {exc}") from exc
