"""Functors on finite categories, set- and simplicial-set-valued.

Variance is data: a covariant functor acts by action[f]: F(src f) -> F(tgt f),
a contravariant one (a presheaf) by action[f]: F(tgt f) -> F(src f).
Sheafification of set presheaves runs the plus construction twice; on a
finite site every object has a minimum covering sieve, so each plus step
lands on sections over that sieve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from finsite.canon import csorted, cstr
from finsite.catsite import FinCat, MappedCat, Morphism, Sieve, Site, sieve_category
from finsite.reports import InputError, InternalCheckError, Report, ValidationError
from finsite.sset import (
    SimplicialMap,
    SimplicialSet,
    discrete_sset,
    pi0,
    point_sset,
    validate_map,
)

ObjId = Any
MorId = Any


@dataclass(eq=False)
class Functor:
    """Simplicial-set-valued functor; every value has the same dim cap."""

    category: FinCat
    dim_cap: int
    values: dict[ObjId, SimplicialSet]
    action: dict[MorId, SimplicialMap]
    covariant: bool

    def __post_init__(self):
        if set(self.values) != set(self.category.objects):
            raise InputError("functor values must match the category's objects")
        if any(v.dim_cap != self.dim_cap for v in self.values.values()):
            raise InputError(f"functor values must all have dim cap {self.dim_cap}")


@dataclass(eq=False)
class SetFunctor:
    """Set-valued functor; each value is a canonically sorted tuple."""

    category: FinCat
    values: dict[ObjId, tuple]
    action: dict[MorId, dict]
    covariant: bool

    def __post_init__(self):
        self.values = {x: tuple(csorted(v)) for x, v in self.values.items()}


def _ends(fun, m: Morphism) -> tuple[ObjId, ObjId]:
    """The objects whose values the action of m goes from and to."""
    return (m.src, m.tgt) if fun.covariant else (m.tgt, m.src)


def _order(fun, g: MorId, f: MorId) -> tuple[MorId, MorId]:
    """The actions (first, second) whose composite is the action of g . f."""
    return (f, g) if fun.covariant else (g, f)


def validate_functor(fun: Functor) -> Report:
    cat = fun.category
    for m in cat.morphisms.values():
        if m.mid not in fun.action:
            return Report.failure("action-missing", "morphism has no action", (m.mid,))
        sm = fun.action[m.mid]
        a, b = _ends(fun, m)
        if sm.source is not fun.values[a] and sm.source != fun.values[a]:
            return Report.failure("action-source", "action starts at wrong value", (m.mid,))
        if sm.target is not fun.values[b] and sm.target != fun.values[b]:
            return Report.failure("action-target", "action ends at wrong value", (m.mid,))
        rep = validate_map(sm)
        if not rep.ok:
            return Report.failure("action-map", f"action not simplicial: {rep.detail}", (m.mid,))
    for x in cat.objects:
        ix = cat.identity(x)
        if fun.action[ix].mapping != SimplicialMap.identity(fun.values[x]).mapping:
            return Report.failure("action-identity", "identity acts nontrivially", (x,))
    for (g, f), h in cat.composition.items():
        first, second = _order(fun, g, f)
        if fun.action[second].compose(fun.action[first]).mapping != fun.action[h].mapping:
            return Report.failure("action-composition", "functoriality fails", (g, f))
    return Report.success()


def validate_set_functor(fun: SetFunctor) -> Report:
    cat = fun.category
    if set(fun.values) != set(cat.objects):
        return Report.failure("values", "value carrier does not match objects", ())
    for m in cat.morphisms.values():
        if m.mid not in fun.action:
            return Report.failure("action-missing", "morphism has no action", (m.mid,))
        act = fun.action[m.mid]
        a, b = _ends(fun, m)
        if set(act) != set(fun.values[a]):
            return Report.failure("action-domain", "action domain mismatch", (m.mid,))
        if not set(act.values()) <= set(fun.values[b]):
            return Report.failure("action-codomain", "action lands outside value set", (m.mid,))
    for x in cat.objects:
        act = fun.action[cat.identity(x)]
        if any(act[v] != v for v in fun.values[x]):
            return Report.failure("action-identity", "identity acts nontrivially", (x,))
    for (g, f), h in cat.composition.items():
        first, second = _order(fun, g, f)
        a1, a2, ah = fun.action[first], fun.action[second], fun.action[h]
        if not all(a2[a1[v]] == ah[v] for v in ah):
            return Report.failure("action-composition", "functoriality fails", (g, f))
    return Report.success()


# -- maps -----------------------------------------------------------------------


def _check_composable(first, then) -> None:
    # rebuilt middles are fine as long as the simplices line up
    if first.target is not then.source and first.target.values != then.source.values:
        raise InputError("maps do not compose: target and source differ")


@dataclass(frozen=True)
class PresheafMap:
    source: Functor
    target: Functor
    components: dict[ObjId, SimplicialMap]

    def then(self, after: "PresheafMap") -> "PresheafMap":
        _check_composable(self, after)
        comps = {x: after.components[x].compose(self.components[x]) for x in self.components}
        return PresheafMap(self.source, after.target, comps)


@dataclass(frozen=True)
class SetPresheafMap:
    source: SetFunctor
    target: SetFunctor
    components: dict[ObjId, dict]

    def then(self, after: "SetPresheafMap") -> "SetPresheafMap":
        _check_composable(self, after)
        comps = {
            x: {v: after.components[x][w] for v, w in comp.items()}
            for x, comp in self.components.items()
        }
        return SetPresheafMap(self.source, after.target, comps)


def validate_set_presheaf_map(pm: SetPresheafMap) -> Report:
    """Components and naturality of a map of set presheaves; endpoints that
    are not contravariant SetFunctors on one category are an InputError."""
    ends = (pm.source, pm.target)
    if not all(isinstance(e, SetFunctor) and not e.covariant for e in ends):
        raise InputError("a set presheaf map needs contravariant set functors at both ends")
    cat = pm.source.category
    if pm.target.category is not cat and pm.target.category != cat:
        raise InputError("a set presheaf map needs both ends on the same category")
    for x in cat.objects:
        comp = pm.components.get(x)
        if comp is None or set(comp) != set(pm.source.values[x]):
            return Report.failure("component-domain", "component domain mismatch", (x,))
        if not set(comp.values()) <= set(pm.target.values[x]):
            return Report.failure("component-codomain", "component lands outside", (x,))
    for m in cat.morphisms.values():
        pa = pm.source.action[m.mid]
        qa = pm.target.action[m.mid]
        for v in pm.source.values[m.tgt]:
            if pm.components[m.src][pa[v]] != qa[pm.components[m.tgt][v]]:
                return Report.failure("naturality", "set presheaf map square fails", (m.mid,))
    return Report.success()


# -- constructors ---------------------------------------------------------------


def constant_set_presheaf(cat: FinCat, values: Iterable) -> SetFunctor:
    vals = tuple(csorted(values))
    ident = {v: v for v in vals}
    return SetFunctor(
        cat,
        {x: vals for x in cat.objects},
        {m: dict(ident) for m in cat.morphisms},
        covariant=False,
    )


def terminal_set_presheaf(cat: FinCat) -> SetFunctor:
    return constant_set_presheaf(cat, ("*",))


def representable_set_presheaf(cat: FinCat, z: ObjId) -> SetFunctor:
    values = {x: cat.hom(x, z) for x in cat.objects}
    action = {}
    for m in cat.morphisms.values():
        # precomposition hom(tgt, z) -> hom(src, z)
        action[m.mid] = {h: cat.compose(h, m.mid) for h in values[m.tgt]}
    return SetFunctor(cat, values, action, covariant=False)


def discretize(sf: SetFunctor, dim_cap: int) -> Functor:
    """Simplicially constant functor on the same values, of the same variance."""
    values = {x: discrete_sset(sf.values[x], dim_cap) for x in sf.values}
    action = {}
    for m in sf.category.morphisms.values():
        a, b = _ends(sf, m)
        act = sf.action[m.mid]
        action[m.mid] = SimplicialMap.from_function(
            values[a], values[b], lambda k, v, act=act: act[v]
        )
    return Functor(sf.category, dim_cap, values, action, sf.covariant)


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


def point_functor(cat: FinCat, dim_cap: int, covariant: bool) -> Functor:
    """The terminal functor: a point everywhere, identities acting."""
    pt = point_sset(dim_cap)
    ident = SimplicialMap.identity(pt)
    return Functor(
        cat, dim_cap, {x: pt for x in cat.objects}, {m: ident for m in cat.morphisms}, covariant
    )


# -- reindexing along a mapped category --------------------------------------------


def reindex(fun: Functor | SetFunctor, mapped: MappedCat) -> Functor | SetFunctor:
    """fun after the projection of mapped.category to its base: a functor of
    the same kind and variance whose value at o is fun's value at base(o)."""
    return replace(
        fun,
        category=mapped.category,
        values={o: fun.values[mapped.obj_to_base[o]] for o in mapped.category.objects},
        action={m: fun.action[mapped.mor_to_base[m]] for m in mapped.category.morphisms},
    )


def restrict(fun: Functor | SetFunctor, s: Sieve) -> Functor | SetFunctor:
    """Restriction to the sieve category; objects are the sieve's members."""
    if s.base not in fun.category.objects:
        raise InputError("sieve base is not an object of the functor's category")
    return reindex(fun, sieve_category(fun.category, s))


# -- sections (limit of a set presheaf) -----------------------------------------


def sections_set(cat: FinCat, sp: SetFunctor) -> tuple[tuple, ...]:
    """All global sections, each a tuple of (object, value) pairs in canonical
    object order.  A section picks s_x with action[f](s_tgt) == s_src."""
    if sp.covariant or (sp.category is not cat and sp.category != cat):
        raise InputError("sections need a set presheaf on the given category")
    objs = list(cat.objects)
    # constraints between assigned positions, precomputed per object pair
    pos = {x: i for i, x in enumerate(objs)}
    constraints: list[list[tuple[int, dict, int]]] = [[] for _ in objs]
    for m in cat.morphisms.values():
        i, j = pos[m.src], pos[m.tgt]
        # when filling the later of (i, j), check against the earlier
        act = sp.action[m.mid]
        if i == j:
            constraints[i].append((i, act, i))
        elif i > j:
            constraints[i].append((j, act, i))
        else:
            constraints[j].append((j, act, i))
    out: list[tuple] = []
    chosen: list = [None] * len(objs)

    def fill(idx: int):
        if idx == len(objs):
            out.append(tuple((objs[i], chosen[i]) for i in range(len(objs))))
            return
        for v in sp.values[objs[idx]]:
            chosen[idx] = v
            ok = True
            for (jt, act, js) in constraints[idx]:
                if chosen[jt] is None or chosen[js] is None:
                    continue
                if act[chosen[jt]] != chosen[js]:
                    ok = False
                    break
            if ok:
                fill(idx + 1)
        chosen[idx] = None

    fill(0)
    return tuple(csorted(out))


def section_value(section: tuple, obj: ObjId):
    for x, v in section:
        if x == obj:
            return v
    raise KeyError(obj)


# -- sheafification --------------------------------------------------------------


@dataclass(frozen=True)
class PlusStep:
    presheaf: SetFunctor
    unit: SetPresheafMap


def matching_sections(site: Site, sp: SetFunctor, sieve: Sieve) -> tuple[tuple, ...]:
    """Sections over the sieve category, keyed by the sieve's members."""
    mapped = sieve_category(site.category, sieve)
    return sections_set(mapped.category, reindex(sp, mapped))


def _matching_image(site: Site, sp: SetFunctor, sieve, s) -> tuple:
    return tuple((m, sp.action[m][s]) for m in csorted(sieve.members))


def gamma_prime_set(site: Site, sp: SetFunctor) -> PlusStep:
    """One plus step: value at x is the section set over the minimum covering
    sieve, which every covering sieve refines on a finite site."""
    cat = site.category
    smin = {x: site.minimal_covering_sieve(x) for x in cat.objects}
    for x, s in smin.items():
        if not site.is_covering(s):
            raise ValidationError(
                "intersection of covering sieves fails to cover; site is invalid"
            )
    values = {x: matching_sections(site, sp, smin[x]) for x in cat.objects}
    action: dict[MorId, dict] = {}
    for m in cat.morphisms.values():
        f, v, u = m.mid, m.src, m.tgt
        # members of smin[src] push forward into smin[tgt]
        act = {}
        for sec in values[u]:
            by_member = dict(sec)
            moved = tuple(
                (g, by_member[cat.compose(f, g)]) for g in csorted(smin[v].members)
            )
            act[sec] = moved
        action[f] = act
    result = SetFunctor(cat, values, action, covariant=False)
    unit_components = {
        x: {s: _matching_image(site, sp, smin[x], s) for s in sp.values[x]}
        for x in cat.objects
    }
    return PlusStep(result, SetPresheafMap(sp, result, unit_components))


def gamma_prime_map(
    site: Site,
    pm: SetPresheafMap,
    src_step: PlusStep | None = None,
    tgt_step: PlusStep | None = None,
) -> SetPresheafMap:
    """The plus step applied to a map: sections move memberwise."""
    if src_step is None:
        src_step = gamma_prime_set(site, pm.source)
    if tgt_step is None:
        tgt_step = gamma_prime_set(site, pm.target)
    cat = site.category
    comps = {}
    for x in cat.objects:
        comp = {}
        for sec in src_step.presheaf.values[x]:
            comp[sec] = tuple((g, pm.components[cat.src(g)][v]) for g, v in sec)
        comps[x] = comp
    return SetPresheafMap(src_step.presheaf, tgt_step.presheaf, comps)


@dataclass(frozen=True)
class Sheafification:
    sheaf: SetFunctor
    unit: SetPresheafMap


def sheafify_set(site: Site, sp: SetFunctor) -> Sheafification:
    """Two plus steps; the result is checked to satisfy the sheaf condition."""
    first = gamma_prime_set(site, sp)
    second = gamma_prime_set(site, first.presheaf)
    rep = is_sheaf_set(site, second.presheaf)
    if not rep.ok:
        raise InternalCheckError(f"double plus construction is not a sheaf: {rep.detail}")
    return Sheafification(second.presheaf, first.unit.then(second.unit))


def is_sheaf_set(site: Site, sp: SetFunctor) -> Report:
    """Sheaf condition: restriction to each covering sieve is a bijection
    onto matching sections."""
    for x in site.category.objects:
        for sieve in site.coverings[x]:
            sections = matching_sections(site, sp, sieve)
            # section pairs are keyed by sieve-category objects, the members
            images = {}
            for s in sp.values[x]:
                img = _matching_image(site, sp, sieve, s)
                if img in images:
                    return Report.failure(
                        "not-separated",
                        "two sections restrict equally on a covering sieve",
                        (x, images[img], s),
                    )
                images[img] = s
            missing = [sec for sec in sections if sec not in images]
            if missing:
                return Report.failure(
                    "not-glued",
                    "matching section is not a restriction",
                    (x, missing[0]),
                )
    return Report.success()


# -- connected components of simplicial functors -----------------------------------


def pi0_functor(fun: Functor) -> tuple[SetFunctor, dict]:
    """Componentwise pi0, of the same variance; returns the set functor and
    the vertex class maps."""
    comp = {x: pi0(fun.values[x]) for x in fun.category.objects}
    values = {x: comp[x].ids for x in fun.category.objects}
    action = {}
    for m in fun.category.morphisms.values():
        sm = fun.action[m.mid]
        a, b = _ends(fun, m)
        src_cm, tgt_cm = comp[a], comp[b]
        act = {}
        for c in src_cm.ids:
            v = src_cm.a_vertex(c)
            act[c] = tgt_cm.of_vertex[sm.apply(0, v)]
        action[m.mid] = act
    return SetFunctor(fun.category, values, action, fun.covariant), comp


# -- the pi0 half of the equivalence condition --------------------------------------


def illusie_pi0_certificate(site: Site, m: PresheafMap) -> Report:
    """Certifies that the map becomes a componentwise bijection after taking
    pi0 objectwise and sheafifying both sides.

    This covers only the pi0 condition; higher homotopy presheaves are not
    examined, and the report says so.
    """
    if m.source.category is not site.category and m.source.category != site.category:
        raise InputError("presheaf map must live on the site's category")
    p0s, comp_s = pi0_functor(m.source)
    p0t, comp_t = pi0_functor(m.target)
    comps = {}
    for x in site.category.objects:
        comp = {}
        for c in p0s.values[x]:
            v = comp_s[x].a_vertex(c)
            comp[c] = comp_t[x].of_vertex[m.components[x].apply(0, v)]
        comps[x] = comp
    m0 = SetPresheafMap(p0s, p0t, comps)
    s1 = gamma_prime_set(site, p0s)
    t1 = gamma_prime_set(site, p0t)
    m1 = gamma_prime_map(site, m0, s1, t1)
    s2 = gamma_prime_set(site, s1.presheaf)
    t2 = gamma_prime_set(site, t1.presheaf)
    m2 = gamma_prime_map(site, m1, s2, t2)
    for x in site.category.objects:
        comp = m2.components[x]
        image = set(comp.values())
        if len(image) != len(comp) or image != set(m2.target.values[x]):
            return Report.failure(
                "pi0-sheaf-not-bijective",
                "induced map on sheafified pi0 fails to be a bijection "
                "(pi0 condition only; higher degrees unchecked)",
                (cstr(x), len(comp), len(image), len(m2.target.values[x])),
            )
    return Report.success(
        "induced map on sheafified pi0 is a componentwise bijection; "
        "this certifies the pi0 condition only"
    )
