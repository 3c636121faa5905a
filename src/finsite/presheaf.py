"""Functors on finite categories, set- and simplicial-set-valued.

Variance is data: a covariant functor acts by action[f]: F(src f) -> F(tgt f),
a contravariant one (a presheaf) by action[f]: F(tgt f) -> F(src f).
Sheafification of set presheaves runs the plus construction twice.  On a
finite site every object x has a minimum covering sieve, and a plus step's
value at x is the matching families over it, found by one backtracking
solver straight from the sieve's members; one rule restricts families along a
morphism.  The pi0 certificate of compare sheafifies a map of set presheaves
itself, since pi0 of a set presheaf is the presheaf; a set presheaf becomes
simplicial (discretize) only where a bar realization is built.
"""

from __future__ import annotations

from typing import Any, Iterable

from finsite.canon import csorted, cstr
from finsite.catsite import FinCat, MappedCat, Morphism, Sieve, Site, maximal_sieve
from finsite.reports import InputError, InternalCheckError, Report
from finsite.sset import (
    SimplicialMap,
    SimplicialSet,
    discrete_sset,
    point_sset,
    validate_map,
    validate_sset,
)

ObjId = Any
MorId = Any


class Functor:
    """Simplicial-set-valued functor; every value has the same dim cap."""

    __slots__ = ("category", "dim_cap", "values", "action", "covariant")

    def __init__(
        self,
        category: FinCat,
        dim_cap: int,
        values: dict[ObjId, SimplicialSet],
        action: dict[MorId, SimplicialMap],
        covariant: bool,
    ):
        self.category, self.dim_cap, self.values, self.action = category, dim_cap, values, action
        self.covariant = covariant
        if set(self.values) != set(self.category.objects):
            raise InputError("functor values must match the category's objects")
        if any(v.dim_cap != self.dim_cap for v in self.values.values()):
            raise InputError(f"functor values must all have dim cap {self.dim_cap}")
        if set(self.action) != set(self.category.morphisms):
            raise InputError("functor actions must match the category's morphisms")
        for m in self.category.morphisms.values():
            sm = self.action[m.mid]
            a, b = _ends(self, m)
            if not (_same(sm.source, self.values[a]) and _same(sm.target, self.values[b])):
                raise InputError(f"the action of {cstr(m.mid)} does not go between its values")


class SetFunctor:
    """Set-valued functor; each value is a canonically sorted tuple."""

    __slots__ = ("category", "values", "action", "covariant")

    def __init__(
        self, category: FinCat, values: dict[ObjId, Iterable], action: dict[MorId, dict], covariant: bool
    ):
        self.category, self.action, self.covariant = category, action, covariant
        self.values = {x: tuple(csorted(v)) for x, v in values.items()}
        for x, v in self.values.items():
            for a, b in zip(v, v[1:]):
                if a == b:
                    raise InputError(f"the value at {cstr(x)} lists {cstr(a)} twice")


def _same(a, b) -> bool:
    return a is b or a == b


def _ends(fun, m: Morphism) -> tuple[ObjId, ObjId]:
    """The objects whose values the action of m goes from and to."""
    return (m.src, m.tgt) if fun.covariant else (m.tgt, m.src)


def _order(fun, g: MorId, f: MorId) -> tuple[MorId, MorId]:
    """The actions (first, second) whose composite is the action of g . f."""
    return (f, g) if fun.covariant else (g, f)


def validate_functor(fun: Functor) -> Report:
    """Values and actions simplicial, identities trivial, composites
    respected; Functor itself refuses an action missing or between the wrong
    values."""
    cat = fun.category
    for x in cat.objects:
        rep = validate_sset(fun.values[x])
        if not rep.ok:
            return Report.failure("value-sset", f"value not a simplicial set: {rep.detail}", (x,))
    for m in cat.morphisms.values():
        rep = validate_map(fun.action[m.mid])
        if not rep.ok:
            return Report.failure("action-map", f"action not simplicial: {rep.detail}", (m.mid,))
    for x in cat.objects:
        ix = cat.identity(x)
        if fun.action[ix] != SimplicialMap.identity(fun.values[x]):
            return Report.failure("action-identity", "identity acts nontrivially", (x,))
    for (g, f), h in cat.composition.items():
        first, second = _order(fun, g, f)
        if fun.action[second].compose(fun.action[first]) != fun.action[h]:
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


class SetPresheafMap:
    __slots__ = ("source", "target", "components")

    def __init__(self, source: SetFunctor, target: SetFunctor, components: dict[ObjId, dict]):
        self.source, self.target, self.components = source, target, components

    def then(self, after: "SetPresheafMap") -> "SetPresheafMap":
        # rebuilt middles are fine as long as the values line up
        if self.target is not after.source and self.target.values != after.source.values:
            raise InputError("maps do not compose: target and source differ")
        comps = {
            x: {v: after.components[x][w] for v, w in comp.items()}
            for x, comp in self.components.items()
        }
        return SetPresheafMap(self.source, after.target, comps)


def _set_map_category(pm: SetPresheafMap) -> FinCat:
    """The one category of pm's ends; ends that are not contravariant
    SetFunctors on one category are an InputError."""
    ends = (pm.source, pm.target)
    if not all(isinstance(e, SetFunctor) and not e.covariant for e in ends):
        raise InputError("a set presheaf map needs contravariant set functors at both ends")
    if not _same(pm.target.category, pm.source.category):
        raise InputError("a set presheaf map needs both ends on the same category")
    return pm.source.category


def validate_set_presheaf_map(pm: SetPresheafMap) -> Report:
    """Components and naturality of a map of set presheaves; endpoints that
    are not contravariant SetFunctors on one category are an InputError."""
    cat = _set_map_category(pm)
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


def sieve_presheaf(cat: FinCat, s: Sieve) -> SetFunctor:
    """s as a subpresheaf of hom(-, s.base): members by source, acting by precomposition."""
    values: dict[ObjId, list] = {x: [] for x in cat.objects}
    for f in csorted(s.members):
        values[cat.src(f)].append(f)
    action = {m.mid: {h: cat.compose(h, m.mid) for h in values[m.tgt]} for m in cat.morphisms.values()}
    return SetFunctor(cat, values, action, covariant=False)


def representable_set_presheaf(cat: FinCat, z: ObjId) -> SetFunctor:
    """hom(-, z), the maximal sieve on z."""
    return sieve_presheaf(cat, maximal_sieve(cat, z))


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
    cat = mapped.category
    values = {o: fun.values[mapped.obj_to_base[o]] for o in cat.objects}
    action = {m: fun.action[mapped.mor_to_base[m]] for m in cat.morphisms}
    if isinstance(fun, SetFunctor):
        return SetFunctor(cat, values, action, fun.covariant)
    return Functor(cat, fun.dim_cap, values, action, fun.covariant)


# -- compatible choices by backtracking -----------------------------------------


def _solutions(keys: list, values: list, arrows: Iterable) -> tuple[tuple, ...]:
    """Every choice of one element of values[i] for each keys[i] such that
    each arrow (i, act, j) has act[s_j] == s_i, as (key, value) pairs in key
    order.  An arrow is checked once both ends are chosen.  The keys are fixed
    and each values[i] is canonically sorted, so the depth-first search yields
    the choices canonically sorted."""
    checks: list[list[tuple[int, dict, int]]] = [[] for _ in keys]
    for i, act, j in arrows:
        checks[max(i, j)].append((i, act, j))
    out: list[tuple] = []
    chosen: list = [None] * len(keys)

    def fill(idx: int):
        if idx == len(keys):
            out.append(tuple(zip(keys, chosen)))
            return
        for v in values[idx]:
            chosen[idx] = v
            if all(act[chosen[j]] == chosen[i] for i, act, j in checks[idx]):
                fill(idx + 1)

    fill(0)
    return tuple(out)


# -- sheafification --------------------------------------------------------------


class PlusStep:
    __slots__ = ("presheaf", "unit")

    def __init__(self, presheaf: SetFunctor, unit: SetPresheafMap):
        self.presheaf, self.unit = presheaf, unit


def matching_sections(site: Site, sp: SetFunctor, sieve: Sieve) -> tuple[tuple, ...]:
    """Matching families over the sieve, keyed by its members in canonical
    order: s_f at the source of each member f, with action[g](s_f) == s_{f.g}."""
    if sp.covariant:
        raise InputError("matching families need a set presheaf")
    cat = site.category
    keys = csorted(sieve.members)
    pos = {f: i for i, f in enumerate(keys)}
    arrows = []
    for f in keys:
        for g in cat.hom_into(cat.src(f)):
            fg = cat.compose(f, g)
            if fg not in pos:
                raise InputError(f"{cstr(fg)} is missing from the sieve on {cstr(sieve.base)}")
            arrows.append((pos[fg], sp.action[g], pos[f]))
    return _solutions(keys, [sp.values[cat.src(f)] for f in keys], arrows)


def _matching_image(sp: SetFunctor, sieve, s) -> tuple:
    return tuple((m, sp.action[m][s]) for m in csorted(sieve.members))


def _families(site: Site, sp: SetFunctor, cat: FinCat, sieve_of, base_of) -> SetFunctor:
    """The set presheaf on cat of the matching families of sp over sieve_of(o).
    m restricts along f = base_of(m): member g of the source's sieve takes the
    family's value at f.g, read at that member's position in the family."""
    sieves = {o: sieve_of(o) for o in cat.objects}
    found = {s: matching_sections(site, sp, s) for s in set(sieves.values())}
    keys = {o: csorted(s.members) for o, s in sieves.items()}
    action: dict[MorId, dict] = {}
    for m in cat.morphisms.values():
        f, pos = base_of(m.mid), {h: i for i, h in enumerate(keys[m.tgt])}
        at = [(g, pos[site.category.compose(f, g)]) for g in keys[m.src]]
        action[m.mid] = {fam: tuple((g, fam[i][1]) for g, i in at) for fam in found[sieves[m.tgt]]}
    return SetFunctor(cat, {o: found[s] for o, s in sieves.items()}, action, covariant=False)


def gamma_prime_set(site: Site, sp: SetFunctor) -> PlusStep:
    """One plus step: value at x is the matching families over the minimum
    covering sieve, which every covering sieve refines on a finite site."""
    cat = site.category
    smin = {x: site.minimal_covering_sieve(x) for x in cat.objects}
    result = _families(site, sp, cat, smin.__getitem__, lambda f: f)
    unit_components = {
        x: {s: _matching_image(sp, smin[x], s) for s in sp.values[x]}
        for x in cat.objects
    }
    return PlusStep(result, SetPresheafMap(sp, result, unit_components))


def gamma_prime_map(
    site: Site, pm: SetPresheafMap, src_step: PlusStep, tgt_step: PlusStep
) -> SetPresheafMap:
    """The plus step applied to a map, given the plus steps of its source and
    target: families move memberwise."""
    cat = site.category
    comps = {
        x: {fam: tuple((g, pm.components[cat.src(g)][v]) for g, v in fam) for fam in fams}
        for x, fams in src_step.presheaf.values.items()
    }
    return SetPresheafMap(src_step.presheaf, tgt_step.presheaf, comps)


class Sheafification:
    __slots__ = ("sheaf", "unit")

    def __init__(self, sheaf: SetFunctor, unit: SetPresheafMap):
        self.sheaf, self.unit = sheaf, unit


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
            images = {}
            for s in sp.values[x]:
                img = _matching_image(sp, sieve, s)
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


# -- the pi0 half of the equivalence condition --------------------------------------


def illusie_pi0_certificate(site: Site, pm: SetPresheafMap) -> Report:
    """Certifies that a map of set presheaves becomes a componentwise
    bijection after sheafifying both sides.  pi0 of a set presheaf is the
    presheaf itself, so this is the pi0 condition of a local weak equivalence
    (Illusie, Jardine).

    This covers only the pi0 condition; higher homotopy presheaves are not
    examined, and the report says so.  Ends that are not set presheaves on
    the site's category are an InputError.
    """
    if not _same(_set_map_category(pm), site.category):
        raise InputError("presheaf map must live on the site's category")
    for _ in range(2):
        steps = [gamma_prime_set(site, p) for p in (pm.source, pm.target)]
        pm = gamma_prime_map(site, pm, *steps)
    for x in site.category.objects:
        comp = pm.components[x]
        image = set(comp.values())
        if len(image) != len(comp) or image != set(pm.target.values[x]):
            return Report.failure(
                "pi0-sheaf-not-bijective",
                "induced map on sheafified pi0 fails to be a bijection "
                "(pi0 condition only; higher degrees unchecked)",
                (cstr(x), len(comp), len(image), len(pm.target.values[x])),
            )
    return Report.success(
        "induced map on sheafified pi0 is a componentwise bijection; "
        "this certifies the pi0 condition only"
    )
