"""Set presheaves, sections, sheafification, pi0 certificates."""

import random

import pytest

from finsite.canon import csorted
from finsite.catsite import (
    FiniteSpace,
    Sieve,
    all_sieves,
    maximal_sieve,
    open_id,
    site_from_finite_space,
)
from finsite.gallery import (
    bz2_category,
    collapse_set_presheaf,
    interval_cover_space,
    point_category,
    pseudo_circle_space,
    sierpinski_space,
)
from finsite.presheaf import (
    Functor,
    SetFunctor,
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    gamma_prime_map,
    point_functor,
    gamma_prime_set,
    illusie_pi0_certificate,
    is_sheaf_set,
    matching_sections,
    reindex,
    representable_set_presheaf,
    sheafify_set,
    sieve_presheaf,
    terminal_set_presheaf,
    validate_set_functor,
    validate_set_presheaf_map,
)
from finsite.realization import order_complex_functor
from finsite.reports import InputError
from finsite.sset import SimplicialMap

from fixtures import apply
from oracles import (
    PresheafMap,
    discretize_map,
    germs,
    hom_presheaf,
    induced_realization_map,
    pi0_components,
    sections_set,
    sieve_category,
    stalk_family_sheaf,
    stalk_family_unit,
)
from randgen import (
    disjoint_union_sp,
    product_sp,
    random_joined_space,
    random_poset_with_max,
    random_set_presheaf,
    random_space,
)


def _pc():
    space = pseudo_circle_space()
    return space, site_from_finite_space(space)


def test_representable_values_are_slices():
    _, site = _pc()
    cat = site.category
    y = representable_set_presheaf(cat, open_id("abc"))
    assert validate_set_functor(y).ok
    # hom(u, abc) is a point when u <= abc, empty otherwise
    assert len(y.values[open_id("ab")]) == 1
    assert len(y.values[open_id("abd")]) == 0
    assert len(y.values[open_id("abcd")]) == 0


def test_the_maximal_sieve_is_the_representable_presheaf():
    """hom(-, z) is the maximal sieve on z read as a presheaf: the same
    values and actions, in the same order, as the hom-set construction on
    every object of the gallery categories (bz2's one hom-set has two
    morphisms) and of seeded random posets."""
    cats = [site_from_finite_space(s()).category for s in (sierpinski_space, pseudo_circle_space, interval_cover_space)]
    cats += [bz2_category(), point_category()]
    rng = random.Random(30)
    cats += [random_poset_with_max(rng, rng.randint(2, 8))[0] for _ in range(10)]
    for cat in cats:
        for z in cat.objects:
            want = hom_presheaf(cat, z)
            for got in (sieve_presheaf(cat, maximal_sieve(cat, z)), representable_set_presheaf(cat, z)):
                assert validate_set_functor(got).ok
                assert got.values == want.values
                assert {m: list(a.items()) for m, a in got.action.items()} == {
                    m: list(a.items()) for m, a in want.action.items()
                }


def test_sections_of_constant_presheaf_count_components():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    secs = sections_set(cat, sp)
    # the open poset is connected, so global sections are the two constants
    assert len(secs) == 2


def test_section_value_reads_components():
    _, site = _pc()
    cat = site.category
    sp = terminal_set_presheaf(cat)
    secs = sections_set(cat, sp)
    assert len(secs) == 1
    for x in cat.objects:
        assert dict(secs[0])[x] == sp.values[x][0]


def test_matching_sections_two_open_cover():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    from finsite.gallery import two_open_cover

    s = two_open_cover(site)
    secs = matching_sections(site, sp, s)
    # {a} and {b} do not meet inside {a,b}, so sections choose freely
    assert len(secs) == 4


@pytest.mark.parametrize("space", [sierpinski_space, pseudo_circle_space, interval_cover_space])
def test_matching_sections_equal_sections_on_the_sieve_category(space):
    """The oracle is the route through the sieve category: global sections
    of the presheaf reindexed onto the full subcategory of the slice."""
    site = site_from_finite_space(space())
    cat = site.category
    rng = random.Random(18)
    for _ in range(5):
        sp = random_set_presheaf(rng, cat)
        for x in cat.objects:
            for s in all_sieves(cat, x):
                mapped = sieve_category(cat, s)
                expected = sections_set(mapped.category, reindex(sp, mapped))
                assert matching_sections(site, sp, s) == expected
    # the identity alone is not closed under precomposition into the top
    top = max(cat.objects, key=lambda x: len(cat.hom_into(x)))
    with pytest.raises(InputError):
        matching_sections(site, sp, Sieve(top, frozenset([cat.identity(top)])))


def test_restrict_dispatches_on_type():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0"])
    from finsite.gallery import two_open_cover

    s = two_open_cover(site)
    out = reindex(sp, sieve_category(cat, s))
    assert set(out.category.objects) == set(s.members)
    p = discretize(sp, 2)
    out2 = reindex(p, sieve_category(cat, s))
    assert set(out2.category.objects) == set(s.members)


def test_gamma_prime_constant2_sizes():
    _, site = _pc()
    sp = constant_set_presheaf(site.category, ["0", "1"])
    step = gamma_prime_set(site, sp)
    sizes = {x: len(v) for x, v in step.presheaf.values.items()}
    assert sizes == {
        open_id("a"): 2,
        open_id("b"): 2,
        open_id("ab"): 4,
        open_id("abc"): 2,
        open_id("abd"): 2,
        open_id("abcd"): 2,
    }


def test_constant2_is_separated_so_one_step_sheafifies():
    _, site = _pc()
    sp = constant_set_presheaf(site.category, ["0", "1"])
    step = gamma_prime_set(site, sp)
    assert is_sheaf_set(site, step.presheaf).ok
    sh = sheafify_set(site, sp)
    sizes1 = {x: len(v) for x, v in step.presheaf.values.items()}
    sizes2 = {x: len(v) for x, v in sh.sheaf.values.items()}
    assert sizes1 == sizes2


def test_is_sheaf_failures_are_witnessed():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    rep = is_sheaf_set(site, sp)
    assert not rep.ok and rep.kind == "not-glued"
    col = collapse_set_presheaf(cat, open_id("abcd"))
    rep2 = is_sheaf_set(site, col)
    assert not rep2.ok and rep2.kind == "not-separated"


def test_collapse_sheafifies_to_singletons():
    _, site = _pc()
    cat = site.category
    col = collapse_set_presheaf(cat, open_id("abcd"))
    sh = sheafify_set(site, col)
    assert all(len(v) == 1 for v in sh.sheaf.values.values())
    assert is_sheaf_set(site, sh.sheaf).ok


def test_sections_and_matching_families_come_out_canonically_sorted():
    # the search returns what it finds unsorted: fixed keys and sorted values
    # make its depth-first order the canonical one; the sheafified presheaf
    # has nested family tuples as values
    rng = random.Random(43)
    found = []
    for _ in range(40):
        site = site_from_finite_space(random_space(rng, 8))
        sp = random_set_presheaf(rng, site.category)
        for q in (sp, sheafify_set(site, sp).sheaf):
            found.append(sections_set(site.category, q))
            for x in site.category.objects:
                found += [matching_sections(site, q, s) for s in site.coverings[x]]
    assert all(list(out) == csorted(out) for out in found)
    assert sum(len(out) > 1 for out in found) > 100


def test_sheafify_agrees_with_stalk_family_oracle():
    rng = random.Random(40)
    for space in (pseudo_circle_space(), sierpinski_space()):
        site = site_from_finite_space(space)
        cat = site.category
        for _ in range(4):
            sp = random_set_presheaf(rng, cat)
            sh = sheafify_set(site, sp)
            oracle = stalk_family_sheaf(space, site, sp)
            unit_oracle = stalk_family_unit(space, site, sp)
            for x in cat.objects:
                fams = {germs(space, site, sp, t, x) for t in sh.sheaf.values[x]}
                assert len(fams) == len(sh.sheaf.values[x])
                assert fams == set(oracle.values[x])
                for s in sp.values[x]:
                    assert (
                        germs(space, site, sp, sh.unit.components[x][s], x)
                        == unit_oracle[x][s]
                    )


def test_third_plus_step_is_bijective():
    rng = random.Random(41)
    for space in (pseudo_circle_space(), sierpinski_space()):
        site = site_from_finite_space(space)
        for _ in range(3):
            sp = random_set_presheaf(rng, site.category)
            sh = sheafify_set(site, sp)
            third = gamma_prime_set(site, sh.sheaf)
            for x in site.category.objects:
                comp = third.unit.components[x]
                assert len(set(comp.values())) == len(comp)
                assert len(comp) == len(third.presheaf.values[x])


def test_gamma_prime_map_is_functorial_on_units():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    sh = sheafify_set(site, sp)
    steps = gamma_prime_set(site, sp), gamma_prime_set(site, sh.sheaf)
    pm = gamma_prime_map(site, sh.unit, *steps)
    assert validate_set_presheaf_map(pm).ok


def test_disjoint_union_and_product_presheaves_validate():
    _, site = _pc()
    cat = site.category
    a = constant_set_presheaf(cat, ["0", "1"])
    b = representable_set_presheaf(cat, open_id("ab"))
    assert validate_set_functor(disjoint_union_sp(a, b)).ok
    assert validate_set_functor(product_sp(a, b)).ok


def test_illusie_certificate_accepts_sheafification_unit():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    rep = illusie_pi0_certificate(site, sheafify_set(site, sp).unit)
    assert rep.ok


def _induced_on_components(sm: SimplicialMap) -> dict:
    """The map on components, read by identifier: components from
    pi0_components, each vertex sent by apply(0, v).  Every vertex of a
    component, not only its first, must land in one target component."""
    target_of = {v: f"c{j}" for j, comp in enumerate(pi0_components(sm.target)) for v in comp}
    induced = {}
    for i, comp in enumerate(pi0_components(sm.source)):
        lands = {target_of[apply(sm, 0, v)] for v in comp}
        assert len(lands) == 1, (i, lands)
        induced[f"c{i}"] = lands.pop()
    return induced


def test_pi0_maps_follow_vertices():
    space, site = _pc()
    cat = site.category
    f = order_complex_functor(space, 2, site)
    two = constant_set_presheaf(cat, ["0", "1"])
    one = terminal_set_presheaf(cat)
    crush = SetPresheafMap(
        two, one, {x: {v: one.values[x][0] for v in two.values[x]} for x in cat.objects}
    )
    units = [sheafify_set(site, p).unit for p in (collapse_set_presheaf(cat, open_id("abcd")), two)]
    counts = []
    for m in (*units, crush):
        induced = _induced_on_components(induced_realization_map(f, discretize_map(m, 2), 2))
        counts.append((len(induced), len(set(induced.values()))))
    assert counts == [(1, 1), (2, 2), (2, 1)]


def test_illusie_certificate_rejects_component_collapse():
    _, site = _pc()
    cat = site.category
    two = constant_set_presheaf(cat, ["0", "1"])
    one = terminal_set_presheaf(cat)
    from finsite.presheaf import SetPresheafMap

    crush = SetPresheafMap(
        two, one, {x: {v: one.values[x][0] for v in two.values[x]} for x in cat.objects}
    )
    rep = illusie_pi0_certificate(site, crush)
    assert not rep.ok and rep.kind == "pi0-sheaf-not-bijective"


def test_illusie_certificate_refuses_ends_that_are_not_set_presheaves_on_the_site():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0"])
    ident = {x: {"0": "0"} for x in cat.objects}
    cov = SetFunctor(cat, sp.values, sp.action, covariant=True)
    simplicial = discretize(sp, 2)
    other = site_from_finite_space(sierpinski_space()).category
    foreign = constant_set_presheaf(other, ["0"])
    assert illusie_pi0_certificate(site, SetPresheafMap(sp, sp, ident)).ok
    refused = [
        (cov, sp, ident),
        (sp, cov, ident),
        (simplicial, sp, ident),
        (sp, simplicial, ident),
        (sp, foreign, ident),
        (foreign, foreign, {x: {"0": "0"} for x in other.objects}),
    ]
    for ends in refused:
        with pytest.raises(InputError):
            illusie_pi0_certificate(site, SetPresheafMap(*ends))


def _bijective_on_stalks(space: FiniteSpace, pm: SetPresheafMap) -> bool:
    """A finite space has enough points, and the stalk at p of a presheaf is
    its value at the minimal open U_p, so pm becomes an isomorphism after
    sheafifying exactly when its component at every U_p is a bijection."""
    for p in space.points:
        u = open_id(space.minimal_open(p))
        image = set(pm.components[u].values())
        if len(image) != len(pm.source.values[u]) or image != set(pm.target.values[u]):
            return False
    return True


def test_illusie_certificate_agrees_with_the_stalk_rule():
    rng = random.Random(45)
    spaces = [pseudo_circle_space(), sierpinski_space(), interval_cover_space()]
    spaces += [gen(rng) for gen in (random_space, random_joined_space) for _ in range(10)]
    verdicts = []
    for space in spaces:
        site = site_from_finite_space(space)
        cat = site.category
        one = terminal_set_presheaf(cat)
        for _ in range(4):
            sp = random_set_presheaf(rng, cat)
            maps = (
                sheafify_set(site, sp).unit,
                SetPresheafMap(sp, one, {x: {v: "*" for v in sp.values[x]} for x in cat.objects}),
                SetPresheafMap(sp, sp, {x: {v: v for v in sp.values[x]} for x in cat.objects}),
            )
            for pm in maps:
                ok = illusie_pi0_certificate(site, pm).ok
                assert ok == _bijective_on_stalks(space, pm), (space.opens, pm.source.values)
                verdicts.append(ok)
    assert len(verdicts) == 276 and verdicts.count(False) > 50


def test_one_plus_step_already_sheafifies_on_a_space_site():
    """On a finite space's site the minimal covering sieve of U is generated
    by the minimal opens U_p inside U, and the one of U_p is maximal, so a
    family matching over it is already a section of the sheaf: one plus step
    gives a sheaf.  sheafify_set keeps its second step all the same, since
    the families of that step name the elements of its output."""
    rng = random.Random(46)
    spaces = [pseudo_circle_space(), sierpinski_space(), interval_cover_space()]
    spaces += [gen(rng) for gen in (random_space, random_joined_space) for _ in range(10)]
    not_sheaves = 0
    for space in spaces:
        site = site_from_finite_space(space)
        for _ in range(4):
            sp = random_set_presheaf(rng, site.category)
            not_sheaves += not is_sheaf_set(site, sp).ok
            rep = is_sheaf_set(site, gamma_prime_set(site, sp).presheaf)
            assert rep.ok, (space.opens, sp.values, rep.kind)
    assert not_sheaves > 20


def test_sections_set_rejects_foreign_presheaf():
    _, site = _pc()
    other = site_from_finite_space(sierpinski_space())
    sp = terminal_set_presheaf(other.category)
    with pytest.raises(InputError):
        sections_set(site.category, sp)


def test_set_presheaf_map_rejects_covariant_endpoint():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0"])
    # the same tables read as a covariant functor; naturality would hold
    # square for square, but in the wrong direction
    cov = SetFunctor(cat, sp.values, sp.action, covariant=True)
    ident = {x: {"0": "0"} for x in cat.objects}
    assert validate_set_presheaf_map(SetPresheafMap(sp, sp, ident)).ok
    for ends in ((sp, cov), (cov, sp), (cov, cov)):
        with pytest.raises(InputError):
            validate_set_presheaf_map(SetPresheafMap(*ends, ident))


def test_functor_values_must_cover_every_object():
    _, site = _pc()
    cat = site.category
    p = discretize(constant_set_presheaf(cat, ["0"]), 2)
    del p.values[open_id("ab")]
    with pytest.raises(InputError):
        Functor(cat, 2, p.values, p.action, covariant=False)


def test_functor_refuses_a_missing_action_and_an_action_between_wrong_values():
    _, site = _pc()
    cat = site.category
    p = discretize(constant_set_presheaf(cat, ["0", "1"]), 2)
    q = discretize(constant_set_presheaf(cat, ["0"]), 2)
    m = next(m for m in cat.morphisms if not cat.is_identity(m))
    missing = {k: v for k, v in p.action.items() if k != m}
    with pytest.raises(InputError, match="actions must match"):
        Functor(cat, 2, p.values, missing, covariant=False)
    for wrong in (q.action[m], SimplicialMap(p.action[m].source, q.values[cat.src(m)], ())):
        with pytest.raises(InputError, match="does not go between"):
            Functor(cat, 2, p.values, {**p.action, m: wrong}, covariant=False)


def test_presheaf_map_refuses_ends_and_components_that_do_not_fit():
    _, site = _pc()
    cat = site.category
    pm = discretize_map(sheafify_set(site, constant_set_presheaf(cat, ["0", "1"])).unit, 2)
    src, tgt, comps = pm.source, pm.target, pm.components
    x = next(iter(comps))
    cov = point_functor(cat, 2, covariant=True)
    other_cap = discretize(constant_set_presheaf(cat, ["0"]), 3)
    other_site = site_from_finite_space(sierpinski_space())
    foreign = point_functor(other_site.category, 2, covariant=False)
    refused = [
        (cov, tgt, comps),
        (src, cov, comps),
        (src, constant_set_presheaf(cat, ["0"]), comps),
        (src, other_cap, comps),
        (src, foreign, comps),
        (src, tgt, {y: c for y, c in comps.items() if y != x}),
        (src, tgt, {**comps, "ghost": comps[x]}),
        (src, tgt, {**comps, x: SimplicialMap.identity(src.values[x])}),
    ]
    for ends in refused:
        with pytest.raises(InputError):
            PresheafMap(*ends)
    assert PresheafMap(src, tgt, dict(comps)).components == comps
