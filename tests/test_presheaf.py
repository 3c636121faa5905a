"""Set presheaves, sections, sheafification, pi0 certificates."""

import random

import pytest

from finsite.catsite import open_id, site_from_finite_space
from finsite.gallery import (
    collapse_set_presheaf,
    pseudo_circle_space,
    sierpinski_space,
)
from finsite.presheaf import (
    Functor,
    SetFunctor,
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    discretize_map,
    gamma_prime_map,
    gamma_prime_set,
    illusie_pi0_certificate,
    is_sheaf_set,
    matching_sections,
    pi0_functor,
    representable_set_presheaf,
    restrict,
    section_value,
    sections_set,
    sheafify_set,
    terminal_set_presheaf,
    validate_set_functor,
    validate_set_presheaf_map,
)
from finsite.reports import InputError

from oracles import germs, stalk_family_sheaf, stalk_family_unit
from randgen import disjoint_union_sp, product_sp, random_set_presheaf


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
        assert section_value(secs[0], x) == sp.values[x][0]


def test_matching_sections_two_open_cover():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    from finsite.gallery import two_open_cover

    s = two_open_cover(site)
    secs = matching_sections(site, sp, s)
    # {a} and {b} do not meet inside {a,b}, so sections choose freely
    assert len(secs) == 4


def test_restrict_dispatches_on_type():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0"])
    from finsite.gallery import two_open_cover

    s = two_open_cover(site)
    out = restrict(sp, s)
    assert set(out.category.objects) == set(s.members)
    p = discretize(sp, 2)
    out2 = restrict(p, s)
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
    pm = gamma_prime_map(site, sh.unit)
    assert validate_set_presheaf_map(pm).ok


def test_disjoint_union_and_product_presheaves_validate():
    _, site = _pc()
    cat = site.category
    a = constant_set_presheaf(cat, ["0", "1"])
    b = representable_set_presheaf(cat, open_id("ab"))
    assert validate_set_functor(disjoint_union_sp(a, b)).ok
    assert validate_set_functor(product_sp(a, b)).ok


def test_pi0_presheaf_counts_components_per_object():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    p = discretize(sp, 2)
    classes, _ = pi0_functor(p)
    assert all(len(classes.values[x]) == 2 for x in cat.objects)


def test_illusie_certificate_accepts_sheafification_unit():
    _, site = _pc()
    cat = site.category
    sp = constant_set_presheaf(cat, ["0", "1"])
    sh = sheafify_set(site, sp)
    pm = discretize_map(sh.unit, 2)
    rep = illusie_pi0_certificate(site, pm)
    assert rep.ok


def test_illusie_certificate_rejects_component_collapse():
    _, site = _pc()
    cat = site.category
    two = constant_set_presheaf(cat, ["0", "1"])
    one = terminal_set_presheaf(cat)
    from finsite.presheaf import SetPresheafMap

    crush = SetPresheafMap(
        two, one, {x: {v: one.values[x][0] for v in two.values[x]} for x in cat.objects}
    )
    rep = illusie_pi0_certificate(site, discretize_map(crush, 2))
    assert not rep.ok and rep.kind == "pi0-sheaf-not-bijective"


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
