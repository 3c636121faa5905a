"""Categories, sieves, sites, finite spaces."""

import itertools
import random

import pytest

from finsite import catsite
from finsite.catsite import (
    FinCat,
    FiniteSpace,
    Morphism,
    Sieve,
    Site,
    all_sieves,
    category_from_json,
    category_to_json,
    chains,
    generate_sieve,
    has_final_object,
    maximal_sieve,
    nerve,
    open_id,
    poset_category,
    pullback_sieve,
    site_from_finite_space,
    space_from_json,
    space_to_json,
    validate_category,
    validate_site,
    validate_space,
)
from finsite.gallery import (
    bz2_category,
    interval_cover_space,
    point_category,
    pseudo_circle_space,
    sierpinski_space,
)
from finsite.reports import InputError
from finsite.sset import pi0, validate_sset

from oracles import formula_chains, formula_nerve, sieve_category, union_coverings
from randgen import random_joined_space, random_space


def test_poset_category_shape():
    cat = poset_category(["a", "b", "c"], lambda x, y: x <= y)
    assert validate_category(cat).ok
    # chain a <= b <= c: 6 morphisms including identities
    assert len(cat.morphisms) == 6
    assert cat.compose("b<=c", "a<=b") == "a<=c"
    assert has_final_object(cat) == "c"


def test_validate_category_catches_bad_composition():
    cat = bz2_category()
    broken = FinCat(
        ["*"],
        [Morphism("e", "*", "*"), Morphism("t", "*", "*")],
        {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "e", ("t", "e"): "t", ("t", "t"): "e"},
    )
    assert validate_category(cat).ok
    # e.t must equal t for e to be the identity
    assert not validate_category(broken).ok


def test_nerve_of_interval_category():
    cat = poset_category(["0", "1"], lambda x, y: x <= y)
    n = nerve(cat, 3)
    assert validate_sset(n).ok
    # nerve of the arrow is the 1-simplex
    assert n.nondegenerate_counts() == (2, 1, 0, 0)


def test_nerve_of_group_counts():
    n = nerve(bz2_category(), 4)
    assert validate_sset(n).ok
    assert n.counts() == (1, 2, 4, 8, 16)
    assert n.nondegenerate_counts() == (1, 1, 1, 1, 1)


def _nerve_cases():
    """bz2, the point, the Sierpinski, pseudo-circle and interval-cover sites
    and 20 seeded random space sites, each at caps 0..4."""
    spaces = [sierpinski_space(), pseudo_circle_space(), interval_cover_space()]
    rng = random.Random(16)
    spaces += [random_space(rng) for _ in range(20)]
    cats = [bz2_category(), point_category()] + [site_from_finite_space(s).category for s in spaces]
    return [(cat, cap) for cat in cats for cap in range(5)]


def test_nerve_matches_the_formula_oracle():
    for cat, cap in _nerve_cases():
        n, ref = nerve(cat, cap), formula_nerve(cat, cap)
        assert n.levels == ref.levels
        assert (n._faces, n._degeneracies) == (ref._faces, ref._degeneracies)


def test_chain_table_is_a_simplicial_set_of_the_chains():
    for cat, cap in _nerve_cases():
        ch = chains(cat, cap)
        assert validate_sset(ch).ok
        assert [list(level) for level in ch.levels] == formula_chains(cat, cap)
        assert chains(cat, cap) is ch


def test_sieve_generation_and_pullback():
    space = pseudo_circle_space()
    site = site_from_finite_space(space)
    cat = site.category
    x = open_id("abcd")
    s = generate_sieve(
        cat, x, [f"{open_id('abc')}<={x}", f"{open_id('abd')}<={x}"]
    )
    assert len(s.members) == 5
    # pulling back along an inclusion keeps exactly the members that factor
    f = f"{open_id('abc')}<={x}"
    back = pullback_sieve(cat, f, s)
    assert back.base == open_id("abc")
    assert back == maximal_sieve(cat, open_id("abc"))


def test_sieve_category_objects_are_members():
    space = sierpinski_space()
    site = site_from_finite_space(space)
    cat = site.category
    top = open_id("oc")
    s = maximal_sieve(cat, top)
    mapped = sieve_category(cat, s)
    assert set(mapped.category.objects) == set(s.members)
    assert validate_category(mapped.category).ok


def test_all_sieves_on_sierpinski_top():
    space = sierpinski_space()
    site = site_from_finite_space(space)
    cat = site.category
    top = open_id("oc")
    sieves = all_sieves(cat, top)
    # sieves on the 2-chain poset at the top: empty, {o}, maximal
    assert len(sieves) == 3
    sizes = sorted(len(s.members) for s in sieves)
    assert sizes == [0, 1, 2]


def test_sieve_enumeration_refuses_large_fan_in_up_front(monkeypatch):
    # 18 incomparable atoms under a top: 19 morphisms into the top
    atoms = [f"p{i:02d}" for i in range(18)]
    cat = poset_category(atoms + ["top"], lambda a, b: a == b or b == "top")
    # the discrete space on five points: 31 opens below the whole set
    pts = "pqrst"
    space = FiniteSpace.build(
        pts, [c for r in range(1, 6) for c in itertools.combinations(pts, r)]
    )

    def no_sieves(*args):
        raise AssertionError("a sieve was enumerated before the refusal")

    monkeypatch.setattr(catsite, "Sieve", no_sieves)
    with pytest.raises(InputError, match="19 morphisms"):
        all_sieves(cat, "top")
    with pytest.raises(InputError, match="31 morphisms"):
        site_from_finite_space(space)


def test_site_coverings_pseudo_circle():
    site = site_from_finite_space(pseudo_circle_space())
    assert validate_site(site).ok
    by_size = {x: len(site.coverings[x]) for x in site.category.objects}
    assert by_size == {
        open_id("abcd"): 2,
        open_id("abc"): 1,
        open_id("abd"): 1,
        open_id("ab"): 2,
        open_id("a"): 1,
        open_id("b"): 1,
    }


def test_minimal_covering_sieve_is_covering_and_minimum():
    site = site_from_finite_space(pseudo_circle_space())
    for x in site.category.objects:
        smin = site.minimal_covering_sieve(x)
        assert site.is_covering(smin)
        for s in site.coverings[x]:
            assert smin.members <= s.members


def test_a_site_stores_the_minimal_sieves_and_derives_the_coverings():
    """On the gallery spaces and 40 seeded random ones, a sieve covers exactly
    when its members union to the open, and the minimal sieve is the
    intersection of the covering ones; the list is built on first read."""
    rng = random.Random(29)
    spaces = [sierpinski_space(), pseudo_circle_space(), interval_cover_space()]
    spaces += [random_space(rng) for _ in range(40)]
    for space in spaces:
        site = site_from_finite_space(space)
        assert "coverings" not in vars(site)
        cat = site.category
        ref = union_coverings(space, cat)
        for x in cat.objects:
            smin = frozenset.intersection(*(s.members for s in ref[x]))
            assert site.minimal_covering_sieve(x) == Sieve(x, smin)
            assert [site.is_covering(s) for s in all_sieves(cat, x)] == [
                s in ref[x] for s in all_sieves(cat, x)
            ]
        assert site.coverings == ref and list(site.coverings) == list(cat.objects)


def _chain_site(n: int, **minimal) -> Site:
    """The chain a <= b <= ... on n objects, with the given sieves (a Sieve,
    or members of a sieve on the object) as minimal covering sieves, and the
    maximal sieve for every object not named."""
    cat = poset_category("abc"[:n], lambda x, y: x <= y)
    named = {x: s if isinstance(s, Sieve) else Sieve(x, frozenset(s)) for x, s in minimal.items()}
    return Site(cat, {x: named.get(x, maximal_sieve(cat, x)) for x in cat.objects})


def test_validate_site_accepts_the_atomic_topology_on_a_chain():
    # every nonempty sieve covers: the minimal one is generated by a's arrow
    site = _chain_site(3, b={"a<=b"}, c={"a<=c"})
    assert validate_site(site).ok
    assert {x: len(s) for x, s in site.coverings.items()} == {"a": 1, "b": 2, "c": 3}


@pytest.mark.parametrize(
    "site, kind, witness",
    [
        (_chain_site(3, c=Sieve("b", frozenset({"a<=b", "b<=b"}))), "covering-base", ("c",)),
        (_chain_site(3, c={"b<=c"}), "covering-not-sieve", ("c", ("b<=c",))),
        (_chain_site(3, c={"a<=b", "b<=b"}), "covering-not-sieve", ("c", ("a<=b", "b<=b"))),
        # pulled back to b, the sieve {a<=c} is {a<=b}, which misses id_b
        (_chain_site(3, c={"a<=c"}), "stability", ("c", "b<=c")),
        # the empty sieve covers a, so the empty sieve on b covers locally
        (_chain_site(2, a=set(), b={"a<=b"}), "transitivity", ("b", ())),
    ],
)
def test_validate_site_refuses_each_broken_axiom(site, kind, witness):
    rep = validate_site(site)
    assert (rep.ok, rep.kind, rep.witness) == (False, kind, witness)


def test_a_site_needs_a_minimal_sieve_for_every_object():
    cat = poset_category("ab", lambda x, y: x <= y)
    with pytest.raises(InputError, match="one minimal covering sieve per object"):
        Site(cat, {"a": maximal_sieve(cat, "a")})


def test_random_spaces_make_valid_sites():
    rng = random.Random(11)
    for _ in range(8):
        space = random_space(rng)
        assert validate_space(space).ok
        site = site_from_finite_space(space)
        assert validate_site(site).ok


def test_joined_spaces_make_valid_sites_with_many_proper_covers():
    """random_joined_space's sites satisfy the axioms, their minimal sieves
    give the coverings of the definition, and most covering sieves are not
    maximal, where random_space's sites from the same seed hold 15 of 96."""
    rng = random.Random(30)
    proper = total = 0
    for _ in range(30):
        space = random_joined_space(rng)
        site = site_from_finite_space(space)
        assert validate_space(space).ok and validate_site(site).ok
        assert site.coverings == union_coverings(space, site.category)
        for x, covers in site.coverings.items():
            total += len(covers)
            proper += sum(s != maximal_sieve(site.category, x) for s in covers)
    assert (proper, total) == (372, 592)


def test_specialization_order():
    space = sierpinski_space()
    # o is open, so o <= c fails and c has o in every neighborhood
    assert space.specialization_leq("o", "c")
    assert not space.specialization_leq("c", "o")


def test_space_validation_rejects_missing_whole():
    space = FiniteSpace.build(["p", "q"], [{"p"}])
    rep = validate_space(space)
    assert not rep.ok and rep.kind == "whole-missing"


def test_space_validation_rejects_union_gap():
    space = FiniteSpace(
        ("p", "q", "r"),
        (frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q", "r"})),
    )
    rep = validate_space(space)
    assert not rep.ok and rep.kind == "union"


def test_category_json_roundtrip_preserves_identities():
    cat = bz2_category()
    back = category_from_json(category_to_json(cat))
    assert back == cat
    assert back.identities == cat.identities


def test_category_json_synthesizes_missing_identities():
    data = {
        "objects": ["x", "y"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
        "composition": [],
    }
    cat = category_from_json(data)
    assert validate_category(cat).ok
    assert cat.identity("x") == "id:x"
    assert cat.compose("f", "id:x") == "f"


def test_space_json_roundtrip():
    space = pseudo_circle_space()
    back = space_from_json(space_to_json(space))
    assert back == space


def test_category_json_rejects_duplicate_ids():
    data = {
        "objects": ["x"],
        "morphisms": [
            {"id": "f", "src": "x", "tgt": "x"},
            {"id": "f", "src": "x", "tgt": "x"},
        ],
    }
    with pytest.raises(InputError):
        category_from_json(data)


def test_nerve_pi0_counts_components():
    cat = poset_category(["a", "b"], lambda x, y: x == y)
    n = nerve(cat, 2)
    assert len(pi0(n)) == 2
