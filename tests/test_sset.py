"""Simplicial set layer: identities, constructors, serialization."""

import io
import random
import re
from array import array
from functools import partial

from finsite import catsite, sset
from finsite.canon import cjson
from finsite.catsite import nerve, poset_category, site_from_finite_space
from finsite.gallery import bz2_category, circle_sset, interval_cover_space
from finsite.presheaf import discretize, point_functor
from finsite.realization import order_complex_functor, realize
from finsite.reports import InputError, ValidationError
from finsite.sset import (
    SimplicialMap,
    SimplicialSet,
    discrete_sset,
    from_json,
    json_layout,
    pi0,
    point_sset,
    tabulate,
    validate_map,
    validate_sset,
)

import pytest

import fixtures
import oracles
from fixtures import disjoint_union, product, standard_simplex
from oracles import DictSimplicialSet, formula_realize, pi0_components, sset_to_json, table_mismatches
from randgen import (
    random_compact_document,
    random_nested_diagram,
    random_poset_with_max,
    random_set_presheaf,
)


def test_standard_simplex_counts():
    # level k of the n-simplex has C(n+k+1, k+1) simplices
    from math import comb

    for n in range(4):
        s = standard_simplex(n, 4)
        assert s.counts() == tuple(comb(n + k + 1, k + 1) for k in range(5))
        assert validate_sset(s).ok


def test_standard_simplex_nondegenerate():
    s = standard_simplex(2, 4)
    assert s.nondegenerate_counts() == (3, 3, 1, 0, 0)


def test_simplicial_identities_random_spotcheck():
    rng = random.Random(2)
    s = product(standard_simplex(2, 3), standard_simplex(1, 3))
    for _ in range(200):
        k = rng.randint(2, 3)
        z = rng.choice(s.simplices(k))
        i = rng.randint(0, k)
        j = rng.randint(0, k)
        if i < j:
            # d_i d_j == d_{j-1} d_i
            assert fixtures.face(s, k - 1, fixtures.face(s, k, z, j), i) == fixtures.face(
                s, k - 1, fixtures.face(s, k, z, i), j - 1
            )
        if k < 3:
            assert fixtures.face(s, k + 1, fixtures.degeneracy(s, k, z, i), i) == z
            assert fixtures.face(s, k + 1, fixtures.degeneracy(s, k, z, i), i + 1) == z


def test_validate_sset_catches_broken_face():
    s = standard_simplex(2, 2)
    top = s.simplices(2)[s.nondegenerate(2)[0]]
    wrong = fixtures.face(s, 2, top, 2)

    def face(k, z, i):
        if (k, z, i) == (2, top, 0):
            return wrong
        return fixtures.face(s, k, z, i)

    broken = tabulate(2, [s.simplices(k) for k in range(3)], face, partial(fixtures.degeneracy, s))
    assert not validate_sset(broken).ok


def test_product_point_is_identity_shape():
    s = standard_simplex(2, 3)
    p = product(s, point_sset(3))
    assert p.counts() == s.counts()
    assert validate_sset(p).ok


def test_product_of_intervals():
    p = product(standard_simplex(1, 2), standard_simplex(1, 2))
    assert validate_sset(p).ok
    # the square: 4 vertices, 5 edges, 2 triangles
    assert p.nondegenerate_counts() == (4, 5, 2)


def test_disjoint_union_counts_and_pi0():
    a = standard_simplex(2, 2)
    b = standard_simplex(0, 2)
    u = disjoint_union([a, b])
    assert validate_sset(u).ok
    assert u.counts() == tuple(x + y for x, y in zip(a.counts(), b.counts()))
    assert len(pi0(u)) == 2
    assert len(pi0(a)) == 1


def test_empty_and_discrete():
    e = discrete_sset([], 2)
    assert e.counts() == (0, 0, 0)
    d = discrete_sset(["x", "y", "z"], 2)
    assert d.counts() == (3, 3, 3)
    assert d.nondegenerate_counts() == (3, 0, 0)
    assert len(pi0(d)) == 3


def _component_ids(s) -> tuple:
    """pi0(s) with each vertex position read back as its identifier."""
    return tuple(tuple(s.levels[0][p] for p in comp) for comp in pi0(s))


def test_pi0_classes_have_vertices():
    d = disjoint_union([standard_simplex(1, 2), standard_simplex(0, 2)])
    comps = pi0(d)
    assert sorted(p for comp in comps for p in comp) == list(range(len(d.levels[0])))
    assert all(comp and list(comp) == sorted(comp) for comp in comps)
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    assert _component_ids(d) == pi0_components(d)


def test_pi0_matches_reference_components():
    # Two components whose vertices interleave in canonical order.
    related = {("a", "c"), ("b", "d")}
    interleaved = nerve(poset_category("abcd", lambda x, y: x == y or (x, y) in related), 2)
    rng = random.Random(3)
    sets = [
        interleaved,
        disjoint_union([circle_sset(2), standard_simplex(0, 2), interleaved]),
        discrete_sset(["y", "x", "z"], 0),
        discrete_sset([], 1),
    ]
    for _ in range(4):
        cat, _ = random_poset_with_max(rng, rng.randint(2, 5))
        f = random_nested_diagram(rng, cat, 2)
        sets += [f.values[x] for x in cat.objects]
    for s in sets:
        assert _component_ids(s) == pi0_components(s)
    assert [len(pi0(s)) for s in sets[:4]] == [2, 4, 3, 0]


def test_map_identity_and_compose():
    s = standard_simplex(2, 3)
    ident = SimplicialMap.identity(s)
    assert validate_map(ident).ok
    assert ident.compose(ident) == ident


def test_map_validation_rejects_nonsimplicial():
    a = standard_simplex(1, 1)
    verts = a.simplices(0)
    # send both endpoints of the edge to one vertex but keep the edge fixed
    def rule(k, z):
        if k == 0:
            return verts[0]
        return z

    m = SimplicialMap.from_function(a, a, rule)
    assert not validate_map(m).ok


def test_map_from_function_refuses_an_image_outside_the_target():
    a = standard_simplex(1, 1)

    def rule(k, z):
        return "nowhere" if z == (0, 1) else z

    with pytest.raises(ValidationError, match=r"map-codomain: image not in target") as err:
        SimplicialMap.from_function(a, a, rule)
    assert err.value.report.kind == "map-codomain"
    assert err.value.report.witness == (1, (0, 1), "nowhere")


def test_json_roundtrip_full():
    s = product(standard_simplex(1, 3), standard_simplex(1, 3))
    data = sset_to_json(s)
    back = from_json(data)
    assert back.counts() == s.counts()
    assert back.nondegenerate_counts() == s.nondegenerate_counts()
    assert validate_sset(back).ok


def test_json_compact_circle():
    data = {
        "dim_cap": 3,
        "nondegenerate": {"0": ["v"], "1": ["e"]},
        "faces": {"1": {"e": ["v", "v"]}},
    }
    s = from_json(data)
    assert validate_sset(s).ok
    assert s.nondegenerate_counts() == (1, 1, 0, 0)
    assert len(pi0(s)) == 1


def test_json_compact_sphere_via_degenerate_faces():
    # two 2-cells glued along a degenerate boundary: the 2-sphere
    data = {
        "dim_cap": 3,
        "nondegenerate": {"0": ["v"], "2": ["n", "s"]},
        "faces": {
            "2": {
                "n": [{"degeneracy": [0], "of": "v"}] * 3,
                "s": [{"degeneracy": [0], "of": "v"}] * 3,
            }
        },
    }
    s = from_json(data)
    assert validate_sset(s).ok
    assert s.nondegenerate_counts() == (1, 0, 2, 0)


# The circle, the 2-sphere and the real projective plane, in compact form.
COMPACT = {
    "circle": {"nondegenerate": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"e": ["v", "v"]}}},
    "sphere": {
        "nondegenerate": {"0": ["v"], "2": ["n", "s"]},
        "faces": {"2": {z: [{"degeneracy": [0], "of": "v"}] * 3 for z in "ns"}},
    },
    "rp2": {
        "nondegenerate": {"0": ["v"], "1": ["a"], "2": ["f"]},
        "faces": {"1": {"a": ["v", "v"]}, "2": {"f": ["a", {"degeneracy": [0], "of": "v"}, "a"]}},
    },
}


def test_compact_documents_match_the_word_rewriting_loader():
    # The Eilenberg-Zilber pairs and the normal-form words give equal levels,
    # faces and degeneracies, on seeded random documents and the named ones.
    rng = random.Random(19)
    docs, kinds = [], []
    for _ in range(1000):
        doc, declared = random_compact_document(rng)
        docs.append(doc)
        kinds += declared
    docs += [{"dim_cap": cap, **doc} for doc in COMPACT.values() for cap in range(1, 7)]
    for doc in docs:
        assert from_json(doc) == oracles.expand_compact(doc)
    assert min(kinds.count(kind) for kind in ("name", "normal", "drawn")) > 1000
    words = [
        ref["degeneracy"]
        for doc in docs
        for rows in doc["faces"].values()
        for row in rows.values()
        for ref in row
        if isinstance(ref, dict)
    ]
    assert sum(any(a <= b for a, b in zip(w, w[1:])) for w in words) > 500


@pytest.mark.parametrize("word, top", [([5], 2), ([-1], 2), ([0, 1], 3)])
def test_compact_degeneracy_index_out_of_range_is_an_input_error(word, top):
    # the word acts right to left, so in [0, 1] s_1 meets the vertex first
    index = word[-1]
    normal = {"degeneracy": list(range(top - 2, -1, -1)), "of": "v"}
    doc = {
        "dim_cap": top,
        "nondegenerate": {"0": ["v"], str(top): ["t"]},
        "faces": {str(top): {"t": [{"degeneracy": word, "of": "v"}] + [normal] * top}},
    }
    with pytest.raises(InputError, match=rf"degeneracy index {index} outside 0\.\.0 on 'v'"):
        from_json(doc)


@pytest.mark.parametrize(
    "faces, extra, named",
    [
        ({"e": ["v", "v", "v"]}, {}, "1-simplex 'e' has 3 faces, not 2"),
        ({"e": ["v", "v"], "zz": ["v", "v"]}, {}, "'zz', which is not a declared 1-simplex"),
        ({"e": ["v", "v"]}, {"degeneracies": {"0": {"v": ["zz"]}}}, "'degeneracies' table"),
        ({"e": ["v", "v"]}, {"simplices": {"0": ["v"]}}, "'simplices' table"),
    ],
    ids=["extra-face", "undeclared-faces", "degeneracy-table", "simplices-table"],
)
def test_compact_entries_that_are_never_read_are_input_errors(faces, extra, named):
    doc = {"dim_cap": 1, "nondegenerate": {"0": ["v"], "1": ["e"]}, "faces": {"1": faces}}
    with pytest.raises(InputError, match=re.escape(named)):
        from_json({**doc, **extra})


def test_compact_simplices_above_the_cap_keep_their_faces():
    # truncation: a declared 2-simplex at cap 1 is legal, with its faces
    doc = {**COMPACT["rp2"], "dim_cap": 1}
    assert from_json(doc).nondegenerate_counts() == (1, 1)


def test_from_json_rejects_garbage():
    with pytest.raises(InputError):
        from_json({"nondegenerate": {}})
    with pytest.raises(InputError):
        from_json({"dim_cap": 1, "levels": "nope"})
    with pytest.raises(InputError, match="undeclared simplex 'w'"):
        from_json(
            {
                "dim_cap": 2,
                "nondegenerate": {"0": ["v"], "1": ["e"]},
                "faces": {"1": {"e": ["v", "w"]}},
            }
        )


@pytest.fixture
def tables_checked(monkeypatch):
    """Checks every set built while the test runs against the identifier-keyed
    reference tables computed from the same formulas; yields the list of sets
    checked."""
    built = []
    real = sset.tabulate

    def checked(dim_cap, levels, face_fn, deg_fn):
        levels = [list(level) for level in levels]
        out = real(dim_cap, levels, face_fn, deg_fn)
        assert table_mismatches(out, DictSimplicialSet(dim_cap, levels, face_fn, deg_fn)) == []
        built.append(out)
        return out

    for module in (sset, catsite, oracles, fixtures):
        monkeypatch.setattr(module, "tabulate", checked)
    yield built


def test_tables_match_reference_on_constructions(tables_checked):
    for n in range(4):
        standard_simplex(n, 4)
    product(standard_simplex(2, 3), standard_simplex(1, 3))
    product(circle_sset(3), standard_simplex(1, 3))
    disjoint_union([standard_simplex(2, 3), circle_sset(3), discrete_sset([], 3)])
    discrete_sset(["x", "y"], 2)
    nerve(bz2_category(), 4)
    nerve(poset_category("abc", lambda a, b: a <= b), 3)
    assert len(tables_checked) >= 12


def test_tables_match_reference_on_loaded_sets(tables_checked):
    # the 2-sphere declares degenerate faces; to_json writes the full form back
    sphere = from_json(
        {
            "dim_cap": 3,
            "nondegenerate": {"0": ["v"], "2": ["n", "s"]},
            "faces": {"2": {z: [{"degeneracy": [0], "of": "v"}] * 3 for z in "ns"}},
        }
    )
    for s in (sphere, circle_sset(4)):
        back = from_json(sset_to_json(s))
        assert back.nondegenerate_counts() == s.nondegenerate_counts()
    assert len(tables_checked) == 4


def test_tables_match_reference_on_random_realizations(tables_checked):
    # realize builds its tables by block arithmetic; the former formulas,
    # read by identifier, are the reference
    rng = random.Random(5)
    cap = 3
    for _ in range(6):
        cat, _ = random_poset_with_max(rng, rng.randint(3, 6))
        f = random_nested_diagram(rng, cat, cap)
        g = discretize(random_set_presheaf(rng, cat), cap)
        re = realize(cat, f, g, cap)
        assert validate_sset(re).ok
        ref = formula_realize(cat, f, g, cap)
        assert tables_checked[-1] is ref
        by_formula = DictSimplicialSet(cap, ref.levels, *fixtures.formulas(ref))
        assert table_mismatches(re, by_formula) == []


def _not_columns(s) -> list[tuple[str, int]]:
    """The tables of s that are not k + 1 array("i") columns of one entry per
    simplex of their level k; _faces[0] must have no columns."""
    assert (len(s._faces), len(s._degeneracies)) == (s.dim_cap + 1, s.dim_cap)
    tables = [("d", k, t) for k, t in enumerate(s._faces)]
    tables += [("s", k, t) for k, t in enumerate(s._degeneracies)]
    return [
        (op, k)
        for op, k, t in tables
        if not isinstance(t, tuple)
        or len(t) != (k + 1) * (op == "s" or k > 0)
        or any(
            not isinstance(col, array) or col.typecode != "i" or len(col) != len(s.levels[k])
            for col in t
        )
    ]


def test_every_constructor_builds_int_array_columns(tables_checked):
    # tables_checked holds every set tabulate builds (the standard simplex,
    # both from_json forms, the nerve) to its formulas by identifier; the
    # realization and the chain table are held to oracles' formulas here
    cap, space, cat = 3, interval_cover_space(), bz2_category()
    site = site_from_finite_space(space)
    f, g = order_complex_functor(space, cap, site), point_functor(site.category, cap, covariant=False)
    re = realize(site.category, f, g, cap)
    compact = {**COMPACT["rp2"], "dim_cap": cap}
    ch, named = catsite.chains(cat, cap), oracles.formula_nerve(cat, cap)
    sets = [standard_simplex(2, cap), from_json(sset_to_json(circle_sset(cap))), from_json(compact)]
    sets += [nerve(cat, cap), ch, re]
    assert [_not_columns(s) for s in sets] == [[]] * len(sets)
    assert sets[2] == oracles.expand_compact(compact)
    ref = formula_realize(site.category, f, g, cap)
    assert table_mismatches(re, DictSimplicialSet(cap, ref.levels, *fixtures.formulas(ref))) == []

    def name(c):
        return ("m",) + c[1] if c[1] else ("o", c[0])

    for k in range(cap + 1):
        for c in ch.levels[k]:
            for i in range(k + 1):
                if k:
                    assert name(fixtures.face(ch, k, c, i)) == fixtures.face(named, k, name(c), i)
                if k < cap:
                    got = fixtures.degeneracy(ch, k, c, i)
                    assert name(got) == fixtures.degeneracy(named, k, name(c), i)


def _quoted_order(k: int, n: int) -> list[int]:
    """Positions 0..n-1 of level k in the order their names "k_p" sort in."""
    names = [f'"{k}_{p}"' for p in range(n)]
    return sorted(range(n), key=names.__getitem__)


@pytest.mark.parametrize("n", [9, 10, 11, 99, 100, 101, 1000])
def test_json_layout_orders_positions_as_their_quoted_names_sort(n):
    # "k_1" < "k_10" < "k_2": past ten simplices the string order of the
    # names and the numeric order of their positions part
    orders = json_layout(discrete_sset([f"e{p}" for p in range(n)], 1))
    assert [list(order) for order in orders] == [_quoted_order(0, n), _quoted_order(1, n)]
    assert (list(orders[0]) == list(range(n))) == (n <= 10)


def test_json_layout_orders_each_level_by_its_own_size():
    s = standard_simplex(3, 3)
    assert s.counts() == (4, 10, 20, 35)
    orders = json_layout(s)
    assert [order.typecode for order in orders] == ["i"] * 4
    want = [_quoted_order(k, n) for k, n in enumerate(s.counts())]
    assert [list(order) for order in orders] == want


def test_json_layout_is_the_string_order_at_every_size_to_2100_and_the_bench_levels():
    # the digit walk against sorting by str, at every size up to 2,100 and at
    # the two largest levels of the interval cover at cap 5
    sizes = [*range(2101), 12700, 37779]
    s = SimplicialSet(len(sizes) - 1, tuple(map(range, sizes)), (), ())
    for n, order in zip(sizes, json_layout(s), strict=True):
        assert list(order) == sorted(range(n), key=str), n


def test_write_tables_is_the_reference_text_at_the_seams_of_a_piece():
    # levels of exactly 1, _PIECE and _PIECE + 1 simplices: a lone row, one
    # full piece, and a full piece followed by a piece of one row
    sets = [discrete_sset([f"e{p}" for p in range(n)], 2) for n in (1, sset._PIECE, sset._PIECE + 1)]
    sets += [standard_simplex(3, 3), discrete_sset([], 2), point_sset(0)]
    for s in sets:
        out = io.StringIO()
        sset.write_tables(s, json_layout(s), out.write)
        assert "{" + out.getvalue() + "}\n" == cjson(sset_to_json(s))


def test_nondegenerate_matches_the_reference_rule_on_gallery_and_random_sets():
    # the positions no s_i image hits, against the oracle's rule read by
    # identifier: z is degenerate when z == s_i(d_i z) for some i < k
    rng = random.Random(23)
    space = interval_cover_space()
    site = site_from_finite_space(space)
    terminal = point_functor(site.category, 3, covariant=False)
    sets = [circle_sset(4), nerve(bz2_category(), 4), standard_simplex(3, 4)]
    sets += [from_json({**doc, "dim_cap": 4}) for doc in COMPACT.values()]
    sets.append(realize(site.category, order_complex_functor(space, 3, site), terminal, 3))
    for _ in range(6):
        cat, _ = random_poset_with_max(rng, rng.randint(3, 6))
        f = random_nested_diagram(rng, cat, 3)
        sets.append(realize(cat, f, discretize(random_set_presheaf(rng, cat), 3), 3))
        sets.append(from_json(random_compact_document(rng)[0]))
    for s in sets:
        ref = DictSimplicialSet(s.dim_cap, s.levels, *fixtures.formulas(s))
        for k in range(s.dim_cap + 1):
            assert tuple(s.levels[k][p] for p in s.nondegenerate(k)) == ref.nondegenerate(k)
    assert sum(len(s.nondegenerate(s.dim_cap)) < len(s.levels[s.dim_cap]) for s in sets) > 10


def test_tabulate_refuses_an_image_outside_its_level():
    s = standard_simplex(1, 2)

    def face(k, z, i):
        return "nowhere" if (k, z, i) == (2, (0, 1, 1), 1) else fixtures.face(s, k, z, i)

    levels = [s.simplices(k) for k in range(3)]
    outside = r"face-codomain: d_1 lands outside at \(2,\(0,1,1\),1\)"
    with pytest.raises(ValidationError, match=outside) as err:
        tabulate(2, levels, face, partial(fixtures.degeneracy, s))
    assert err.value.report.witness == (2, (0, 1, 1), 1)
    with pytest.raises(ValidationError, match="degeneracy-codomain"):
        tabulate(2, levels, partial(fixtures.face, s), lambda k, z, i: z)
    with pytest.raises(ValidationError, match="duplicate-simplex"):
        tabulate(2, [levels[0] * 2, levels[1], levels[2]], *fixtures.formulas(s))


def test_validate_sset_names_the_first_broken_simplex_in_level_order():
    # In Delta^3, (0,1,2) with d_2 moved to (2,3) fails d_0 d_2, and the later
    # (1,2,3) with d_0 moved to (0,1) fails d_0 d_1, which comes first in
    # operator order; with both moved, the report names the earlier simplex.
    s = standard_simplex(3, 3)
    edges, triangles = s.levels[1], s.levels[2]
    early = (2, triangles.index((0, 1, 2)), edges.index((2, 3)))
    late = (0, triangles.index((1, 2, 3)), edges.index((0, 1)))

    def moved(*edits):
        cols = [col[:] for col in s._faces[2]]
        for i, p, q in edits:
            cols[i][p] = q
        faces = s._faces[:2] + (tuple(cols),) + s._faces[3:]
        return validate_sset(sset.SimplicialSet(3, s.levels, faces, s._degeneracies))

    reports = [moved(early), moved(late), moved(early, late), moved(late, early)]
    assert [(r.kind, r.witness) for r in reports] == [
        ("identity-dd", (2, (0, 1, 2), 0, 2)),
        ("identity-dd", (2, (1, 2, 3), 0, 1)),
        ("identity-dd", (2, (0, 1, 2), 0, 2)),
        ("identity-dd", (2, (0, 1, 2), 0, 2)),
    ]


def _degeneracy_flags_disagree(s) -> bool:
    """Whether some level's s_i images differ from the simplices z with
    s_i(d_i z) == z, read straight off the position tables."""
    for k in range(1, s.dim_cap + 1):
        degs, faces = s._degeneracies[k - 1], s._faces[k]
        images = {q for col in degs for q in col}
        flagged = {
            p
            for p in range(len(s.levels[k]))
            if any(degs[i][faces[i][p]] == p for i in range(k))
        }
        if images != flagged:
            return True
    return False


def test_validate_sset_needs_no_degeneracy_flag_check():
    # Rewrite one degeneracy entry to every other position of its level.
    # Whenever that makes the images and the s_i(d_i z) == z criterion
    # disagree, a simplicial identity already fails.
    disagreements = 0
    for s in (standard_simplex(2, 3), circle_sset(3), nerve(bz2_category(), 3)):
        for k in range(s.dim_cap):
            for p in range(len(s.levels[k])):
                for i in range(k + 1):
                    for q in range(len(s.levels[k + 1])):
                        if q == s._degeneracies[k][i][p]:
                            continue
                        level = [col[:] for col in s._degeneracies[k]]
                        level[i][p] = q
                        degs = s._degeneracies[:k] + (tuple(level),) + s._degeneracies[k + 1 :]
                        t = sset.SimplicialSet(s.dim_cap, s.levels, s._faces, degs)
                        if _degeneracy_flags_disagree(t):
                            disagreements += 1
                            rep = validate_sset(t)
                            assert not rep.ok and rep.kind.startswith("identity-")
    # 16 rewrites of the 2-simplex and 11 of the nerve make them disagree
    assert disagreements == 27
