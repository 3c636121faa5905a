"""Realizations, covariant descent, the projector comparison maps."""

import io
import json
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from finsite import catsite, realization, sset
from finsite.canon import cjson, csorted
from finsite.catsite import (
    MappedCat,
    Sieve,
    has_final_object,
    maximal_sieve,
    nerve,
    open_id,
    poset_category,
    site_from_finite_space,
)
from finsite.gallery import (
    bz2_category,
    circle_sset,
    collapse_set_presheaf,
    interval_cover_sieve,
    interval_cover_space,
    point_category,
    pseudo_circle_cover,
    pseudo_circle_space,
    sierpinski_space,
    swap_set_presheaf,
    two_open_cover,
)
from finsite.homology import component_count, sset_homology
from finsite.presheaf import (
    Functor,
    SetFunctor,
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    point_functor,
    reindex,
    sheafify_set,
    terminal_set_presheaf,
    validate_functor,
)
from finsite.realization import covariant_descent_check, order_complex_functor, realize, write_realization
from finsite.reports import InputError, ValidationError
from finsite.sset import SimplicialMap, SimplicialSet, pi0, validate_map, validate_sset

import fixtures
import oracles
from oracles import (
    DictSimplicialMap,
    ProjectorData,
    dict_validate_map,
    discretize_map,
    formula_realize,
    induced_map,
    induced_realization_map,
    projector_image,
    projector_maps,
    projector_rules,
    push_rule,
    realization_to_json,
    sections_presheaf_on_triples,
    slice_descent_realization,
    triples_category,
    validate_projector,
)
from randgen import (
    random_nested_diagram,
    random_poset_with_max,
    random_set_presheaf,
    random_space,
)


def _pc_site():
    space = pseudo_circle_space()
    return space, site_from_finite_space(space)


def test_realize_point_category_recovers_g_value():
    cat = point_category()
    circle = circle_sset(3)
    g = Functor(cat, 3, {"*": circle}, {"id:*": SimplicialMap.identity(circle)}, covariant=False)
    re = realize(cat, point_functor(cat, 3, covariant=True), g, 3)
    assert validate_sset(re).ok
    assert re.counts() == circle.counts()
    h = sset_homology(re, 2)
    assert [x.label() for x in h.groups] == ["Z", "Z", "0"]


def test_realize_nerve_of_group():
    cat = bz2_category()
    pt, terminal = point_functor(cat, 4, covariant=True), point_functor(cat, 4, covariant=False)
    re = realize(cat, pt, terminal, 4)
    assert validate_sset(re).ok
    assert re.nondegenerate_counts() == (1, 1, 1, 1, 1)
    h = sset_homology(re, 3)
    assert [g.summands for g in h.groups] == [(0,), (2,), (), (2,)]


def test_realize_free_action_is_contractible():
    cat = bz2_category()
    from finsite.gallery import swap_set_presheaf

    g = discretize(swap_set_presheaf(cat), 4)
    re = realize(cat, point_functor(cat, 4, covariant=True), g, 4)
    assert validate_sset(re).ok
    assert len(pi0(re)) == 1
    h = sset_homology(re, 3)
    assert [x.label() for x in h.groups] == ["Z", "0", "0", "0"]


def test_realize_order_complex_of_pseudo_circle():
    space, site = _pc_site()
    f = order_complex_functor(space, 4, site)
    re = realize(site.category, f, point_functor(site.category, 4, covariant=False), 4)
    assert validate_sset(re).ok
    assert re.counts() == (14, 46, 100, 180, 290)
    assert re.nondegenerate_counts() == (14, 32, 22, 4, 0)
    h = sset_homology(re, 3)
    assert [g.label() for g in h.groups] == ["Z", "Z", "0", "0"]
    assert len(pi0(re)) == 1


def test_realize_respects_final_object_on_random_posets():
    rng = random.Random(21)
    cap = 3
    for _ in range(5):
        cat, mx = random_poset_with_max(rng, rng.randint(3, 6))
        assert has_final_object(cat) == mx
        f = random_nested_diagram(rng, cat, cap)
        re = realize(cat, f, point_functor(cat, cap, covariant=False), cap)
        h_re = sset_homology(re, cap - 1)
        h_val = sset_homology(f.values[mx], cap - 1)
        assert len(pi0(re)) == len(pi0(f.values[mx]))
        for k in range(cap):
            assert h_re.group(k).summands == h_val.group(k).summands


def test_realizations_are_read_by_position_only():
    # realize-render and compare-maps never look a bar simplex up by
    # identifier, so no realization derives its index
    space, site = _pc_site()
    cat = site.category
    f = order_complex_functor(space, 3, site)
    re = realize(cat, f, point_functor(cat, 3, covariant=False), 3)
    sset_homology(re, 2)
    pi0(re)
    _streamed(re)
    sh = sheafify_set(site, collapse_set_presheaf(cat, has_final_object(cat)))
    m = induced_realization_map(f, discretize_map(sh.unit, 3), 3)
    induced_map(m, sset_homology(m.source, 2), sset_homology(m.target, 2), 1)
    assert [s for s in (re, m.source, m.target) if "_index" in vars(s)] == []


def test_realize_validates_base_category_mismatch():
    space, site = _pc_site()
    f = order_complex_functor(space, 2, site)
    other = point_category()
    with pytest.raises(InputError):
        realize(other, f, point_functor(other, 2, covariant=False), 2)


def test_realization_json_carries_annotations():
    cat = point_category()
    pt, terminal = point_functor(cat, 2, covariant=True), point_functor(cat, 2, covariant=False)
    re = realize(cat, pt, terminal, 2)
    data = json.loads(_streamed(re))
    assert set(data["annotations"]) == {
        name for level in data["simplices"].values() for name in level
    }
    row = next(iter(data["annotations"].values()))
    assert set(row) == {"object", "chain", "f", "g"}


def _streamed(re) -> str:
    out = io.StringIO()
    write_realization(re, out.write)
    return out.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """Equality of long texts, reported by the first differing offset
    rather than by a full diff."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))
        window = slice(max(at - 40, 0), at + 40)
        raise AssertionError(f"texts differ at {at}: {got[window]!r} vs {want[window]!r}")


def _escaping_case():
    """Objects, morphisms and values named with a quote, a backslash, a
    control character and non-ASCII text."""
    low, high = 'a"q\\', "b\x07\u00fc\u20ac"
    cat = poset_category([low, high], lambda a, b: a == b or a == low)
    vals = ('v"1', "w\\2", "x\x1f3", "\u00ff\U0001f600")
    ident = {v: v for v in vals}
    f = SetFunctor(
        cat, {x: vals for x in cat.objects}, {m: dict(ident) for m in cat.morphisms}, covariant=True
    )
    return cat, discretize(f, 3), discretize(constant_set_presheaf(cat, vals), 3), 3


def test_streamed_realization_json_matches_the_reference_renderer():
    cases = [*_bar_cases(), _escaping_case()]
    space = interval_cover_space()
    site = site_from_finite_space(space)
    g = point_functor(site.category, 3, covariant=False)
    cases.append((site.category, order_complex_functor(space, 3, site), g, 3))
    for cat, f, g, cap in cases:
        re = realize(cat, f, g, cap)
        _assert_same_text(_streamed(re) + "\n", cjson(realization_to_json(re)))


def test_streamed_realization_json_sorts_names_and_levels_as_strings():
    # at cap 10 the level keys sort "10" before "2" and the names "10_0"
    # before "1_0"; levels hold up to 2048 simplices, so "k_10" comes
    # before "k_2" as well
    cat = bz2_category()
    f, g = point_functor(cat, 10, covariant=True), discretize(swap_set_presheaf(cat), 10)
    re = realize(cat, f, g, 10)
    text = _streamed(re)
    _assert_same_text(text + "\n", cjson(realization_to_json(re)))
    assert text.index('"10_0":{') < text.index('"1_0":{')
    assert text.index('"4_10":{') < text.index('"4_2":{')
    faces = text[text.index('"faces":') :]
    assert faces.index('"10":{') < faces.index('"2":{')


@pytest.mark.parametrize("piece", [1, 2, 3])
def test_streamed_realization_json_is_the_same_in_any_piece_size(monkeypatch, piece):
    # with a level cut into pieces of 1, 2 or 3 simplices, every seam between
    # pieces and between levels falls somewhere in the two tests' texts; and
    # realize, filling each column in parts of at most 1, 2 or 3 entries, so
    # that every block of more entries is filled alone, still matches the
    # formula oracle
    monkeypatch.setattr(sset, "_PIECE", piece)
    monkeypatch.setattr(realization, "_PART", piece)
    test_realize_matches_the_formula_oracle()
    test_streamed_realization_json_matches_the_reference_renderer()
    test_streamed_realization_json_sorts_names_and_levels_as_strings()
    test_streamed_realization_json_at_levels_of_one_piece_and_one_more()


def test_streamed_realization_json_at_levels_of_one_piece_and_one_more():
    # levels of exactly 1, _PIECE and _PIECE + 1 simplices: a lone row, one
    # full piece, and a full piece followed by a piece of one row, where
    # the rows' % format takes its one-row path
    cat = point_category()
    f = point_functor(cat, 2, covariant=True)
    for n in (1, sset._PIECE, sset._PIECE + 1):
        g = discretize(constant_set_presheaf(cat, [f"v{i:05d}" for i in range(n)]), 2)
        re = realize(cat, f, g, 2)
        assert re.counts() == (n, n, n)
        _assert_same_text(_streamed(re) + "\n", cjson(realization_to_json(re)))


def test_streamed_realization_json_of_an_empty_realization_is_the_reference():
    # no simplex at any level: the levels write no annotation and no seam
    cat = point_category()
    g = discretize(constant_set_presheaf(cat, []), 2)
    re = realize(cat, point_functor(cat, 2, covariant=True), g, 2)
    assert re.counts() == (0, 0, 0)
    _assert_same_text(_streamed(re) + "\n", cjson(realization_to_json(re)))


def test_streamed_realization_json_holds_one_piece_at_a_time():
    # the interval cover against the terminal presheaf at cap 4: 18,208
    # simplices, 5.28 MB of text, written to a sink that keeps only lengths
    space = interval_cover_space()
    site = site_from_finite_space(space)
    cat = site.category
    g = point_functor(cat, 4, covariant=False)
    re = realize(cat, order_complex_functor(space, 4, site), g, 4)
    lengths = []
    tracemalloc.start()
    try:
        write_realization(re, lambda text: lengths.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(lengths)
    assert (sum(re.counts()), total) == (18208, 5279061)
    assert max(lengths) < total / 10
    # beside json_layout's orders, the writer holds one piece
    assert peak < total


def _interval_cover_case(cap: int):
    """The interval cover's order complex against the terminal presheaf, the
    realize-render job, with the chain table already built."""
    return _order_complex_case(interval_cover_space(), cap)


def _order_complex_case(space, cap: int):
    """A space's order complex against the terminal presheaf, with the chain
    table already built."""
    site = site_from_finite_space(space)
    cat = site.category
    f, g = order_complex_functor(space, cap, site), point_functor(cat, cap, covariant=False)
    catsite.chains(cat, cap)
    return cat, f, g


def test_realize_holds_flat_tables_and_one_column_at_a_time():
    # the interval cover against the terminal presheaf at cap 4, with the
    # chain table already built: int-array columns of 4 bytes an entry, built
    # one at a time, keep realize's traced peak under 3.5 MB (4.5 MB when
    # each simplex held a tuple of shared int objects)
    cat, f, g = _interval_cover_case(4)
    tracemalloc.start()
    try:
        re = realize(cat, f, g, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(re.counts()) == 18208
    assert peak < 3.5 * 2**20


def test_realize_at_cap_5_keeps_no_table_of_identifiers():
    # levels read by position keep 1.54 MiB at cap 5 (5.8 MB when each of
    # the 55,987 simplices held its (x0, ms, F part, G part) tuple, 1.78 MiB
    # with columns grown by +=); columns filled in parts of at most _PART
    # entries hold 0.51 MiB beside that (1.18 MiB in parts of 256 chains,
    # 1.65 MiB with a whole column of int objects)
    cat, f, g = _interval_cover_case(5)
    tracemalloc.start()
    try:
        re = realize(cat, f, g, 5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(re.counts()) == 55987
    assert kept < 1.7 * 2**20
    assert peak - kept < 0.75 * 2**20


def test_realize_at_cap_5_keeps_positions_with_its_chain_table():
    # the chain table built inside realize is included: a chain by its
    # parent, its last morphism and the index arrays of its ends keeps the
    # table and realize's levels at 1.69 MiB together (2.12 MiB with a
    # (x0, ms, xk) tuple per chain and lists of block starts and widths)
    space = interval_cover_space()
    site = site_from_finite_space(space)
    cat = site.category
    f, g = order_complex_functor(space, 5, site), point_functor(cat, 5, covariant=False)
    assert cat._chains == {}
    tracemalloc.start()
    try:
        re = realize(cat, f, g, 5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(re.counts()) == 55987 and list(cat._chains) == [5]
    assert kept < 1.85 * 2**20


def test_column_parts_hold_at_most_their_entry_bound(monkeypatch):
    # a part is a run of whole blocks of at most _PART entries, or one block
    # alone; at cap 5 no block has more than 265 entries, so no part passes
    # the bound (a part of 256 chains held 24,774 of level 5's 37,779).  Each
    # part's entries are counted off the blocks it takes.
    parts, real = [], realization.islice

    def counted(blocks, n):
        taken = list(real(blocks, n))
        parts.append(sum(len(fs) * len(gs) for _, _, fs, gs in taken))
        return iter(taken)

    monkeypatch.setattr(realization, "islice", counted)
    re = realize(*_interval_cover_case(5), 5)
    # every entry of every column is in one part
    columns = sum(len(re.levels[k]) * (k + 1) * ((k > 0) + (k < 5)) for k in range(6))
    assert sum(re.counts()) == 55987 and sum(parts) == columns
    assert max(parts) <= realization._PART


def test_streamed_realization_json_at_cap_5_holds_one_digit_table():
    # no identifier read off a level: a traced peak of 4.2 MB with one table
    # of digit strings for every level (5.5 MB with a quoted name per
    # simplex and identifier tuples in the realization); the test below
    # holds the writer without that table to a tighter bound
    cat, f, g = _interval_cover_case(5)
    re = realize(cat, f, g, 5)
    size = 0

    def count(text: str) -> None:
        nonlocal size
        size += len(text)

    tracemalloc.start()
    try:
        write_realization(re, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sum(re.counts()), size) == (55987, 19481339)
    assert peak < 4.8 * 2**20


def test_writer_and_degeneracy_scan_at_cap_5_keep_no_per_position_table():
    # table rows formatted a piece at a time from strided views of the
    # tables, names ordered by a digit walk, and only the chain in hand
    # rendered keep the writer's traced peak at 0.55 MiB here and 0.48 MiB
    # on McCord's S^3 at cap 4 (1.90 and 2.33 MiB with every chain's head
    # and tail kept for the level and pieces of 1,024 simplices, 4.2 MiB here
    # with a digit string per position and a sort key list); a bytearray
    # whose hits are cleared keeps the scan of all six levels at 0.4 MiB
    # (3.4 MiB with a set of the hit positions)
    from test_homology import mccord_sphere

    re = realize(*_interval_cover_case(5), 5)
    for s in (re, realize(*_order_complex_case(mccord_sphere(3), 4), 4)):
        tracemalloc.start()
        try:
            write_realization(s, lambda text: None)
            writer = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert writer < 2**20
    tracemalloc.start()
    try:
        counts = re.nondegenerate_counts()
        scan = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (44, 235, 646, 1338, 2488, 4280)
    assert scan < 2**20


def _up_set_presheaf(cat, cap: int) -> Functor:
    """On a poset category: the nerve of the elements above x at x, each
    inclusion of up-sets acting; a presheaf with faces and actions that are
    not identities."""

    def leq(a, b) -> bool:
        return bool(cat.hom(a, b))

    values = {
        x: nerve(poset_category([y for y in cat.objects if leq(x, y)], leq), cap)
        for x in cat.objects
    }
    action = {
        m.mid: SimplicialMap.from_function(values[m.tgt], values[m.src], lambda k, z: z)
        for m in cat.morphisms.values()
    }
    return Functor(cat, cap, values, action, covariant=False)


def _bar_cases():
    """(category, f, g, cap): every realize example, an order complex
    against a presheaf on the triples category (tuple objects), and seeded
    random diagrams, order complexes and presheaves.  The realize examples
    include bz2, which is not a poset, against the swap action."""
    # the CLI's realize examples: pseudo_circle_terminal, point_site, bz2
    # and action_z2_free
    space = pseudo_circle_space()
    site = site_from_finite_space(space)
    pc, point, bz2 = site.category, point_category(), bz2_category()
    circle = circle_sset(4)
    cases = [
        (pc, order_complex_functor(space, 4, site), point_functor(pc, 4, covariant=False), 4),
        (
            point,
            point_functor(point, 4, covariant=True),
            Functor(point, 4, {"*": circle}, {"id:*": SimplicialMap.identity(circle)}, covariant=False),
            4,
        ),
        (bz2, point_functor(bz2, 4, covariant=True), point_functor(bz2, 4, covariant=False), 4),
        (bz2, point_functor(bz2, 4, covariant=True), discretize(swap_set_presheaf(bz2), 4), 4),
    ]
    space = sierpinski_space()
    site = site_from_finite_space(space)
    d = triples_category(site)
    tcat = d.category
    # the triple (x, B, m) lies over x, and (phi, rho) over phi
    over = MappedCat(tcat, {t: t[1] for t in tcat.objects}, {m: m[1] for m in tcat.morphisms})
    g0 = constant_set_presheaf(site.category, ["0", "1"])
    gp = discretize(sections_presheaf_on_triples(site, g0, d), 3)
    cases.append((tcat, reindex(order_complex_functor(space, 3, site), over), gp, 3))
    rng = random.Random(13)
    for _ in range(4):
        cat, _ = random_poset_with_max(rng, rng.randint(3, 6))
        f = random_nested_diagram(rng, cat, 3)
        cases.append((cat, f, discretize(random_set_presheaf(rng, cat), 3), 3))
        cases.append((cat, f, _up_set_presheaf(cat, 3), 3))
        space = random_space(rng, 6)
        site = site_from_finite_space(space)
        g = discretize(random_set_presheaf(rng, site.category), 3)
        cases.append((site.category, order_complex_functor(space, 3, site), g, 3))
    return cases


def test_realize_matches_the_formula_oracle():
    for cat, f, g, cap in _bar_cases():
        re, ref = realize(cat, f, g, cap), formula_realize(cat, f, g, cap)
        assert re == ref and re._index == ref._index
        assert all(list(level) == csorted(level) for level in re.levels)


def _level_cases():
    """The interval cover's order complex against the terminal presheaf at
    caps 2-4, bz2's point diagram against the terminal presheaf and the swap
    action, and a realization with no simplex at all."""
    for cap in (2, 3, 4):
        yield (*_interval_cover_case(cap), cap)
    bz2 = bz2_category()
    pt = point_functor(bz2, 4, covariant=True)
    yield bz2, pt, point_functor(bz2, 4, covariant=False), 4
    yield bz2, pt, discretize(swap_set_presheaf(bz2), 4), 4
    point = point_category()
    empty = discretize(constant_set_presheaf(point, []), 2)
    yield point, point_functor(point, 2, covariant=True), empty, 2


def test_bar_levels_are_sequences_read_by_position():
    for cat, f, g, cap in _level_cases():
        re, ref = realize(cat, f, g, cap), formula_realize(cat, f, g, cap)
        copy = sset.tabulate(cap, re.levels, *fixtures.formulas(re))
        assert all(type(level) is tuple for level in copy.levels)
        assert re == copy and copy == re and re == ref
        for k, level in enumerate(re.levels):
            n, items = len(level), list(level)
            assert [level[p] for p in range(n)] == items == list(ref.levels[k])
            assert [level[p - n] for p in range(n)] == items
            for p in (n, -n - 1, n + 5):
                with pytest.raises(IndexError):
                    level[p]
            assert type(re.simplices(k)) is tuple and list(re.simplices(k)) == items


def _checked(m: SimplicialMap, rule, reports: bool = True) -> SimplicialMap:
    """m, after checking every image against the rule read by identifier and,
    if reports, validate_map's report against the reference map's."""
    for k, level in enumerate(m.source.levels):
        target = fixtures.levels(m.target)[k]
        assert [target[q] for q in m.images[k]] == [rule(k, z) for z in level]
    if reports:
        ref = DictSimplicialMap.from_function(m.source, m.target, rule)
        assert validate_map(m) == dict_validate_map(ref)
    return m


def _induced_checked(f, pm, cap: int) -> SimplicialMap:
    """induced_realization_map, checked against the former push rule."""
    return _checked(induced_realization_map(f, pm, cap), push_rule(f.category, pm))


def _projector_checked(d, f, g, cap: int, reports: bool = True) -> list[SimplicialMap]:
    """projector_maps' a and b, checked against the former rules."""
    maps = projector_maps(d, f, g, cap)
    return [_checked(m, rule, reports) for m, rule in zip(maps, projector_rules(d, g))]


def _triples_case(space, cap: int, order_complex: bool = False):
    """The triples projector of the space's site, the presheaf of matching
    sections of the constant two-point presheaf, and the point diagram on
    the image, or with order_complex the space's order complex carried to
    the image, (y, maximal sieve, id) lying over y."""
    site = site_from_finite_space(space)
    d = triples_category(site)
    g0 = constant_set_presheaf(site.category, ["0", "1"])
    g = discretize(sections_presheaf_on_triples(site, g0, d), cap)
    img = projector_image(d).category
    f = point_functor(img, cap, covariant=True)
    if order_complex:
        over = MappedCat(img, {t: t[1] for t in img.objects}, {m: m[1] for m in img.morphisms})
        f = reindex(order_complex_functor(space, cap, site), over)
    return d, f, g


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_projector_maps_match_the_id_rules_on_pseudo_circle_triples(cap):
    # 57 triples; at cap 4 a's source has 464,332 top simplices, so the
    # validate_map reports are compared below cap 4 only
    d, f, g = _triples_case(pseudo_circle_space(), cap)
    a, b = _projector_checked(d, f, g, cap, reports=cap < 4)
    assert a.compose(b) == SimplicialMap.identity(b.source)


def test_projector_maps_match_the_id_rules_with_an_order_complex():
    # f after P is not constant here, so the kept F column is seen
    for space, cap in ((sierpinski_space(), 3), (pseudo_circle_space(), 2)):
        _projector_checked(*_triples_case(space, cap, order_complex=True), cap)


def test_induced_realization_map_matches_the_push_rule():
    space, site = _pc_site()
    cat = site.category
    f = order_complex_functor(space, 3, site)
    for sp in (
        constant_set_presheaf(cat, ["0", "1"]),
        collapse_set_presheaf(cat, has_final_object(cat)),
    ):
        _induced_checked(f, discretize_map(sheafify_set(site, sp).unit, 3), 3)
    rng = random.Random(17)
    for _ in range(4):
        cat, _ = random_poset_with_max(rng, rng.randint(3, 6))
        sp, pt = random_set_presheaf(rng, cat), terminal_set_presheaf(cat)
        to_point = {x: {v: "*" for v in sp.values[x]} for x in cat.objects}
        pm = discretize_map(SetPresheafMap(sp, pt, to_point), 3)
        _induced_checked(random_nested_diagram(rng, cat, 3), pm, 3)


def test_chain_table_is_built_once_per_category_and_cap(monkeypatch):
    """Within one induced_realization_map or projector_maps call, both
    realizations and the map read one chain table per category and cap."""
    space, site = _pc_site()
    f = order_complex_functor(space, 3, site)
    sp = constant_set_presheaf(site.category, ["0", "1"])
    pm = discretize_map(sheafify_set(site, sp).unit, 3)
    d, f2, g2 = _triples_case(sierpinski_space(), 2)
    tables: dict = {}
    real = catsite.chains

    def counted(cat, cap):
        ch = real(cat, cap)
        tables.setdefault((id(cat), cap), []).append(ch)
        return ch

    for module in (catsite, realization, oracles):
        monkeypatch.setattr(module, "chains", counted)
    for call, categories in (
        (lambda: induced_realization_map(f, pm, 3), 1),
        (lambda: projector_maps(d, f2, g2, 2), 2),
    ):
        tables.clear()
        call()
        assert len(tables) == categories
        assert all(len(read) >= 2 and len({id(t) for t in read}) == 1 for read in tables.values())


def test_order_complex_values_are_nerves_of_specialization():
    space = sierpinski_space()
    site = site_from_finite_space(space)
    f = order_complex_functor(space, 3, site)
    # the whole Sierpinski space is a 2-chain: its nerve is the 1-simplex
    top = open_id("oc")
    assert f.values[top].nondegenerate_counts() == (2, 1, 0, 0)
    assert f.values[open_id("o")].nondegenerate_counts() == (1, 0, 0, 0)


def _order_complex_spaces():
    """(space, cap): the gallery spaces, McCord's S^1 to S^3 at a cap past
    their top homology, and seeded random spaces at caps 1 to 5."""
    from test_homology import mccord_sphere

    gallery = (sierpinski_space(), pseudo_circle_space(), interval_cover_space())
    cases = [(space, cap) for space in gallery for cap in (1, 3)]
    cases += [(mccord_sphere(n), n + 1) for n in (1, 2, 3)]
    rng = random.Random(36)
    return cases + [(random_space(rng), cap) for cap in range(1, 6) for _ in range(4)]


def test_order_complex_values_match_the_per_open_nerves():
    # each value read off the whole space's nerve is, level by level and
    # column by column, the nerve of its open built and sorted on its own,
    # and each action the inclusion looked up by identifier
    for space, cap in _order_complex_spaces():
        site = site_from_finite_space(space)
        f, ref = order_complex_functor(space, cap, site), oracles.per_open_order_complex(space, cap, site)
        assert oracles.functor_mismatches(f, ref) == []
        assert all(f.values[x] == v for x, v in ref.values.items())


def test_a_moved_order_complex_position_is_a_mismatch():
    space, site = _pc_site()
    f, ref = order_complex_functor(space, 3, site), oracles.per_open_order_complex(space, 3, site)
    u = open_id(space.points)
    v = f.values[u]
    d1 = array("i", v._faces[2][1])
    d1[0] = (d1[0] + 1) % len(v.levels[1])
    faces = (*v._faces[:2], (v._faces[2][0], d1, v._faces[2][2]), *v._faces[3:])
    moved = SimplicialSet(3, v.levels, faces, v._degeneracies)
    values = {**f.values, u: moved}
    assert oracles.functor_mismatches(SimpleNamespace(values=values, action=f.action), ref) == [(u, "d", 2, 1)]
    m = next(m for m in site.category.hom_into(u) if not site.category.is_identity(m))
    a = f.action[m]
    image = array("i", a.images[1])
    image[-1] = (image[-1] + 1) % len(a.target.levels[1])
    action = {**f.action, m: SimplicialMap(a.source, a.target, (a.images[0], image, *a.images[2:]))}
    got = oracles.functor_mismatches(SimpleNamespace(values=f.values, action=action), ref)
    assert got == [(m, "image", 1)]


def test_descent_passes_on_all_pseudo_circle_covers():
    space, site = _pc_site()
    f = order_complex_functor(space, 3, site)
    for x in site.category.objects:
        for s in site.coverings[x]:
            rep = covariant_descent_check(site, f, x, s, 2)
            assert rep.ok, (x, sorted(s.members))


def test_descent_passes_on_interval_cover():
    space = interval_cover_space()
    site = site_from_finite_space(space)
    f = order_complex_functor(space, 2, site)
    s = interval_cover_sieve(site)
    rep = covariant_descent_check(site, f, s.base, s, 1)
    assert rep.ok
    assert rep.pi0_realization == rep.pi0_value == 1


def test_descent_constant_functor_passes_coned_cover():
    # the arc cover's category of elements has {a,b} below both arcs, so its
    # nerve is a cone and the constant functor still satisfies descent there
    space, site = _pc_site()
    f = point_functor(site.category, 3, covariant=True)
    s = pseudo_circle_cover(site)
    rep = covariant_descent_check(site, f, s.base, s, 2)
    assert rep.ok
    assert all(a == b for _, a, b in rep.degrees)


def test_descent_constant_functor_fails_two_open_cover():
    # {a} and {b} are disjoint, so the sieve nerve has two components while
    # the value is a single point: the failure shows up in degree zero
    space, site = _pc_site()
    f = point_functor(site.category, 3, covariant=True)
    s = two_open_cover(site)
    rep = covariant_descent_check(site, f, s.base, s, 2)
    assert not rep.ok
    assert rep.pi0_realization == 2 and rep.pi0_value == 1
    k, re_s, val_s = rep.degrees[0]
    assert k == 0 and re_s == (0, 0) and val_s == (0,)
    # every degree beyond zero agrees; in particular H1 carries no mismatch
    assert all(a == b for deg, a, b in rep.degrees if deg > 0)


def test_descent_rejects_non_covering_sieve():
    space, site = _pc_site()
    f = order_complex_functor(space, 2, site)
    x = open_id("abcd")
    from finsite.catsite import generate_sieve

    s = generate_sieve(site.category, x, [f"{open_id('abc')}<={x}"])
    with pytest.raises(InputError):
        covariant_descent_check(site, f, x, s, 1)


def _descent_sieves():
    """(name, space, site, sieve, cap) for each sieve the descent routes are
    compared on: the gallery descent examples, every covering sieve of the
    pseudo-circle and of Sierpinski space, the interval cover, the cones
    covers of McCord's S^2 and S^3 at a cap that reaches their top homology,
    and every covering sieve, maximal or not, of seeded random spaces."""
    from test_homology import mccord_sphere

    def space_site(space):
        return space, site_from_finite_space(space)

    pc, sier = space_site(pseudo_circle_space()), space_site(sierpinski_space())
    for name, (space, site) in (("pseudo-circle", pc), ("sierpinski", sier)):
        for x, sieves in site.coverings.items():
            for s in sieves:
                yield f"{name} {x} {s.key()}", space, site, s, 3
    interval = space_site(interval_cover_space())
    yield "interval cover", *interval, interval_cover_sieve(interval[1]), 3
    for n in (2, 3):
        space, site = space_site(mccord_sphere(n))
        yield f"S^{n} cones", space, site, site.minimal_covering_sieve(open_id(space.points)), n + 1
    rng = random.Random(30)
    for i in range(30):
        space, site = space_site(random_space(rng))
        for x, sieves in site.coverings.items():
            for s in sieves:
                yield f"random {i} {x} {s.key()}", space, site, s, 3


@pytest.mark.parametrize("functor", ["order_complex", "point"])
def test_descent_realizes_the_sieve_presheaf_like_the_slice_route(monkeypatch, functor):
    """Re(f, S) over the full subcategory S reaches is isomorphic to the
    former route over the sieve category: the same simplices and
    nondegenerate simplices per level, and the same pi0 and homology."""
    seen = []

    def recorded(*args):
        seen.append(realize(*args))
        return seen[-1]

    monkeypatch.setattr(realization, "realize", recorded)
    for name, space, site, s, cap in _descent_sieves():
        if functor == "point":
            f = point_functor(site.category, cap, covariant=True)
        else:
            f = order_complex_functor(space, cap, site)
        rep = covariant_descent_check(site, f, s.base, s, cap - 1)
        new, old = seen.pop(), slice_descent_realization(site, f, s, cap)
        assert (new.counts(), new.nondegenerate_counts()) == (old.counts(), old.nondegenerate_counts()), name
        h = sset_homology(old, cap - 1)
        assert rep.pi0_realization == component_count(len(pi0(old)), h.group(0)), name
        assert [re_s for _, re_s, _ in rep.degrees] == [g.summands for g in h.groups], name


def test_induced_realization_map_is_simplicial():
    space, site = _pc_site()
    cat = site.category
    f = order_complex_functor(space, 3, site)
    sp = constant_set_presheaf(cat, ["0", "1"])
    sh = sheafify_set(site, sp)
    pm = discretize_map(sh.unit, 3)
    m = induced_realization_map(f, pm, 3)
    assert validate_map(m).ok


def test_induced_realization_map_functorial_in_composition():
    space, site = _pc_site()
    cat = site.category
    f = order_complex_functor(space, 2, site)
    sp = constant_set_presheaf(cat, ["0", "1"])
    sh = sheafify_set(site, sp)
    third = SetPresheafMap(
        sh.sheaf,
        sh.sheaf,
        {x: {v: v for v in sh.sheaf.values[x]} for x in cat.objects},
    )
    pm1 = discretize_map(sh.unit, 2)
    pm2 = discretize_map(third, 2)
    m1 = induced_realization_map(f, pm1, 2)
    m2 = induced_realization_map(f, pm2, 2)
    m12 = induced_realization_map(f, discretize_map(sh.unit.then(third), 2), 2)
    assert m2.compose(m1) == m12


def test_every_map_constructor_gives_int_array_images():
    # one array("i") per level, one entry per simplex of the source's level
    cap = 2
    space, site = _pc_site()
    cat = site.category
    sh = sheafify_set(site, collapse_set_presheaf(cat, has_final_object(cat)))
    f = order_complex_functor(space, cap, site)
    induced = induced_realization_map(f, discretize_map(sh.unit, cap), cap)
    a, b = projector_maps(*_triples_case(sierpinski_space(), cap), cap)
    circle = circle_sset(cap)
    maps = [
        SimplicialMap.from_function(circle, circle, lambda k, z: z),
        SimplicialMap.identity(circle),
        induced,
        SimplicialMap.identity(induced.target).compose(induced),
        a,
        b,
        a.compose(b),
    ]

    def not_arrays(m):
        assert len(m.images) == cap + 1
        return [
            k
            for k, (images, level) in enumerate(zip(m.images, m.source.levels))
            if not isinstance(images, array) or images.typecode != "i" or len(images) != len(level)
        ]

    assert [not_arrays(m) for m in maps] == [[]] * len(maps)


def test_projector_data_on_triples_validates():
    site = site_from_finite_space(sierpinski_space())
    d = triples_category(site)
    assert validate_projector(d).ok
    assert len(d.category.objects) == 4
    assert len(d.category.morphisms) == 10
    img = projector_image(d)
    assert len(img.category.objects) == 2


def test_projector_rejects_non_idempotent_data():
    site = site_from_finite_space(sierpinski_space())
    d = triples_category(site)
    broken_obj = dict(d.obj_map)
    keys = sorted(broken_obj, key=str)
    image_objs = sorted({str(v) for v in broken_obj.values()})
    # redirect one object image to a non-fixed point of the projector
    moving = next(k for k in keys if str(broken_obj[k]) != str(k))
    broken_obj[broken_obj[moving]] = moving
    bad = ProjectorData(d.category, broken_obj, d.mor_map, d.psi)
    assert not validate_projector(bad).ok


def test_projector_maps_section_and_homology():
    site = site_from_finite_space(sierpinski_space())
    d = triples_category(site)
    img = projector_image(d)
    cap = 3
    g0 = constant_set_presheaf(site.category, ["0", "1"])
    gp = discretize(sections_presheaf_on_triples(site, g0, d), cap)
    assert validate_functor(gp).ok
    f = point_functor(img.category, cap, covariant=True)
    a, b = projector_maps(d, f, gp, cap)
    assert validate_map(a).ok and validate_map(b).ok
    ab = a.compose(b)
    assert ab == SimplicialMap.identity(b.source)
    ba = b.compose(a)
    h = sset_homology(a.source, cap - 1)
    for k in range(cap):
        im = induced_map(ba, h, h, k)
        assert im.is_identity()
    # b.a keeps every vertex position in its own component
    comp_of = {p: i for i, comp in enumerate(pi0(a.source)) for p in comp}
    assert all(comp_of[q] == comp_of[p] for p, q in enumerate(ba.images[0]))


def test_triples_sections_presheaf_sizes():
    site = site_from_finite_space(sierpinski_space())
    d = triples_category(site)
    g0 = constant_set_presheaf(site.category, ["0", "1"])
    sp = sections_presheaf_on_triples(site, g0, d)
    # each triple's sieve is nonempty over a connected poset: two sections
    assert all(len(v) == 2 for v in sp.values.values())


def test_realize_disjoint_union_presheaf_splits():
    rng = random.Random(31)
    cat, mx = random_poset_with_max(rng, 4)
    cap = 2
    f = random_nested_diagram(rng, cat, cap)
    from finsite.presheaf import representable_set_presheaf

    from randgen import disjoint_union_sp

    z = sorted(cat.objects)[0]
    y = representable_set_presheaf(cat, z)
    yy = disjoint_union_sp(y, y)
    re1 = realize(cat, f, discretize(y, cap), cap)
    re2 = realize(cat, f, discretize(yy, cap), cap)
    assert len(pi0(re2)) == 2 * len(pi0(re1))
    h1 = sset_homology(re1, cap - 1)
    h2 = sset_homology(re2, cap - 1)
    for k in range(cap):
        assert h2.group(k).to_json()["betti"] == 2 * h1.group(k).to_json()["betti"]


@pytest.fixture
def maps_checked(monkeypatch):
    """Checks every map built by from_function while the test runs against the
    identifier-keyed reference map of the same formula: apply on every simplex
    and validate_map's report.  Yields the list of (map, formula) checked."""
    built = []
    real = SimplicialMap.from_function

    def checked(source, target, fn):
        m = real(source, target, fn)
        ref = DictSimplicialMap.from_function(source, target, fn)
        for k in range(source.dim_cap + 1):
            assert [fixtures.apply(m, k, z) for z in source.simplices(k)] == [
                ref.apply(k, z) for z in source.simplices(k)
            ]
        assert validate_map(m) == dict_validate_map(ref)
        built.append((m, fn))
        return m

    monkeypatch.setattr(SimplicialMap, "from_function", staticmethod(checked))
    yield built


def _map_workloads(cap: int) -> list[SimplicialMap]:
    """Every action of the order-complex functors of the pseudo-circle and of
    the interval cover, the discretized sheafification unit of the collapse
    presheaf with both its ends, the map it induces on realizations, and the
    projector maps a and b of the Sierpinski triples, all at the given cap.
    The order-complex actions and the last three are built by position and
    checked against the former rules here: an action keeps each chain's
    identifier."""
    maps = []
    for space in (pseudo_circle_space(), interval_cover_space()):
        f = order_complex_functor(space, cap, site_from_finite_space(space))
        maps += [_checked(m, lambda k, z: z) for m in f.action.values()]
    space, site = _pc_site()
    cat = site.category
    sh = sheafify_set(site, collapse_set_presheaf(cat, has_final_object(cat)))
    pm = discretize_map(sh.unit, cap)
    maps += [*pm.source.action.values(), *pm.target.action.values(), *pm.components.values()]
    maps.append(_induced_checked(order_complex_functor(space, cap, site), pm, cap))
    maps += _projector_checked(*_triples_case(sierpinski_space(), cap), cap)
    return maps


def test_maps_match_reference_on_every_constructor(maps_checked):
    maps = _map_workloads(2)
    checked = {id(m) for m, _ in maps_checked}
    # 19 + 57 order-complex actions; the unit's 2 x 19 actions and 6
    # components; the induced map, a and b
    assert len(maps) == 76 + 2 * 19 + 6 + 3
    # the order-complex actions, the induced map, a and b are built by
    # position and checked where they are built, against the former rules
    # read by identifier
    n = len(maps)
    assert [i for i, m in enumerate(maps) if id(m) not in checked] == [*range(76), n - 3, n - 2, n - 1]


def _moved_report(m, fn, k, z, w):
    """validate_map's report on m rebuilt with the k-simplex z sent to w, or
    from_function's refusal, after checking it against the reference map."""

    def moved(j, y):
        return w if (j, y) == (k, z) else fn(j, y)

    ref = DictSimplicialMap.from_function(m.source, m.target, moved)
    try:
        got = validate_map(SimplicialMap.from_function(m.source, m.target, moved))
    except ValidationError as exc:
        got = exc.report
    assert got == dict_validate_map(ref)
    return got.kind


def test_maps_with_one_image_moved_fail_alike(maps_checked):
    _map_workloads(2)
    d, f, g = _triples_case(sierpinski_space(), 2)
    cases = [*maps_checked, *zip(projector_maps(d, f, g, 2), projector_rules(d, g))]
    # the order-complex actions, built by position, keep each identifier
    for space in (pseudo_circle_space(), interval_cover_space()):
        oc = order_complex_functor(space, 2, site_from_finite_space(space))
        cases += [(m, lambda k, z: z) for m in oc.action.values()]
    rng = random.Random(8)
    kinds = []
    for m, fn in cases:
        for _ in range(3):
            k = rng.choice([k for k in range(3) if m.source.simplices(k)])
            z = rng.choice(m.source.simplices(k))
            w = rng.choice(m.target.simplices(k) + ("nowhere",))
            kinds.append(_moved_report(m, fn, k, z, w))
    # Every move on the identity of the circle at cap 1: sending s_0 v to the
    # loop e keeps every face square, so a degeneracy square fails alone.
    circle = circle_sset(1)
    ident = SimplicialMap.identity(circle)
    for k in range(2):
        for z in circle.simplices(k):
            for w in circle.simplices(k):
                kinds.append(_moved_report(ident, lambda j, y: y, k, z, w))
    assert set(kinds) == {"ok", "map-codomain", "map-face", "map-degeneracy"}
