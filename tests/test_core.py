"""Homology from the core of the element poset, against the bar diagonal.

For a set presheaf G on a space's opens and F the order complex or the
point, realize and compare take their homology from the Stong core of one
finite poset, the elements (U, s, W).  The bar realization at the cap and the
maps between realizations, now in tests/oracles.py, are the oracle: the two
routes must give the same pi0, the same summands in every trusted degree and
the same verdicts, on the gallery, McCord's spheres and seeded random spaces.
The second routes inside the engine (beat-point witnesses, the retraction,
the Euler characteristic and pi0) must each refuse a corrupted input.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from finsite import cli, realization
from finsite.canon import cjson
from finsite.catsite import site_from_finite_space, space_to_json
from finsite.gallery import (
    collapse_set_presheaf,
    interval_cover_space,
    pseudo_circle_space,
    sierpinski_space,
)
from finsite.homology import induced_by_chains, sset_homology
from finsite.presheaf import (
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    point_functor,
    sheafify_set,
    terminal_set_presheaf,
)
from finsite.realization import (
    Core,
    ElementPoset,
    check_core,
    core_chain_map,
    core_complex,
    core_homology,
    element_poset,
    order_complex_functor,
    poset_pi0,
    realize,
    stong_core,
)
from finsite.reports import InternalCheckError
from finsite.sset import pi0

from oracles import discretize_map, induced_map, induced_realization_map
from randgen import random_joined_space, random_set_presheaf, random_space
from test_golden import STDOUT_SHA256
from test_homology import mccord_sphere

CAP = 3


def _spaces() -> list[tuple]:
    """The gallery spaces, McCord's S^1 to S^3, and seeded spaces of both
    random generators, each with its site."""
    named = [
        ("sierpinski", sierpinski_space()),
        ("pseudo_circle", pseudo_circle_space()),
        ("interval_cover", interval_cover_space()),
    ]
    named += [(f"S{n}", mccord_sphere(n)) for n in (1, 2, 3)]
    rng = random.Random(31)
    named += [(f"random{i}", random_space(rng)) for i in range(8)]
    named += [(f"joined{i}", random_joined_space(rng)) for i in range(8)]
    return [(name, space, site_from_finite_space(space)) for name, space in named]


SPACES = _spaces()


def _cases():
    """(name, space, site, functor name, G) for both functors and G the
    terminal presheaf or a seeded random one."""
    rng = random.Random(32)
    for name, space, site in SPACES:
        gs = [("terminal", terminal_set_presheaf(site.category))]
        gs.append(("random", random_set_presheaf(rng, site.category)))
        for functor in ("order_complex", "point"):
            for gname, g in gs:
                yield f"{name}-{functor}-{gname}", space, site, functor, g


def _diagram(space, site, functor: str, cap: int):
    if functor == "point":
        return point_functor(site.category, cap, covariant=True)
    return order_complex_functor(space, cap, site)


def test_the_spaces_include_non_t0_ones():
    assert any(len({s.minimal_open(p) for p in s.points}) < len(s.points) for _, s, _ in SPACES)


def test_core_route_matches_the_diagonal_on_realize():
    """pi0 and the summands of H_0..H_2 at cap 3, as realize prints them."""
    for name, space, site, functor, g in _cases():
        cat = site.category
        re = realize(cat, _diagram(space, site, functor, CAP), discretize(g, CAP), CAP)
        h = sset_homology(re, CAP - 1)
        core = core_homology(space, cat, g, functor == "point", CAP - 1)
        assert [c.summands for c in core.groups] == [d.summands for d in h.groups], name
        assert core.pi0 == len(pi0(re)), name


def _maps_by_diagonal(space, site, functor, pm, cap):
    rmap = induced_realization_map(_diagram(space, site, functor, cap), discretize_map(pm, cap), cap)
    hs, ht = sset_homology(rmap.source, cap - 1), sset_homology(rmap.target, cap - 1)
    return [induced_map(rmap, hs, ht, k) for k in range(cap)]


def _maps_by_core(space, site, functor, pm, max_deg):
    cat = site.category
    hs, ht = (core_homology(space, cat, g, functor == "point", max_deg) for g in (pm.source, pm.target))
    return [
        induced_by_chains(core_chain_map(hs, ht, pm.components, k), hs.groups[k], ht.groups[k])
        for k in range(max_deg + 1)
    ]


def test_core_route_matches_the_diagonal_on_compare():
    """Per-degree verdicts at cap 3 along the sheafification unit and along
    the map to the terminal presheaf; some degree is no isomorphism."""
    seen = set()
    for name, space, site, functor, g in _cases():
        cat = site.category
        terminal = terminal_set_presheaf(cat)
        to_point = SetPresheafMap(g, terminal, {x: {v: "*" for v in g.values[x]} for x in cat.objects})
        for pm in (sheafify_set(site, g).unit, to_point):
            by_diagonal = _maps_by_diagonal(space, site, functor, pm, CAP)
            by_core = _maps_by_core(space, site, functor, pm, CAP - 1)
            for d, c in zip(by_diagonal, by_core):
                assert (c.source.summands, c.target.summands) == (d.source.summands, d.target.summands), name
                assert c.is_isomorphism() == d.is_isomorphism(), name
                seen.add(c.is_isomorphism())
    assert seen == {True, False}


@pytest.mark.parametrize("example", ["collapse", "constant2", "identity"])
def test_gallery_compare_matrices_match_the_diagonal(example, capsys):
    """Each degree's matrix, printed by compare on the core, is the
    diagonal's at the same cap, 4."""
    space = pseudo_circle_space()
    site = site_from_finite_space(space)
    cat = site.category
    sp = collapse_set_presheaf(cat, "{a,b,c,d}") if example == "collapse" else constant_set_presheaf(cat, "01")
    if example == "identity":
        pm = SetPresheafMap(sp, sp, {x: {v: v for v in sp.values[x]} for x in cat.objects})
    else:
        pm = sheafify_set(site, sp).unit
    assert cli.main(["compare", "--example", example, "--format", "json"]) == 0
    printed = [d["matrix"] for d in json.loads(capsys.readouterr().out)["degrees"]]
    diagonal = [[list(row) for row in im.matrix] for im in _maps_by_diagonal(space, site, "order_complex", pm, 4)]
    assert printed == diagonal


def test_mccord_five_sphere_through_the_engine():
    """Past the diagonal's reach: S^5 with the terminal presheaf, every degree
    from the 12-point core (its 114-element poset has billions of chains)."""
    space = mccord_sphere(5)
    cat = site_from_finite_space(space).category
    core = core_homology(space, cat, terminal_set_presheaf(cat), False, 5)
    assert (len(core.core.poset.elements), len(core.core.points)) == (114, 12)
    assert [g.label() for g in core.groups] == ["Z", "0", "0", "0", "0", "Z"]
    assert core.pi0 == 1


# -- the second routes refuse corrupted inputs ---------------------------------------


def _pseudo_circle_core():
    space = pseudo_circle_space()
    cat = site_from_finite_space(space).category
    p = element_poset(space, cat, terminal_set_presheaf(cat), False)
    core = stong_core(p)
    cx = core_complex(core, 3)
    check_core(core, cx)
    return p, core, cx


def test_a_wrong_beat_point_witness_is_refused():
    p, core, cx = _pseudo_circle_core()
    (x, w), *rest = core.removals
    # x lies below and above itself, but outside its strict sets
    for wrong in (x, next(y for y in range(len(p.elements)) if y not in (x, w))):
        with pytest.raises(InternalCheckError, match="no beat-point witness"):
            check_core(Core(core.poset, core.points, ((x, wrong), *rest), core.retraction), cx)


def test_a_retraction_that_breaks_the_order_is_refused():
    p, core, cx = _pseudo_circle_core()
    r = core.retraction
    # r(x) = c for c maximal in the core breaks x <= y whenever r(y) != c
    top = [c for c in core.points if not any(p.above[c] >> d & 1 for d in core.points if d != c)]
    x, c = next(
        (x, c)
        for x in range(len(r))
        if x not in core.points
        for c in top
        if any(p.above[x] >> y & 1 and r[y] != c for y in range(len(r)))
    )
    with pytest.raises(InternalCheckError, match="does not preserve the order"):
        check_core(Core(core.poset, core.points, core.removals, r[:x] + (c,) + r[x + 1 :]), cx)


def test_a_corrupted_up_set_changes_the_euler_characteristic():
    # x is a minimal element removed with witness w, and y a maximal element
    # above it.  Cutting y from x's up-set keeps w a witness (x's strict
    # up-set only shrinks) and leaves fewer pairs for r to keep in order, but
    # e(x) = 1 - (the sum of e over x's strict up-set) grows by e(y) = 1, and
    # nothing lies below x: the Euler characteristic moves by one
    p, core, cx = _pseudo_circle_core()
    n = len(p.elements)
    x, w = next((x, w) for x, w in core.removals if p.below[x] == 1 << x)
    y = next(y for y in range(n) if p.above[x] >> y & 1 and p.above[y] == 1 << y and y != w)
    cut = ElementPoset(p.elements, p.below, p.above[:x] + [p.above[x] & ~(1 << y)] + p.above[x + 1 :])
    with pytest.raises(InternalCheckError, match="Euler characteristic"):
        check_core(Core(cut, core.points, core.removals, core.retraction), cx)


def test_a_pi0_mismatch_is_refused(monkeypatch):
    space = pseudo_circle_space()
    cat = site_from_finite_space(space).category
    g = constant_set_presheaf(cat, "01")
    assert core_homology(space, cat, g, False, 1).pi0 == 2
    monkeypatch.setattr(realization, "poset_pi0", lambda p: poset_pi0(p) - 1)
    with pytest.raises(InternalCheckError, match="pi0 has 1 components but H0 has betti number 2"):
        core_homology(space, cat, g, False, 1)


@pytest.mark.parametrize("corrupt", ["witness", "up-set"])
def test_a_failed_second_route_is_exit_4(monkeypatch, capsys, corrupt):
    if corrupt == "witness":
        take_core = realization.stong_core

        def wrong(p):
            core = take_core(p)
            (x, _), *rest = core.removals
            return Core(core.poset, core.points, ((x, x), *rest), core.retraction)

        monkeypatch.setattr(realization, "stong_core", wrong)
    else:
        # the first minimal element's up-set, cut to that element before
        # the core is taken
        build = realization.element_poset

        def cut(*args):
            p = build(*args)
            x = next(x for x, down in enumerate(p.below) if down == 1 << x)
            return ElementPoset(p.elements, p.below, p.above[:x] + [1 << x] + p.above[x + 1 :])

        monkeypatch.setattr(realization, "element_poset", cut)
    for argv in (["realize", "--example", "pseudo_circle_terminal"], ["compare", "--example", "collapse"]):
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and '"type":"InternalCheckError"' in err


# -- compare builds no bar realization ------------------------------------------------


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


# compare --format json and text on the benchmark's input shape, the interval
# cover with the collapse presheaf at cap 2, as the bar diagonal printed it
BENCH_SHAPE_SHA256 = {
    "json": "b86b60ab477904b0996112549316b239db205480bae6965ab372151746b467e1",
    "text": "f7bb5e337eec52f685331f18a879c3bf4805372a6e8ac4820c5757ecf831c9f2",
}


def test_compare_builds_no_bar_realization_and_no_order_complex(monkeypatch):
    def refused(*args):
        raise AssertionError("compare built a bar realization or an order complex")

    for module in (cli, realization):
        for name in ("realize", "order_complex_functor"):
            monkeypatch.setattr(module, name, refused)
    space = cjson(space_to_json(interval_cover_space()))
    for fmt, digest in BENCH_SHAPE_SHA256.items():
        argv = ["compare", "--space", space, "--presheaf", "collapse", "--dim-cap", "2", "--format", fmt]
        assert hashlib.sha256(_stdout(argv)).hexdigest() == digest
    for example in ("collapse", "constant2", "identity"):
        for fmt in ("json", "text"):
            out = _stdout(["compare", "--example", example, "--format", fmt])
            assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[f"compare-{example}.{fmt}"]
