"""Built-in example instances shared by the CLI gallery and the test suite.

The pseudo-circle is the four-point model of the circle; the interval cover
is a seven-point model of an interval carrying exactly the opens generated by
three overlapping subintervals, so its covering sieves stay few enough to
list.  bz2 is the one-object category of the order-two group.
"""

from __future__ import annotations

from finsite.catsite import (
    FinCat,
    FiniteSpace,
    Morphism,
    Sieve,
    Site,
    generate_sieve,
    open_id,
)
from finsite.presheaf import SetFunctor
from finsite.sset import SimplicialSet, from_json

I1 = frozenset({"a1", "b1", "a2"})
I2 = frozenset({"a2", "b2", "a3"})
I3 = frozenset({"a3", "b3", "a4"})


def sierpinski_space() -> FiniteSpace:
    return FiniteSpace.build(["o", "c"], [{"o"}, {"o", "c"}])


def pseudo_circle_space() -> FiniteSpace:
    return FiniteSpace.build(
        ["a", "b", "c", "d"],
        [{"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "d"}, {"a", "b", "c", "d"}],
    )


def interval_cover_space() -> FiniteSpace:
    opens = [
        I1, I2, I3,
        {"a2"}, {"a3"}, {"a2", "a3"},
        I1 | {"a3"}, I3 | {"a2"},
        I1 | I2, I2 | I3, I1 | I3,
        I1 | I2 | I3,
    ]
    return FiniteSpace.build(["a1", "b1", "a2", "b2", "a3", "b3", "a4"], opens)


def pseudo_circle_cover(site: Site) -> Sieve:
    """The nontrivial covering sieve on the whole pseudo-circle."""
    x = open_id("abcd")
    gens = [f"{open_id('abc')}<={x}", f"{open_id('abd')}<={x}"]
    return generate_sieve(site.category, x, gens)


def interval_cover_sieve(site: Site) -> Sieve:
    """The three-subinterval covering sieve on the whole interval."""
    x = open_id(["a1", "b1", "a2", "b2", "a3", "b3", "a4"])
    gens = [f"{open_id(u)}<={x}" for u in (I1, I2, I3)]
    return generate_sieve(site.category, x, gens)


def two_open_cover(site: Site) -> Sieve:
    """The {a},{b} covering sieve on the open {a,b} of the pseudo-circle."""
    ab = open_id("ab")
    gens = [f"{open_id('a')}<={ab}", f"{open_id('b')}<={ab}"]
    return generate_sieve(site.category, ab, gens)


def point_category() -> FinCat:
    i = "id:*"
    return FinCat(["*"], [Morphism(i, "*", "*")], {"*": i}, {(i, i): i})


def bz2_category() -> FinCat:
    return FinCat(
        ["*"],
        [Morphism("e", "*", "*"), Morphism("t", "*", "*")],
        {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )


# One vertex, one loop: the smallest simplicial circle, as a document
# without its dim cap.
CIRCLE = {"nondegenerate": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"e": ["v", "v"]}}}


def circle_sset(dim_cap: int) -> SimplicialSet:
    return from_json({"dim_cap": dim_cap, **CIRCLE})


def collapse_set_presheaf(cat: FinCat, top) -> SetFunctor:
    """Two elements at the top object, a single element everywhere else."""
    values = {x: ("s",) for x in cat.objects}
    values[top] = ("0", "1")
    action = {}
    for m in cat.morphisms.values():
        if m.tgt == top and m.src != top:
            action[m.mid] = {"0": "s", "1": "s"}
        elif m.tgt == top:
            action[m.mid] = {"0": "0", "1": "1"}
        else:
            action[m.mid] = {"s": "s"}
    return SetFunctor(cat, values, action, covariant=False)


def swap_set_presheaf(cat: FinCat) -> SetFunctor:
    """Order-two action on two elements over the bz2 category: a free action."""
    return SetFunctor(
        cat,
        {"*": ("x", "y")},
        {"e": {"x": "x", "y": "y"}, "t": {"x": "y", "y": "x"}},
        covariant=False,
    )
