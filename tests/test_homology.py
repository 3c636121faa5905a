"""Integer homology engine: normal form, chain complexes, induced maps."""

import random

import pytest

from finsite.gallery import bz2_category, circle_sset
from finsite.homology import (
    IntMatrix,
    chain_map_matrix,
    homology,
    induced_homology_map,
    induced_map,
    normalized_chain_complex,
    smith_normal_form,
    sset_homology,
)
from finsite.catsite import nerve
from finsite.reports import InputError
from finsite.sset import (
    SimplicialMap,
    disjoint_union,
    product,
    standard_simplex,
)

from oracles import (
    composite_is_zero,
    determinant_divisor_diagonal,
    snf_violations,
)
from randgen import random_matrix


def test_snf_known_diagonal():
    a = IntMatrix(2, 2, [[2, 0], [0, 3]])
    res = smith_normal_form(a)
    # invariant factors of diag(2,3) are 1, 6
    assert res.diag == (1, 6)
    assert snf_violations([[2, 0], [0, 3]], res) == []


def test_snf_zero_and_identity():
    z = smith_normal_form(IntMatrix(3, 2))
    assert z.diag == (0, 0)
    assert z.rank == 0
    i = smith_normal_form(IntMatrix.identity(3))
    assert i.diag == (1, 1, 1)


def test_snf_matches_determinant_divisors_small():
    rng = random.Random(5)
    for _ in range(60):
        rows = random_matrix(rng, max_n=4)
        res = smith_normal_form(IntMatrix(len(rows), len(rows[0]), [r[:] for r in rows]))
        assert list(res.diag) == determinant_divisor_diagonal(rows)


def test_snf_property_suite_larger():
    rng = random.Random(6)
    for _ in range(40):
        rows = random_matrix(rng, max_n=8)
        res = smith_normal_form(IntMatrix(len(rows), len(rows[0]), [r[:] for r in rows]))
        assert snf_violations(rows, res) == []


def test_chain_complex_boundaries_compose_to_zero():
    for s in [
        standard_simplex(3, 4),
        circle_sset(4),
        product(circle_sset(3), circle_sset(3)),
        disjoint_union([standard_simplex(2, 3), circle_sset(3)]),
    ]:
        cx = normalized_chain_complex(s, s.dim_cap)
        assert composite_is_zero(cx)


def test_homology_point_and_simplex():
    h = sset_homology(standard_simplex(3, 4), 3)
    assert [g.label() for g in h.groups] == ["Z", "0", "0", "0"]


def test_homology_circle():
    h = sset_homology(circle_sset(3), 2)
    assert [g.label() for g in h.groups] == ["Z", "Z", "0"]


def test_homology_torus_from_product():
    t = product(circle_sset(3), circle_sset(3))
    h = sset_homology(t, 2)
    assert h.group(0).label() == "Z"
    assert h.group(1).label() == "Z^2"
    assert h.group(2).label() == "Z"


def test_homology_classifying_space_of_z2():
    h = sset_homology(nerve(bz2_category(), 4), 3)
    assert [g.summands for g in h.groups] == [(0,), (2,), (), (2,)]
    assert [g.label() for g in h.groups] == ["Z", "Z/2", "0", "Z/2"]


def test_homology_disjoint_union_adds_betti():
    u = disjoint_union([circle_sset(3), circle_sset(3)])
    h = sset_homology(u, 2)
    assert h.group(0).betti == 2
    assert h.group(1).betti == 2


def test_homology_degree_guards():
    s = circle_sset(2)
    with pytest.raises(InputError):
        sset_homology(s, 2)
    with pytest.raises(InputError):
        homology(normalized_chain_complex(s, 2), 2)
    with pytest.raises(InputError):
        homology(normalized_chain_complex(s, 2), -1)


def test_generator_reduction_round_trip():
    h = sset_homology(circle_sset(2), 1)
    g1 = h.group(1)
    assert g1.summands == (0,)
    gen = g1.generators[0]
    assert g1.reduce(gen) == (1,)
    doubled = tuple(2 * c for c in gen)
    assert g1.reduce(doubled) == (2,)


def test_reduce_rejects_non_cycles():
    s = standard_simplex(1, 2)
    h = sset_homology(s, 1)
    cx = h.complex
    # a single edge is not a cycle in the interval
    chain = tuple(1 if i == 0 else 0 for i in range(len(cx.basis[1])))
    with pytest.raises(InputError):
        h.group(1).reduce(chain)


def test_induced_map_identity():
    s = circle_sset(3)
    ident = SimplicialMap.identity(s)
    h = sset_homology(s, 2)
    for k in range(3):
        im = induced_map(ident, h, h, k)
        assert im.is_identity()
        assert im.permutation() == tuple(range(len(h.group(k).summands)))


def test_induced_map_collapse_kills_h1():
    s = circle_sset(2)
    pt = standard_simplex(0, 2)
    v = pt.simplices(0)[0]

    # collapse everything to the unique simplex over v at each level
    def to_point(k, z):
        out = v
        for j in range(k):
            out = pt.degeneracy(j, out, 0)
        return out

    m = SimplicialMap.from_function(s, pt, to_point)
    im = induced_homology_map(m, 1)
    assert im.source.summands == (0,)
    assert im.target.summands == ()
    assert im.matrix == ()


def test_chain_map_matrix_drops_degenerate_images():
    s = circle_sset(2)
    pt = standard_simplex(0, 2)
    v = pt.simplices(0)[0]

    def to_point(k, z):
        out = v
        for j in range(k):
            out = pt.degeneracy(j, out, 0)
        return out

    m = SimplicialMap.from_function(s, pt, to_point)
    hs = sset_homology(s, 1)
    ht = sset_homology(pt, 1)
    mat = chain_map_matrix(m, 1, hs.complex.basis[1], ht.complex.basis[1])
    assert mat.rows == 0 or mat.is_zero()
