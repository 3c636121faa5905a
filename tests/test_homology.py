"""Integer homology engine: normal form, chain complexes, induced maps."""

import random
from dataclasses import replace

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from finsite.catsite import site_from_finite_space
from finsite.gallery import bz2_category, circle_sset, interval_cover_space
from finsite.homology import (
    IntMatrix,
    _verify_transforms,
    chain_map_matrix,
    homology,
    induced_homology_map,
    induced_map,
    normalized_chain_complex,
    smith_normal_form,
    sset_homology,
)
from finsite.catsite import nerve
from finsite.presheaf import point_functor
from finsite.realization import order_complex_functor, realize
from finsite.reports import InputError, InternalCheckError
from finsite.sset import (
    SimplicialMap,
    disjoint_union,
    product,
    standard_simplex,
)

from oracles import (
    composite_is_zero,
    dense_smith_normal_form,
    densify,
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


def _random_cases(rng, count):
    """Seeded matrices from random_matrix, some thinned to mostly zeros and
    some with a zeroed row or column, plus the empty shapes."""
    cases = [IntMatrix(0, 3), IntMatrix(4, 0), IntMatrix(0, 0)]
    for _ in range(count):
        rows = random_matrix(rng, max_n=7)
        if rng.random() < 0.5:
            rows = [[v if rng.random() < 0.3 else 0 for v in row] for row in rows]
        if rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * len(rows[0])
        if rng.random() < 0.3:
            j = rng.randrange(len(rows[0]))
            for row in rows:
                row[j] = 0
        cases.append(IntMatrix(len(rows), len(rows[0]), rows))
    return cases


def test_snf_equals_dense_oracle_on_random_matrices():
    cases = _random_cases(random.Random(41), 300)
    for a in cases:
        assert densify(smith_normal_form(a)) == dense_smith_normal_form(a)
    # the cases reach torsion, zero rows and zero columns
    assert sum(any(v > 1 for v in smith_normal_form(a).diag) for a in cases) >= 30
    assert any(not any(row) for a in cases for row in a.data)
    assert any(not any(row[j] for row in a.data) for a in cases if a.rows for j in range(a.cols))


def test_snf_diagonal_agrees_with_sympy():
    for a in _random_cases(random.Random(43), 60)[3:]:
        d = sympy_smith_normal_form(Matrix(a.data), domain=ZZ)
        want = tuple(abs(int(d[i, i])) for i in range(min(d.shape)))
        assert smith_normal_form(a).diag == want


@pytest.fixture(scope="module")
def interval_cover_boundaries():
    """Distinct boundary matrices of the interval cover's order complex
    realized against the terminal presheaf, at dim caps 2 and 3."""
    space = interval_cover_space()
    site = site_from_finite_space(space)
    out = []
    for cap in (2, 3):
        f = order_complex_functor(space, cap, site)
        g = point_functor(site.category, cap, covariant=False)
        for b in normalized_chain_complex(realize(site.category, f, g, cap), cap).boundary:
            if b not in out:
                out.append(b)
    return out


def test_snf_equals_dense_oracle_on_interval_cover_boundaries(interval_cover_boundaries):
    assert [(b.rows, b.cols) for b in interval_cover_boundaries] == [
        (0, 44), (44, 235), (235, 646), (646, 1338)
    ]
    for b in interval_cover_boundaries:
        assert densify(smith_normal_form(b)) == dense_smith_normal_form(b)


def test_snf_equals_dense_oracle_on_bz2_nerve():
    for b in normalized_chain_complex(nerve(bz2_category(), 4), 4).boundary:
        assert densify(smith_normal_form(b)) == dense_smith_normal_form(b)


def test_transform_check_catches_one_flipped_entry_above_200(interval_cover_boundaries):
    a = interval_cover_boundaries[2]
    assert a.rows > 200 and a.cols >= 250
    res = smith_normal_form(a)
    _verify_transforms(a, res)
    for name in ("U", "V", "Uinv", "Vinv"):
        lines = [dict(line) for line in getattr(res, name)]
        line = lines[len(lines) // 2]
        k = min(line)
        line[k] = -line[k]
        with pytest.raises(InternalCheckError):
            _verify_transforms(a, replace(res, **{name: lines}))


def test_chain_complex_boundaries_compose_to_zero():
    for s in [
        standard_simplex(3, 4),
        circle_sset(4),
        product(circle_sset(3), circle_sset(3)),
        disjoint_union([standard_simplex(2, 3), circle_sset(3)]),
    ]:
        cx = normalized_chain_complex(s, s.dim_cap)
        assert composite_is_zero(cx)


def test_chain_complex_refuses_nonzero_boundary_squared():
    class BrokenFaces:
        # d(e) = b - a, but d(t) = e - e + e = e, so d(d(t)) != 0
        dim_cap = 2

        def nondegenerate(self, k):
            return (("a", "b"), ("e",), ("t",))[k]

        def face(self, k, z, i):
            return ("b", "a")[i] if k == 1 else "e"

    with pytest.raises(InternalCheckError, match="boundary squared is nonzero at degree 1"):
        normalized_chain_complex(BrokenFaces(), 2)


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
    assert not any(mat)
