"""Integer homology engine: normal form, chain complexes, induced maps."""

import itertools
import math
import random
from array import array
from types import SimpleNamespace

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from finsite import homology as homology_module
from finsite.catsite import FiniteSpace, site_from_finite_space
from finsite.gallery import bz2_category, circle_sset, interval_cover_space, pseudo_circle_space
from finsite.homology import (
    InducedMap,
    IntMatrix,
    SNFResult,
    _verify_transforms,
    normalized_chain_complex,
    smith_normal_form,
    sset_homology,
)
from finsite.catsite import nerve
from finsite.presheaf import discretize, point_functor
from finsite.realization import order_complex_functor, realize
from finsite.reports import InputError, InternalCheckError
from finsite.sset import SimplicialMap, pi0

from fixtures import degeneracy, disjoint_union, product, standard_simplex
from oracles import (
    chain_map_matrix,
    composite_is_zero,
    dense_rows,
    dense_smith_normal_form,
    densify,
    determinant_divisor_diagonal,
    from_dense,
    homology,
    induced_map,
    snf_violations,
)
from randgen import random_matrix, random_set_presheaf, random_space


def test_snf_known_diagonal():
    a = from_dense([[2, 0], [0, 3]])
    res = smith_normal_form(a)
    # invariant factors of diag(2,3) are 1, 6
    assert res.diag == (1, 6)
    assert snf_violations([[2, 0], [0, 3]], res) == []


def test_snf_zero_and_identity():
    z = smith_normal_form(IntMatrix(3, 2))
    assert z.diag == (0, 0)
    assert z.rank == 0
    i = smith_normal_form(IntMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}]))
    assert i.diag == (1, 1, 1)


def test_snf_matches_determinant_divisors_small():
    rng = random.Random(5)
    for _ in range(60):
        rows = random_matrix(rng, max_n=4)
        res = smith_normal_form(from_dense(rows))
        assert list(res.diag) == determinant_divisor_diagonal(rows)


def test_snf_property_suite_larger():
    rng = random.Random(6)
    for _ in range(40):
        rows = random_matrix(rng, max_n=8)
        res = smith_normal_form(from_dense(rows))
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
        cases.append(from_dense(rows))
    return cases


def test_snf_equals_dense_oracle_on_random_matrices():
    cases = _random_cases(random.Random(41), 300)
    for a in cases:
        assert densify(smith_normal_form(a)) == dense_smith_normal_form(a)
    # the cases reach torsion, zero rows and zero columns
    assert sum(any(v > 1 for v in smith_normal_form(a).diag) for a in cases) >= 30
    assert any(not line for a in cases for line in a.sparse)
    assert any(all(j not in line for line in a.sparse) for a in cases if a.rows for j in range(a.cols))


def test_snf_diagonal_agrees_with_sympy():
    for a in _random_cases(random.Random(43), 60)[3:]:
        d = sympy_smith_normal_form(Matrix(dense_rows(a)), domain=ZZ)
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
            transforms = {"U": res.U, "V": res.V, "Uinv": res.Uinv, "Vinv": res.Vinv, name: lines}
            _verify_transforms(a, SNFResult(res.diag, res.rank, **transforms))


def test_transform_check_catches_a_wrong_diagonal(interval_cover_boundaries):
    # Every transform is intact, so only the U*A == D*Vinv product can tell.
    a = interval_cover_boundaries[2]
    res = smith_normal_form(a)
    for i in (0, res.rank - 1):
        diag = list(res.diag)
        diag[i] += 1
        with pytest.raises(InternalCheckError, match="U\\*A == D\\*Vinv"):
            _verify_transforms(a, SNFResult(tuple(diag), res.rank, res.U, res.V, res.Uinv, res.Vinv))


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
        # vertices a, b, edge e, triangle t, by position: d(e) = b - a, but
        # d(t) = e - e + e = e, so d(d(t)) != 0
        dim_cap = 2
        _faces = ((), (array("i", [1]), array("i", [0])), (array("i", [0]),) * 3)

        def nondegenerate(self, k):
            return ((0, 1), (0,), (0,))[k]

    with pytest.raises(InternalCheckError, match="boundary squared is nonzero at degree 1"):
        normalized_chain_complex(BrokenFaces(), 2)


def test_homology_never_reads_the_dense_view(monkeypatch):
    # Boundaries are built as sparse rows and every step reads those, so the
    # dense rows are never written out.
    def refuse(self):
        raise AssertionError("dense view read")

    monkeypatch.setattr(IntMatrix, "data", property(refuse))
    h = sset_homology(nerve(bz2_category(), 4), 3)
    assert [g.summands for g in h.groups] == [(0,), (2,), (), (2,)]


def test_int_matrix_refuses_bad_entries_and_compares_sparse_rows():
    a = IntMatrix(2, 3, [{1: 2}, {0: -1}])
    assert a == IntMatrix(2, 3, sparse=[{1: 2}, {0: -1}])
    assert a == from_dense([[0, 2, 0], [-1, 0, 0]])
    assert a != IntMatrix(2, 3, [{1: 2}, {0: 1}])
    assert IntMatrix(2, 2, [{0: 1}, {1: 1}]) == from_dense([[1, 0], [0, 1]])
    for bad in ([{3: 1}, {}], [{-1: 1}, {}], [{1: 0}, {}], [{}]):
        with pytest.raises(InputError):
            IntMatrix(2, 3, bad)


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


def mccord_sphere(n: int) -> FiniteSpace:
    """The (2n+2)-point minimal finite model of S^n: points m_i and p_i for
    i = 0..n, each above both points of level i - 1; the opens are the
    down-closed sets."""
    below: set[str] = set()
    opens = []
    for i in range(n + 1):
        m, p = f"m{i}", f"p{i}"
        opens += [below | {m}, below | {p}, below | {m, p}]
        below |= {m, p}
    return FiniteSpace.build(below, opens)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homology_of_mccord_spheres(n):
    # McCord: the order complex of the model is weakly equivalent to S^n.
    space = mccord_sphere(n)
    assert (len(space.points), len(space.opens)) == (2 * n + 2, 3 * n + 3)
    site = site_from_finite_space(space)
    cap = n + 1
    f = order_complex_functor(space, cap, site)
    g = point_functor(site.category, cap, covariant=False)
    s = realize(site.category, f, g, cap)
    assert len(pi0(s)) == 1
    h = sset_homology(s, n)
    assert [grp.label() for grp in h.groups] == ["Z"] + ["0"] * (n - 1) + ["Z"]


def _terminal_realization(space: FiniteSpace, cap: int):
    """The order complex of the space realized against the terminal presheaf."""
    site = site_from_finite_space(space)
    f = order_complex_functor(space, cap, site)
    return realize(site.category, f, point_functor(site.category, cap, covariant=False), cap)


def test_homology_walk_takes_each_normal_form_once(monkeypatch):
    # d + 2 normal forms through degree d: the zero boundary out of level 0,
    # then M_k for k = 0..d, the boundary out of level k + 1 in degree k's
    # cycle coordinates, whose normal form gives degree k + 1 its cycles;
    # none is taken past degree d
    s = _terminal_realization(pseudo_circle_space(), 3)
    cx = normalized_chain_complex(s, 3)
    assert all(any(b.sparse) for b in cx.boundary[1:])
    n = [len(level) for level in cx.basis]
    calls = []
    real = homology_module.smith_normal_form
    monkeypatch.setattr(homology_module, "smith_normal_form", lambda a: calls.append(a) or real(a))
    # columns of each input: boundary 0, then M_0..M_d
    for d in (0, 1, 2):
        calls.clear()
        h = sset_homology(s, d)
        assert [a.cols for a in calls] == n[: d + 2]
    assert len(calls) == 4 and calls[-1].rows < cx.boundary[3].rows
    assert [g.label() for g in h.groups] == ["Z", "Z", "0"]


def _assert_walk_matches_each_degree(s, d):
    """sset_homology(s, d) against homology() run alone in each degree: the
    same summands, the walk's generators reduced in the oracle's coordinates
    form an isomorphism, and that change of basis carries the walk's
    reduction of every oracle generator to the oracle's own."""
    walked = sset_homology(s, d).groups
    cx = normalized_chain_complex(s, d + 1)
    for k in range(d + 1):
        g, alone = walked[k], homology(cx, k)
        assert g.summands == alone.summands
        cols = [alone.reduce(z) for z in g.generators]
        change = tuple(tuple(c[i] for c in cols) for i in range(len(alone.summands)))
        assert InducedMap(g, alone, change).is_isomorphism()
        for z in alone.generators:
            y = g.reduce(z)
            back = [sum(a * b for a, b in zip(row, y)) for row in change]
            assert tuple(v % o if o else v for v, o in zip(back, alone.summands)) == alone.reduce(z)


def test_homology_walk_matches_each_degree_on_the_realize_gallery(monkeypatch, capsys):
    # each example's bar realization, which realize builds whichever route
    # its homology takes, at the default cap and max_deg
    from finsite import cli

    seen = []

    def recorded(*args):
        seen.append((realize(*args), args[-1] - 1))
        return seen[-1][0]

    monkeypatch.setattr(cli, "realize", recorded)
    for name in cli.EXAMPLES["realize"]:
        assert cli.main(["realize", "--example", name]) == 0
    capsys.readouterr()
    assert len(seen) == len(cli.EXAMPLES["realize"])
    for s, max_deg in seen:
        _assert_walk_matches_each_degree(s, max_deg)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homology_walk_matches_each_degree_on_mccord_spheres(n):
    _assert_walk_matches_each_degree(_terminal_realization(mccord_sphere(n), n + 1), n)


def test_homology_walk_matches_each_degree_on_random_spaces():
    # mostly contractible, with several components and zero boundaries
    rng = random.Random(20)
    cap = 3
    for _ in range(12):
        space = random_space(rng)
        site = site_from_finite_space(space)
        f = order_complex_functor(space, cap, site)
        g = discretize(random_set_presheaf(rng, site.category), cap)
        _assert_walk_matches_each_degree(realize(site.category, f, g, cap), cap - 1)


def test_homology_disjoint_union_adds_betti():
    u = disjoint_union([circle_sset(3), circle_sset(3)])
    h = sset_homology(u, 2)
    assert h.group(0).to_json()["betti"] == 2
    assert h.group(1).to_json()["betti"] == 2


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


def _iso(src, tgt, matrix) -> bool:
    groups = SimpleNamespace(summands=src), SimpleNamespace(summands=tgt)
    return InducedMap(*groups, matrix).is_isomorphism()


# canonical torsion parts: invariant factors in divisibility order
_TORSION = [(), (2,), (3,), (4,), (2, 2), (2, 4), (6,)]


def _random_hom(rng, src, tgt):
    """A homomorphism between the groups with these summands, as induced_map
    writes it: row i reduced mod tgt[i] where that is torsion, and a torsion
    column sends its generator to an element of its order."""
    rows = []
    for e in tgt:
        row = []
        for d in src:
            if e == 0:
                row.append(0 if d else rng.randint(-2, 2))
            elif d == 0:
                row.append(rng.randrange(e))
            else:
                step = e // math.gcd(e, d)
                row.append(step * rng.randrange(e // step))
        rows.append(tuple(row))
    return tuple(rows)


def _oracle_iso(src, tgt, matrix) -> bool:
    """Isomorphism by the five lemma on torsion and free quotient: the free
    block has determinant +-1 (sympy), and the torsion block is a bijection
    by enumeration of every element."""
    ts, fs = [j for j, d in enumerate(src) if d], [j for j, d in enumerate(src) if not d]
    tt, ft = [i for i, e in enumerate(tgt) if e], [i for i, e in enumerate(tgt) if not e]
    if len(fs) != len(ft):
        return False
    if abs(Matrix([[matrix[i][j] for j in fs] for i in ft]).det()) != 1:
        return False
    images = {
        tuple(sum(matrix[i][j] * x for j, x in zip(ts, xs)) % tgt[i] for i in tt)
        for xs in itertools.product(*(range(src[j]) for j in ts))
    }
    return len(images) == math.prod(src[j] for j in ts) == math.prod(tgt[i] for i in tt)


def _sympy_onto(tgt, matrix) -> bool:
    """All invariant factors of [matrix | diag(tgt)] are 1, by sympy."""
    m = len(tgt)
    if m == 0:
        return True
    orders = [[e if i == c else 0 for c in range(m)] for i, e in enumerate(tgt)]
    wide = Matrix([list(row) + d for row, d in zip(matrix, orders)])
    d = sympy_smith_normal_form(wide, domain=ZZ)
    return all(abs(d[i, i]) == 1 for i in range(m))


def test_is_isomorphism_against_sympy_on_seeded_maps():
    rng = random.Random(28)
    seen = {True: 0, False: 0}
    for _ in range(300):
        src = rng.choice(_TORSION) + (0,) * rng.randint(0, 2)
        tgt = src if rng.random() < 0.7 else rng.choice(_TORSION) + (0,) * rng.randint(0, 2)
        matrix = _random_hom(rng, src, tgt)
        want = _oracle_iso(src, tgt, matrix)
        assert _iso(src, tgt, matrix) == want, (src, tgt, matrix)
        if src == tgt:
            assert want == _sympy_onto(tgt, matrix), (src, tgt, matrix)
        seen[want] += 1
    assert min(seen.values()) >= 50


@pytest.mark.parametrize(
    "src, tgt, matrix, iso",
    [
        ((2,), (4,), ((2,),), False),  # Z/2 -> Z/4, one-to-one but not onto
        ((4,), (2,), ((1,),), False),  # onto but not one-to-one
        ((0,), (0,), ((2,),), False),  # Z -> Z by 2
        ((0,), (0,), ((-1,),), True),
        ((0, 0), (0, 0), ((2, 1), (1, 1)), True),  # unimodular, not a permutation
        ((2, 0), (2, 0), ((1, 1), (0, -1)), True),  # Z/2 + Z, mixing into the torsion
        ((3,), (3,), ((2,),), True),
        ((), (), (), True),
        ((0,), (), (), False),
    ],
)
def test_is_isomorphism_on_known_maps(src, tgt, matrix, iso):
    assert _iso(src, tgt, matrix) is iso
    assert _oracle_iso(src, tgt, matrix) is iso


def test_induced_map_collapse_kills_h1():
    s = circle_sset(2)
    pt = standard_simplex(0, 2)
    v = pt.simplices(0)[0]

    # collapse everything to the unique simplex over v at each level
    def to_point(k, z):
        out = v
        for j in range(k):
            out = degeneracy(pt, j, out, 0)
        return out

    m = SimplicialMap.from_function(s, pt, to_point)
    im = induced_map(m, sset_homology(s, 1), sset_homology(pt, 1), 1)
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
            out = degeneracy(pt, j, out, 0)
        return out

    m = SimplicialMap.from_function(s, pt, to_point)
    hs = sset_homology(s, 1)
    ht = sset_homology(pt, 1)
    mat = chain_map_matrix(m, 1, hs.complex.basis[1], ht.complex.basis[1])
    assert not any(mat)
