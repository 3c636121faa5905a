"""Acceptance gate: one test per numbered criterion.

Each test logs a single pass/fail line through record_criterion before its
assert, so the terminal summary always shows all eight verdicts.  Every
comparison here is exact (integer betti numbers, torsion tuples, matrix
entries, byte equality); no tolerances are involved anywhere.
"""

import random

from conftest import record_criterion
from finsite.catsite import open_id, site_from_finite_space
from finsite.cli import main as cli_main
from finsite.gallery import (
    bz2_category,
    circle_sset,
    collapse_set_presheaf,
    interval_cover_sieve,
    interval_cover_space,
    pseudo_circle_space,
    sierpinski_space,
)
from finsite.homology import (
    normalized_chain_complex,
    smith_normal_form,
    sset_homology,
)
from finsite.presheaf import (
    constant_set_presheaf,
    discretize,
    gamma_prime_set,
    is_sheaf_set,
    point_functor,
    representable_set_presheaf,
    sheafify_set,
)
from finsite.realization import covariant_descent_check, order_complex_functor, realize
from finsite.sset import SimplicialMap, pi0
from fixtures import disjoint_union, product, standard_simplex
from oracles import (
    composite_is_zero,
    direct_sum_matches,
    discretize_map,
    from_dense,
    germs,
    induced_map,
    induced_realization_map,
    projector_image,
    projector_maps,
    sections_presheaf_on_triples,
    snf_violations,
    stalk_family_sheaf,
    stalk_family_unit,
    triples_category,
)
from randgen import (
    disjoint_union_sp,
    random_matrix,
    random_nested_diagram,
    random_poset_with_max,
    random_set_presheaf,
    random_space,
)


def groups(s, max_deg):
    h = sset_homology(s, max_deg)
    return tuple(h.group(k).summands for k in range(max_deg + 1))


def test_criterion_1_final_object():
    rng = random.Random(11)
    cap = 3
    ok = True
    for _ in range(10):
        cat, mx = random_poset_with_max(rng, rng.randint(3, 7))
        f = random_nested_diagram(rng, cat, cap)
        re_s = realize(cat, f, point_functor(cat, cap, covariant=False), cap)
        val = f.values[mx]
        ok = ok and len(pi0(re_s)) == len(pi0(val))
        ok = ok and groups(re_s, cap - 1) == groups(val, cap - 1)
    assert record_criterion(
        1, ok, "realize(F, terminal) matches F(max) on pi0 and H0..H2, 10 random poset diagrams"
    )


def test_criterion_2_representables_and_disjoint_unions():
    rng = random.Random(22)
    cap = 3
    ok = True
    for _ in range(5):
        site = site_from_finite_space(random_space(rng, max_opens=8))
        cat = site.category
        f = random_nested_diagram(rng, cat, cap)
        objs = sorted(cat.objects, key=str)
        z, w = rng.choice(objs), rng.choice(objs)
        ya, yb = representable_set_presheaf(cat, z), representable_set_presheaf(cat, w)
        ha = groups(realize(cat, f, discretize(ya, cap), cap), cap - 1)
        hb = groups(realize(cat, f, discretize(yb, cap), cap), cap - 1)
        ok = ok and ha == groups(f.values[z], cap - 1)
        hu = groups(realize(cat, f, discretize(disjoint_union_sp(ya, yb), cap), cap), cap - 1)
        ok = ok and all(
            direct_sum_matches(ha[k], hb[k], hu[k]) for k in range(cap)
        )
    assert record_criterion(
        2, ok, "representables recover F(z) and 2-fold unions sum, 5 random poset sites"
    )


def test_criterion_3_pseudo_circle_sheafification_comparisons():
    space = pseudo_circle_space()
    site = site_from_finite_space(space)
    cat = site.category
    cap = 4
    f = order_complex_functor(space, cap, site)
    precondition = all(
        covariant_descent_check(site, f, x, s, 2).ok
        for x in cat.objects
        for s in site.coverings[x]
    )
    expected = {
        "collapse": ((0,), (0,)),
        "constant2": ((0, 0), (0, 0)),
    }
    ok = precondition
    for name, sp in (
        ("collapse", collapse_set_presheaf(cat, open_id("abcd"))),
        ("constant2", constant_set_presheaf(cat, ["0", "1"])),
    ):
        pm = discretize_map(sheafify_set(site, sp).unit, cap)
        sm = induced_realization_map(f, pm, cap)
        hs = sset_homology(sm.source, 1)
        ht = sset_homology(sm.target, 1)
        for k in (0, 1):
            im = induced_map(sm, hs, ht, k)
            ok = ok and im.source.summands == expected[name][k]
            ok = ok and im.target.summands == expected[name][k]
            ok = ok and im.permutation() is not None
    assert record_criterion(
        3, ok, "collapse and constant units give (Z, Z) and (Z^2, Z^2) isos, permutation matrices"
    )


def test_criterion_4_sheafification_against_oracle():
    rng = random.Random(44)
    ok = True
    for space in (pseudo_circle_space(), sierpinski_space()):
        site = site_from_finite_space(space)
        cat = site.category
        for _ in range(10):
            sp = random_set_presheaf(rng, cat)
            sh = sheafify_set(site, sp)
            ok = ok and is_sheaf_set(site, sh.sheaf).ok
            third = gamma_prime_set(site, sh.sheaf)
            for x in cat.objects:
                comp = third.unit.components[x]
                ok = ok and len(set(comp.values())) == len(comp)
                ok = ok and len(comp) == len(third.presheaf.values[x])
            oracle = stalk_family_sheaf(space, site, sp)
            unit_oracle = stalk_family_unit(space, site, sp)
            for x in cat.objects:
                fams = {germs(space, site, sp, t, x) for t in sh.sheaf.values[x]}
                ok = ok and len(fams) == len(sh.sheaf.values[x])
                ok = ok and fams == set(oracle.values[x])
                ok = ok and all(
                    germs(space, site, sp, sh.unit.components[x][s], x) == unit_oracle[x][s]
                    for s in sp.values[x]
                )
    assert record_criterion(
        4, ok, "20 random presheaves: sheaf condition, bijective third step, stalk oracle agrees"
    )


def test_criterion_5_descent_certificates():
    space = pseudo_circle_space()
    site = site_from_finite_space(space)
    cat = site.category
    f = order_complex_functor(space, 3, site)
    oc_ok = all(
        covariant_descent_check(site, f, x, s, 2).ok
        for x in cat.objects
        for s in site.coverings[x]
    )
    ispace = interval_cover_space()
    isite = site_from_finite_space(ispace)
    icover = interval_cover_sieve(isite)
    irep = covariant_descent_check(
        isite, order_complex_functor(ispace, 2, isite), icover.base, icover, 1
    )
    oc_ok = oc_ok and irep.ok
    # claimed counterexample: some cover where the constant-point functor
    # fails with realization H1 = Z against value H1 = 0
    pt = point_functor(cat, 3, covariant=True)
    failures = []
    claimed = False
    for x in cat.objects:
        for s in site.coverings[x]:
            rep = covariant_descent_check(site, pt, x, s, 2)
            if rep.ok:
                continue
            failures.append(rep)
            by_deg = {k: (a, b) for k, a, b in rep.degrees}
            claimed = claimed or by_deg[1] == ((0,), ())
    if claimed:
        detail = "order complex passes every cover; constant point shows the H1 mismatch"
    else:
        seen = "; ".join(
            f"at {r.obj} pi0 {r.pi0_realization} vs {r.pi0_value}" for r in failures
        )
        detail = (
            "order complex passes every cover, but no cover makes the constant-point "
            f"functor fail in H1 (Z vs 0); observed failures: {seen or 'none'}"
        )
    assert record_criterion(5, oc_ok and claimed, detail)


def test_criterion_6_projector_comparison_maps():
    site = site_from_finite_space(sierpinski_space())
    d = triples_category(site)
    img = projector_image(d)
    cap = 4
    g0 = constant_set_presheaf(site.category, ["0", "1"])
    gp = discretize(sections_presheaf_on_triples(site, g0, d), cap)
    f = point_functor(img.category, cap, covariant=True)
    a, b = projector_maps(d, f, gp, cap)
    ab = a.compose(b)
    table_ok = ab == SimplicialMap.identity(b.source)
    ba = b.compose(a)
    h = sset_homology(a.source, cap - 1)
    matrices_ok = all(induced_map(ba, h, h, k).is_identity() for k in range(cap))
    # b.a keeps every vertex position in its own component
    comp_of = {p: i for i, comp in enumerate(pi0(a.source)) for p in comp}
    pi0_ok = all(comp_of[q] == comp_of[p] for p, q in enumerate(ba.images[0]))
    assert record_criterion(
        6,
        table_ok and matrices_ok and pi0_ok,
        "a.b is the identity simplex table; b.a induces identity on pi0 and H0..H3",
    )


def test_criterion_7_homology_engine():
    rng = random.Random(77)
    ok = True
    for _ in range(100):
        rows = random_matrix(rng)
        ok = ok and not snf_violations(rows, smith_normal_form(from_dense(rows)))
    cat = bz2_category()
    pt, terminal = point_functor(cat, 4, covariant=True), point_functor(cat, 4, covariant=False)
    nerve = realize(cat, pt, terminal, 4)
    circle = circle_sset(3)
    constructed = [
        standard_simplex(3, 4),
        circle,
        product(circle, circle),
        disjoint_union([standard_simplex(2, 3), circle]),
        nerve,
    ]
    ok = ok and all(
        composite_is_zero(normalized_chain_complex(s, s.dim_cap)) for s in constructed
    )
    ok = ok and groups(nerve, 3) == ((0,), (2,), (), (2,))
    assert record_criterion(
        7, ok, "SNF properties on 100 random matrices; d.d = 0; BZ/2 gives (Z, Z/2, 0, Z/2)"
    )


def test_criterion_8_cli_determinism(tmp_path):
    kits = tmp_path / "kits"
    assert cli_main(["examples", "pseudo_circle", "--dir", str(kits)]) == 0
    space_file = str(kits / "pseudo_circle.space.json")
    cases = {
        "realize": (["realize", "--example", "pseudo_circle_terminal", "--format", "json"], True),
        "realize_text": (["realize", "--example", "bz2", "--format", "text"], True),
        "sheafify": (["sheafify", "--example", "pseudo_circle_constant2", "--format", "json"], False),
        "descent": (["descent-check", "--example", "interval_cover", "--format", "json"], False),
        "compare": (["compare", "--example", "constant2", "--format", "json"], True),
        "validate": (["validate", "--space", space_file, "--format", "json"], False),
    }
    ok = True
    for name, (argv, threaded) in cases.items():
        outs = []
        variants = [[], []] if not threaded else [["--threads", "1"], ["--threads", "1"], ["--threads", "4"]]
        for i, extra in enumerate(variants):
            out = tmp_path / f"{name}.{i}.out"
            code = cli_main(argv + extra + ["--out", str(out)])
            ok = ok and code == 0
            outs.append(out.read_bytes())
        ok = ok and len(set(outs)) == 1
    # the kit writer itself, twice
    k2 = tmp_path / "kits2"
    assert cli_main(["examples", "pseudo_circle", "--dir", str(k2)]) == 0
    names = sorted(p.name for p in kits.iterdir())
    ok = ok and names == sorted(p.name for p in k2.iterdir())
    ok = ok and all((kits / n).read_bytes() == (k2 / n).read_bytes() for n in names)
    assert record_criterion(
        8, ok, "all six CLI commands byte-identical across repeat runs and thread counts"
    )
