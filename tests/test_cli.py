"""Command line interface: flows, exit codes, determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finsite
from finsite import cli, gallery
from finsite.canon import cjson
from finsite.catsite import FiniteSpace, open_id, space_to_json
from finsite.cli import DOCUMENTS, EXAMPLES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_example_text(capsys):
    code, out, err = run(capsys, "realize", "--example", "pseudo_circle_terminal")
    assert code == 0 and err == ""
    assert "pi0=1" in out
    assert "H1: Z" in out


def test_realize_example_json_fields(capsys):
    code, out, _ = run(
        capsys, "realize", "--example", "bz2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["trusted_max_degree"] == 3
    assert data["homology"][1] == {"degree": 1, "betti": 0, "torsion": [2]}
    assert data["homology"][3] == {"degree": 3, "betti": 0, "torsion": [2]}
    assert "annotations" in data["realization"]


def test_max_deg_over_cap_is_input_error(capsys):
    code, out, err = run(
        capsys, "realize", "--example", "bz2", "--max-deg", "4"
    )
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"]["type"] == "InputError"


def test_examples_roundtrip_through_files(tmp_path, capsys):
    code, _, _ = run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    assert code == 0
    code, out, _ = run(
        capsys,
        "descent-check",
        "--space",
        str(tmp_path / "pseudo_circle.space.json"),
        "--object",
        "{a,b,c,d}",
        "--sieve",
        str(tmp_path / "pseudo_circle.cover.sieve.json"),
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["ok"] is True
    assert data["report"]["pi0"] == {"realization": 1, "value": 1, "equal": True}


UNKNOWN_EXAMPLE = {
    "realize": "unknown realize example nope; known: pseudo_circle_terminal, "
    "point_site, bz2, action_z2_free",
    "sheafify": "unknown sheafify example nope; known: pseudo_circle_constant2, collapse",
    "descent-check": "unknown descent example nope; known: pseudo_circle_order_complex, "
    "pseudo_circle_constant_point_F, interval_cover, sierpinski_maximal",
    "compare": "unknown compare example nope; known: collapse, constant2, identity",
}


@pytest.mark.parametrize("command", UNKNOWN_EXAMPLE)
def test_unknown_example_lists_the_known_ones(capsys, command):
    code, out, err = run(capsys, command, "--example", "nope")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["detail"] == UNKNOWN_EXAMPLE[command]


@pytest.mark.parametrize(
    "command,name", [(command, name) for command, names in EXAMPLES.items() for name in names]
)
def test_example_reads_like_its_documents_as_files(tmp_path, capsys, command, name):
    # --example passes its documents inline; written out as files they must
    # give the same bytes
    argv = []
    for arg in EXAMPLES[command][name]:
        if arg in DOCUMENTS:
            path = tmp_path / arg
            path.write_text(cjson(DOCUMENTS[arg](4)))
            arg = str(path)
        argv.append(arg)
    for fmt in ("json", "text"):
        want = run(capsys, command, "--example", name, "--format", fmt)
        assert want[0] == 0
        assert run(capsys, command, *argv, "--format", fmt) == want


def test_file_inputs_build_no_gallery_instance(tmp_path, capsys, monkeypatch):
    run(capsys, "examples", "interval_cover", "--dir", str(tmp_path))
    builders = {
        name: fn
        for name, fn in vars(gallery).items()
        if inspect.isfunction(fn) and fn.__module__ == gallery.__name__
    }

    def refuse(name):
        def built(*args):
            raise AssertionError(f"gallery.{name} was called")

        return built

    for name in builders:
        monkeypatch.setattr(gallery, name, refuse(name))
    space = str(tmp_path / "interval_cover.space.json")
    assert run(capsys, "realize", "--space", space, "--dim-cap", "1")[0] == 0
    assert run(capsys, "validate", "--space", space)[0] == 0
    # a kit builds its own documents and no other
    for name in ("interval_cover_space", "interval_cover_sieve"):
        monkeypatch.setattr(gallery, name, builders[name])
    code, _, err = run(capsys, "examples", "interval_cover", "--dir", str(tmp_path / "again"))
    assert code == 0 and err == ""
    for path in tmp_path.glob("*.json"):
        assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()


def test_order_complex_on_a_bare_category_names_the_missing_space(capsys):
    # realize needs no covering data, but the order complex is built on a
    # space's points; a command that needs a site still asks for covering data
    bz2 = cjson(DOCUMENTS["bz2.category.json"](4))
    code, out, err = run(capsys, "realize", "--cat", bz2, "--functor", "order_complex")
    assert code == 2 and out == ""
    detail = json.loads(err)["error"]["detail"]
    assert detail == "the order_complex functor needs a space's points; give --space, not --cat"
    code, out, err = run(capsys, "descent-check", "--cat", bz2, "--functor", "order_complex")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["detail"] == "this command needs covering data; give --space, not --cat"


def test_examples_unknown_name_lists_known(capsys):
    code, _, err = run(capsys, "examples", "moebius")
    assert code == 2
    record = json.loads(err)
    assert "pseudo_circle" in record["error"]["detail"]


def test_sheafify_collapse_reports_unit(capsys):
    code, out, _ = run(
        capsys, "sheafify", "--example", "collapse", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["input_is_sheaf"]["ok"] is False
    assert data["result_is_sheaf"]["ok"] is True
    assert data["unit_bijective"] is False
    assert all(len(v) == 1 for v in data["sheaf"]["values"].values())


def test_sheafify_sheaf_input_has_bijective_unit(tmp_path, capsys):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    # a representable is a sheaf on this site; its unit must be a bijection
    code, out, _ = run(
        capsys,
        "sheafify",
        "--space",
        str(tmp_path / "pseudo_circle.space.json"),
        "--presheaf",
        "representable:{a,b}",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["input_is_sheaf"]["ok"] is True
    assert data["unit_bijective"] is True


def test_sheafify_checks_each_sheaf_condition_once(capsys, monkeypatch):
    # the input once in cmd_sheafify, the result once inside sheafify_set
    from finsite import cli, presheaf

    calls = []
    check = presheaf.is_sheaf_set
    for module in (presheaf, cli):
        monkeypatch.setattr(module, "is_sheaf_set", lambda *a: calls.append(a) or check(*a))
    space = cjson(DOCUMENTS["interval_cover.space.json"](0))
    code, out, _ = run(capsys, "sheafify", "--space", space, "--presheaf", "constant:0,1", "--format", "json")
    assert (code, len(calls)) == (0, 2)
    assert json.loads(out)["result_is_sheaf"]["ok"] is True


def test_descent_example_fails_honestly(capsys):
    code, out, _ = run(
        capsys,
        "descent-check",
        "--example",
        "pseudo_circle_constant_point_F",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["ok"] is False
    assert data["report"]["pi0"] == {"realization": 2, "value": 1, "equal": False}


def test_compare_collapse_verdict(capsys):
    code, out, _ = run(capsys, "compare", "--example", "collapse", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["ok"] is True
    assert data["pi0_certificate"]["ok"] is True
    for row in data["degrees"]:
        assert row["identity"] is True


@pytest.mark.parametrize("presheaf, perm", [("collapse", [0]), ("constant:a,b,c", [0, 1, 2])])
def test_compare_on_the_two_sphere_matches_the_h2_generators(capsys, presheaf, perm):
    # McCord's six-point S^2: H2 is nonzero, so the verdict rests on the map
    # induced in degree 2 being an isomorphism
    from test_homology import mccord_sphere

    space = json.dumps(space_to_json(mccord_sphere(2)))
    argv = ["compare", "--space", space, "--presheaf", presheaf, "--dim-cap", "3"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["verdict"]["ok"] is True
    h2 = data["degrees"][2]
    assert h2["source"]["betti"] == len(perm)
    assert (h2["identity"], h2["permutation"]) == (True, perm)


def test_compare_on_the_three_sphere_tags_an_isomorphism_that_is_no_permutation(capsys):
    # the base is the cone on McCord's S^2 (McCord's S^3 without p3), and the
    # presheaf holds {0, 1} times {a, b} at the whole space, restricting to
    # {0, 1} below it.  Each of its two components realizes the suspension
    # S^3 of S^2, one cone per letter, and the map swaps a and b: it exchanges
    # the cones, so H3 goes to -1 times itself in any generator basis.  The
    # matrix is no permutation; the verdict is that of the map, an
    # isomorphism
    from test_homology import mccord_sphere

    s3 = mccord_sphere(3)
    cone = FiniteSpace.build([q for q in s3.points if q != "p3"], [o for o in s3.opens if "p3" not in o])
    top = open_id(cone.points)
    values = {open_id(o): ["0", "1"] for o in cone.opens} | {top: ["0a", "0b", "1a", "1b"]}
    actions = {
        f"{open_id(u)}<={open_id(v)}": {x: x[0] for x in values[open_id(v)]}
        for u in cone.opens
        for v in cone.opens
        if u < v
    }
    doc = json.dumps({"values": values, "actions": actions})
    swap = {x: {v: v.translate(str.maketrans("ab", "ba")) for v in vs} for x, vs in values.items()}
    argv = ["compare", "--space", json.dumps(space_to_json(cone)), "--presheaf", doc,
            "--presheaf2", doc, "--map", json.dumps({"components": swap}), "--dim-cap", "4"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "compare: EQUIVALENT through degree 3",
        "pi0: 2 vs 2; certificate ok",
        "H0: Z^2 -> Z^2 (identity)",
        "H1: 0 -> 0 (identity)",
        "H2: 0 -> 0 (identity)",
        "H3: Z^2 -> Z^2 (isomorphism)",
    ]


def test_validate_good_and_bad_space(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": ["p", "q"], "opens": [["p"], ["p", "q"]]}))
    code, out, _ = run(capsys, "validate", "--space", str(good))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["p", "q"], "opens": [["p"]]}))
    code, out, _ = run(capsys, "validate", "--space", str(bad), "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["report"]["kind"] == "whole-missing"


def test_realize_checks_the_space_once(capsys, monkeypatch):
    from finsite import catsite, cli

    checks = []
    check = catsite.validate_space
    for module in (catsite, cli):
        monkeypatch.setattr(module, "validate_space", lambda s: checks.append(s) or check(s))
    good = '{"points":["a","b"],"opens":[["a"],["a","b"]]}'
    code, _, _ = run(capsys, "realize", "--space", good, "--dim-cap", "1")
    assert (code, len(checks)) == (0, 1)
    code, out, err = run(capsys, "realize", "--space", '{"points":["a","b"],"opens":[["a"]]}')
    assert (code, out, len(checks)) == (3, "", 2)
    assert json.loads(err) == {
        "error": {
            "detail": "whole-missing: whole point set is not open",
            "exit": 3,
            "type": "ValidationError",
        }
    }


def test_validate_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"


def _interval_tables() -> dict:
    """Full-table JSON of Delta^1 capped at 2: simplices are weak monotone
    words in a <= b, d_i drops letter i and s_i doubles it."""
    words = {0: ["a", "b"], 1: ["aa", "ab", "bb"], 2: ["aaa", "aab", "abb", "bbb"]}
    return {
        "dim_cap": 2,
        "simplices": {str(k): list(ws) for k, ws in words.items()},
        "faces": {
            str(k): {w: [w[:i] + w[i + 1 :] for i in range(k + 1)] for w in words[k]}
            for k in (1, 2)
        },
        "degeneracies": {
            str(k): {w: [w[: i + 1] + w[i:] for i in range(k + 1)] for w in words[k]}
            for k in (0, 1)
        },
    }


def _drop_last_face(t):
    t["faces"]["2"]["aab"].pop()


def _face_in_own_level(t):
    t["faces"]["2"]["abb"][1] = "abb"


def _stray_face(t):
    t["faces"]["1"]["ghost"] = ["a", "b"]


def _duplicate_edge(t):
    t["simplices"]["1"].insert(1, "ab")


def _degeneracy_to_vertex(t):
    t["degeneracies"]["0"]["a"][0] = "a"


def _swapped_edge_faces(t):
    t["faces"]["1"]["ab"] = ["a", "b"]


def _degenerate_edge_not_an_image(t):
    # s_0 a names the nondegenerate edge, so aa is flagged by no image
    t["degeneracies"]["0"]["a"] = ["ab"]


MALFORMED_TABLES = {
    "missing-face": (_drop_last_face, "face-missing", "d_2 missing", ["2", "aab"]),
    "face-outside-level": (
        _face_in_own_level, "face-codomain", "d_1 lands outside", ["2", "abb", "1"]
    ),
    "stray-face": (
        _stray_face, "face-domain", "face table has stray entries", ["(1,ghost,0)"]
    ),
    "duplicate-simplex": (_duplicate_edge, "duplicate-simplex", "level has duplicates", ["1"]),
    "degeneracy-outside-level": (
        _degeneracy_to_vertex, "degeneracy-codomain", "s_0 lands outside", ["0", "a", "0"]
    ),
    "broken-dd": (
        _swapped_edge_faces, "identity-dd", "d_0 d_2 != d_1 d_0", ["2", "aab", "0", "2"]
    ),
    "degeneracy-flag": (
        _degenerate_edge_not_an_image,
        "identity-ss",
        "s_0 s_0 != s_1 s_0",
        ["0", "a", "0", "0"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_validate_sset_reports_malformed_tables(tmp_path, capsys, case):
    # One defect per file; the first failing check and its witness are pinned.
    # A degeneracy-flag mismatch always breaks a simplicial identity, so its
    # file reports that identity.
    spoil, kind, detail, witness = MALFORMED_TABLES[case]
    tables = _interval_tables()
    path = tmp_path / "good.json"
    path.write_text(json.dumps(tables))
    code, out, _ = run(capsys, "validate", "--sset", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["report"]["ok"] is True
    spoil(tables)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(tables))
    code, out, err = run(capsys, "validate", "--sset", str(path), "--format", "json")
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "command": "validate",
        "kind": "sset",
        "report": {"ok": False, "kind": kind, "detail": detail, "witness": witness},
    }


def test_validate_sset_names_the_first_broken_simplex_in_level_order(tmp_path, capsys):
    # aab lacks d_2 and the later abb lacks every face, d_0 first: tables are
    # filled simplex by simplex, so the report names aab, not the d_0 gap
    tables = _interval_tables()
    _drop_last_face(tables)
    del tables["faces"]["2"]["abb"]
    path = tmp_path / "two-gaps.json"
    path.write_text(json.dumps(tables))
    code, out, err = run(capsys, "validate", "--sset", str(path), "--format", "json")
    assert code == 3 and err == ""
    assert json.loads(out)["report"] == {
        "ok": False, "kind": "face-missing", "detail": "d_2 missing", "witness": ["2", "aab"]
    }


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "realize", "--space", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in json.loads(err)["error"]["detail"]


def test_malformed_category_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "cat.json"
    bad.write_text(json.dumps({"objects": ["x"]}))
    code, _, err = run(capsys, "realize", "--cat", str(bad))
    assert code == 2


def test_invalid_category_table_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "cat.json"
    bad.write_text(
        json.dumps(
            {
                "objects": ["x"],
                "morphisms": [{"id": "f", "src": "x", "tgt": "x"}],
                "identities": {"x": "f"},
                "composition": [["f", "f", "f"]],
            }
        )
    )
    # f is declared the identity, so the table is consistent; break it instead
    bad.write_text(
        json.dumps(
            {
                "objects": ["x"],
                "morphisms": [
                    {"id": "f", "src": "x", "tgt": "x"},
                    {"id": "g", "src": "x", "tgt": "x"},
                ],
                "identities": {"x": "f"},
                "composition": [
                    ["f", "f", "f"],
                    ["f", "g", "f"],
                    ["g", "f", "g"],
                    ["g", "g", "g"],
                ],
            }
        )
    )
    code, _, err = run(capsys, "realize", "--cat", str(bad))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path, threads in ((a, "1"), (b, "4")):
        code, _, _ = run(
            capsys,
            "realize",
            "--example",
            "pseudo_circle_terminal",
            "--format",
            "json",
            "--threads",
            threads,
            "--out",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_inline_sieve_json(capsys):
    code, out, _ = run(
        capsys,
        "descent-check",
        "--example",
        "pseudo_circle_order_complex",
        "--format",
        "json",
    )
    data = json.loads(out)
    assert data["report"]["ok"] is True
    assert len(data["report"]["sieve"]) == 5



def _collapse_with(kit, key, name, value):
    """The kit's collapse presheaf with one action or value replaced."""
    data = json.loads((kit / "pseudo_circle.collapse.presheaf.json").read_text())
    data[key][name] = value
    return json.dumps(data)


def _compare_map(kit, change):
    """compare arguments with --map the identity of constant:0,1 on the
    kit's site, its components edited by change."""
    objects = json.loads((kit / "pseudo_circle.collapse.presheaf.json").read_text())["values"]
    components = {x: {"0": "0", "1": "1"} for x in objects}
    change(components)
    return [
        "compare",
        "--presheaf",
        "constant:0,1",
        "--presheaf2",
        "constant:0,1",
        "--map",
        json.dumps({"components": components}),
    ]


def _point_presheaf_with(kit, extra):
    """A simplicial presheaf at cap 1 with a point at every object of the
    kit's site and at each extra name."""
    objects = json.loads((kit / "pseudo_circle.collapse.presheaf.json").read_text())
    point = {
        "dim_cap": 1,
        "simplices": {"0": ["v"], "1": ["e"]},
        "faces": {"1": {"e": ["v", "v"]}},
        "degeneracies": {"0": {"v": ["e"]}},
    }
    return json.dumps({
        "values": {x: point for x in [*objects["values"], *extra]},
        "actions": {m: {"0": {"v": "v"}, "1": {"e": "e"}} for m in objects["actions"]},
    })


MALFORMED = {
    "action-number": lambda kit: [
        "sheafify",
        "--presheaf",
        _collapse_with(kit, "actions", "{a}<={a,b}", 5),
    ],
    "values-number": lambda kit: [
        "sheafify",
        "--presheaf",
        _collapse_with(kit, "values", "{a}", 3),
    ],
    "values-list": lambda kit: [
        "realize",
        "--presheaf",
        json.dumps({"values": ["{a}"]}),
        "--dim-cap",
        "1",
    ],
    "simplicial-values-unknown-object": lambda kit: [
        "realize",
        "--presheaf",
        _point_presheaf_with(kit, ["ghost"]),
        "--dim-cap",
        "1",
    ],
    "actions-unknown-morphism": lambda kit: [
        "sheafify",
        "--presheaf",
        _collapse_with(kit, "actions", "ghost", {}),
    ],
    "action-unknown-element": lambda kit: [
        "sheafify",
        "--presheaf",
        _collapse_with(kit, "actions", "{a,b,c}<={a,b,c,d}", {"0": "s", "1": "s", "ghost": "s"}),
    ],
    "action-missing-element": lambda kit: [
        "sheafify",
        "--presheaf",
        _collapse_with(kit, "actions", "{a,b,c}<={a,b,c,d}", {"0": "s"}),
    ],
    "simplicial-actions-unknown-morphism": lambda kit: [
        "realize",
        "--presheaf",
        _point_presheaf_action(kit, "ghost", {"0": {"v": "v"}, "1": {"e": "e"}}),
        "--dim-cap",
        "1",
    ],
    "simplicial-action-unknown-simplex": lambda kit: [
        "realize",
        "--presheaf",
        _point_presheaf_action(
            kit, "{a}<={a,b}", {"0": {"v": "v", "ghost": "v"}, "1": {"e": "e"}}
        ),
        "--dim-cap",
        "1",
    ],
    "simplicial-action-dimension-outside-cap": lambda kit: [
        "realize",
        "--presheaf",
        _point_presheaf_action(kit, "{a}<={a,b}", {"0": {"v": "v"}, "1": {"e": "e"}, "2": {}}),
        "--dim-cap",
        "1",
    ],
    "sieve-generator-list": lambda kit: [
        "descent-check",
        "--object",
        "{a,b,c,d}",
        "--sieve",
        json.dumps({"base": "{a,b,c,d}", "generators": [["x"]]}),
    ],
    "map-component-list": lambda kit: [
        "compare",
        "--presheaf",
        "constant:0,1",
        "--presheaf2",
        "constant:0,1",
        "--map",
        json.dumps({"components": {"{a}": [1]}}),
    ],
    "map-unknown-object": lambda kit: _compare_map(
        kit, lambda c: c.update(ghost={"0": "0", "1": "1"})
    ),
    "map-missing-object": lambda kit: _compare_map(kit, lambda c: c.pop("{a}")),
    "map-missing-element": lambda kit: _compare_map(kit, lambda c: c["{a}"].pop("1")),
    "map-unknown-element": lambda kit: _compare_map(kit, lambda c: c["{a}"].update(ghost="0")),
    "map-without-presheaf2": lambda kit: [
        "compare",
        "--presheaf",
        "constant:0,1",
        "--map",
        json.dumps({"components": {"ghost": {}}}),
        "--dim-cap",
        "2",
    ],
    "sset-identifier-list": lambda kit: _sset({"dim_cap": 1, "simplices": {"0": [[1]]}}),
    "sset-compact-identifier-list": lambda kit: _sset(
        {"dim_cap": 1, "nondegenerate": {"0": [["v"]]}}
    ),
    "sset-face-level-list": lambda kit: _sset(
        {"dim_cap": 1, "simplices": {"0": ["v"]}, "faces": {"1": []}}
    ),
    "sset-face-image-list": lambda kit: _sset(
        {"dim_cap": 1, "simplices": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"e": ["v", ["v"]]}}}
    ),
    "sset-degeneracy-index-string": lambda kit: _sset(
        {
            "dim_cap": 1,
            "nondegenerate": {"0": ["v"], "1": ["e"]},
            "faces": {"1": {"e": ["v", {"degeneracy": ["a"], "of": "v"}]}},
        }
    ),
    "sset-compact-extra-face": lambda kit: _sset(_compact_edge(e=["v", "v", "v"])),
    "sset-compact-undeclared-faces": lambda kit: _sset(_compact_edge(zz=["v", "v"])),
    "sset-compact-degeneracy-table": lambda kit: _sset(
        {**_compact_edge(), "degeneracies": {"0": {"v": ["zz"]}}}
    ),
    "sset-degeneracy-index-too-large": lambda kit: _sset(_compact_with_face_word([5])),
    "sset-degeneracy-index-negative": lambda kit: _sset(_compact_with_face_word([-1])),
    # a level has one spelling, str(k): each of these was once read as some
    # level, silently dropping or misplacing data
    "sset-compact-level-key-padded": lambda kit: _sset(
        {**_compact_edge(e=["w", "w"]), "nondegenerate": {"0": ["v"], "00": ["w"], "1": ["e"]}}
    ),
    "sset-compact-face-level-key-padded": lambda kit: _sset(
        {**_compact_edge(), "faces": {"01": {"e": ["v", "v"]}, "1": {"e": ["v", "v"]}}}
    ),
    "sset-compact-level-key-underscore": lambda kit: _sset(
        {**_compact_edge(), "nondegenerate": {"0": ["v"], "1": ["e"], "1_0": ["x"]}}
    ),
    "sset-compact-level-key-negative": lambda kit: _sset(
        {**_compact_edge(), "nondegenerate": {"0": ["v"], "1": ["e"], "-1": ["x"]}}
    ),
    "sset-full-level-key-padded": lambda kit: _sset(
        {"dim_cap": 0, "simplices": {"0": ["v"], "00": ["w"]}}
    ),
    "sset-full-face-level-key-signed": lambda kit: _sset(_full_edge("+1", "0")),
    "sset-full-degeneracy-level-key-spaced": lambda kit: _sset(_full_edge("1", " 0")),
    "simplicial-value-identifier-number": lambda kit: [
        "realize",
        "--cat",
        json.dumps({"objects": ["x"], "morphisms": []}),
        "--presheaf",
        json.dumps({"values": {"x": {"dim_cap": 4, "nondegenerate": {"0": [1]}}}}),
    ],
}


def _sset(data: dict) -> list[str]:
    return ["validate", "--sset", json.dumps(data)]


def _compact_edge(**faces) -> dict:
    """A compact edge e on the vertex v, its face rows updated by faces."""
    rows = {"e": ["v", "v"], **faces}
    return {"dim_cap": 1, "nondegenerate": {"0": ["v"], "1": ["e"]}, "faces": {"1": rows}}


def _full_edge(faces_key: str, degeneracies_key: str) -> dict:
    """The full tables of a point truncated at 1, its face and degeneracy
    levels keyed as given."""
    return {
        "dim_cap": 1,
        "simplices": {"0": ["v"], "1": ["sv"]},
        "faces": {faces_key: {"sv": ["v", "v"]}},
        "degeneracies": {degeneracies_key: {"v": ["sv"]}},
    }


def _compact_with_face_word(word: list) -> dict:
    """A compact 2-simplex whose d_0 is the word on its one vertex."""
    faces = [{"degeneracy": word, "of": "v"}] + [{"degeneracy": [0], "of": "v"}] * 2
    return {"dim_cap": 2, "nondegenerate": {"0": ["v"], "2": ["e"]}, "faces": {"2": {"e": faces}}}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_shapes_are_input_errors(tmp_path, capsys, case):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    argv = MALFORMED[case](tmp_path)
    space = str(tmp_path / "pseudo_circle.space.json")
    if not {"--cat", "--sset"} & set(argv):  # these cases give their own input
        argv = [argv[0], "--space", space, *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "InputError"


def test_a_refused_level_key_is_named(capsys):
    doc = {**_compact_edge(), "nondegenerate": {"0": ["v"], "1": ["e"], "1_0": ["x"]}}
    assert "level key '1_0'" in _input_error(*run(capsys, *_sset(doc)))


def _point_presheaf_action(kit, mid, table):
    """The point presheaf of _point_presheaf_with, with the action of mid
    replaced by table."""
    data = json.loads(_point_presheaf_with(kit, []))
    data["actions"][mid] = table
    return json.dumps(data)


def test_a_simplicial_presheaf_value_that_breaks_an_identity_is_refused(capsys):
    # d_0 s_0 v is w, not v; the edge e was once counted nondegenerate here
    value = {
        "dim_cap": 1,
        "simplices": {"0": ["v", "w"], "1": ["e", "sw"]},
        "faces": {"1": {"e": ["w", "w"], "sw": ["w", "w"]}},
        "degeneracies": {"0": {"v": ["e"], "w": ["sw"]}},
    }
    code, _, _ = run(capsys, "validate", "--sset", json.dumps(value))
    assert code == 3
    code, out, err = run(
        capsys,
        "realize",
        "--cat",
        json.dumps({"objects": ["x"], "morphisms": []}),
        "--functor",
        "point",
        "--dim-cap",
        "1",
        "--presheaf",
        json.dumps({"values": {"x": value}}),
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["detail"] == (
        "value-sset: value not a simplicial set: d_0 s_0 mismatch"
    )


def _one_value_presheaf(value: dict, cap: str) -> list[str]:
    """realize on the one-object category against a presheaf of one value."""
    return [
        "realize",
        "--cat",
        json.dumps({"objects": ["*"], "morphisms": []}),
        "--presheaf",
        json.dumps({"values": {"*": value}}),
        "--dim-cap",
        cap,
    ]


def test_a_presheaf_value_at_another_cap_is_refused_before_it_is_built(monkeypatch, capsys):
    # built at its own cap, this value would be 3,001 levels of tables
    def refuse(data):
        raise AssertionError("the value was built")

    monkeypatch.setattr(cli, "sset_from_json", refuse)
    argv = _one_value_presheaf({"dim_cap": 3000, "simplices": {"0": ["v"]}}, "2")
    assert _input_error(*run(capsys, *argv)) == "value at * has dim cap 3000, expected 2"


# full form: 3,001 levels, and k + 1 face and degeneracy columns on each
# would be built before the missing s_0 of v were found; compact form: one
# vertex, and one 6-simplex whose expansion grows as C(k, 6) at level k
_COSTLY = {
    "full-3000": {"dim_cap": 3000, "simplices": {"0": ["v"]}},
    "full-30000000": {"dim_cap": 30_000_000, "simplices": {"0": ["v"]}},
    "compact-3000": {"dim_cap": 3000, "nondegenerate": {"0": ["v"]}},
    "compact-30000000": {"dim_cap": 30_000_000, "nondegenerate": {"0": ["v"]}},
    "compact-binomial-60": {
        "dim_cap": 60,
        "nondegenerate": {"0": ["v"], "6": ["x"]},
        "faces": {"6": {"x": [{"degeneracy": [4, 3, 2, 1, 0], "of": "v"}] * 7}},
    },
}


@pytest.mark.parametrize("case", sorted(_COSTLY))
def test_a_document_whose_tables_exceed_the_budget_is_refused_before_it_is_built(
    monkeypatch, capsys, case
):
    from finsite import sset

    def refuse(*args):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(sset, "tabulate", refuse)
    doc = _COSTLY[case]
    want = f"dim_cap {doc['dim_cap']} needs tables of more than 4000000 columns and entries"
    assert _input_error(*run(capsys, "validate", "--sset", json.dumps(doc))) == want


def test_the_table_budget_admits_a_written_realization(tmp_path, capsys):
    # realize-render's job: the interval cover realized at cap 5, read back
    from finsite import sset

    run(capsys, "examples", "interval_cover", "--dir", str(tmp_path))
    out = tmp_path / "out.json"
    space = str(tmp_path / "interval_cover.space.json")
    argv = ["realize", "--space", space, "--dim-cap", "5", "--max-deg", "0"]
    assert run(capsys, *argv, "--format", "json", "--out", str(out))[0] == 0
    sset._check_budget(json.loads(out.read_text())["realization"])


@pytest.mark.parametrize(
    "cap, read_as", [('"2"', "2"), ("true", "1"), ("2.9", "2")], ids=["string", "bool", "float"]
)
def test_a_dim_cap_that_is_not_a_json_integer_is_an_input_error(capsys, cap, read_as):
    # each was once read as the integer read_as, alone and as a presheaf value
    doc = '{"dim_cap": %s, "simplices": {"0": ["v"]}}' % cap
    want = f"bad simplicial set JSON: dim_cap {cap} is not an integer"
    assert _input_error(*run(capsys, "validate", "--sset", doc)) == want
    argv = _one_value_presheaf(json.loads(doc), read_as)
    assert _input_error(*run(capsys, *argv)) == want


def test_a_set_presheaf_value_that_repeats_an_element_is_an_input_error(capsys):
    space = json.dumps({"points": ["p"], "opens": [["p"]]})
    for argv in (
        ["sheafify", "--presheaf", "constant:a,a"],
        ["sheafify", "--presheaf", json.dumps({"values": {"{p}": ["a", "a"]}})],
        ["realize", "--presheaf", "constant:a,a", "--dim-cap", "1"],
    ):
        code, out, err = run(capsys, argv[0], "--space", space, *argv[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "detail": "the value at {p} lists a twice",
            "exit": 2,
            "type": "InputError",
        }


def test_presheaf_files_of_both_kinds_refuse_an_unknown_object(tmp_path, capsys):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    space = str(tmp_path / "pseudo_circle.space.json")
    set_presheaf = _collapse_with(tmp_path, "values", "ghost", [])
    for presheaf in (set_presheaf, _point_presheaf_with(tmp_path, ["ghost"])):
        code, _, err = run(
            capsys, "realize", "--space", space, "--presheaf", presheaf, "--dim-cap", "1"
        )
        assert code == 2
        assert json.loads(err)["error"]["detail"] == "presheaf values name an unknown object ghost"
    code, _, _ = run(
        capsys, "realize", "--space", space, "--presheaf", _point_presheaf_with(tmp_path, []),
        "--dim-cap", "1",
    )
    assert code == 0


def test_simplicial_presheaf_action_outside_its_target_is_a_validation_error(tmp_path, capsys):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    space = str(tmp_path / "pseudo_circle.space.json")
    presheaf = _point_presheaf_action(tmp_path, "{a}<={a,b}", {"0": {"v": "w"}, "1": {"e": "e"}})
    code, out, err = run(
        capsys, "realize", "--space", space, "--presheaf", presheaf, "--dim-cap", "1"
    )
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "image not in target" in error["detail"]


def _constant2_with(kit, mid, table):
    """The kit's constant:0,1 presheaf document with the action of mid
    replaced by table."""
    data = json.loads((kit / "pseudo_circle.constant2.presheaf.json").read_text())
    data["actions"][mid] = table
    return json.dumps(data)


def _two_point_presheaf_action(kit, mid, table):
    """A simplicial presheaf at cap 1 with the two points v and w at every
    object of the kit's site, acting as the identity except at mid."""
    objects = json.loads((kit / "pseudo_circle.collapse.presheaf.json").read_text())
    two = {
        "dim_cap": 1,
        "simplices": {"0": ["v", "w"], "1": ["sv", "sw"]},
        "faces": {"1": {"sv": ["v", "v"], "sw": ["w", "w"]}},
        "degeneracies": {"0": {"v": ["sv"], "w": ["sw"]}},
    }
    ident = {"0": {"v": "v", "w": "w"}, "1": {"sv": "sv", "sw": "sw"}}
    actions = {m: ident for m in objects["actions"]}
    actions[mid] = table
    return json.dumps({"values": {x: two for x in objects["values"]}, "actions": actions})


REFUSED = {
    "action-codomain": lambda kit: [
        "sheafify", "--presheaf", _constant2_with(kit, "{a}<={a,b}", {"0": "0", "1": "ghost"}),
    ],
    "action-identity": lambda kit: [
        "sheafify", "--presheaf", _constant2_with(kit, "{a}<={a}", {"0": "1", "1": "0"}),
    ],
    "action-composition": lambda kit: [
        "sheafify", "--presheaf", _constant2_with(kit, "{a}<={a,b}", {"0": "1", "1": "0"}),
    ],
    # sv goes to sw while its faces, v, stay at v
    "action-map": lambda kit: [
        "realize",
        "--presheaf",
        _two_point_presheaf_action(
            kit, "{a}<={a,b}", {"0": {"v": "v", "w": "w"}, "1": {"sv": "sw", "sw": "sw"}}
        ),
        "--dim-cap",
        "1",
    ],
    "naturality": lambda kit: [
        *_compare_map(kit, lambda c: c.update({"{a}": {"0": "1", "1": "0"}})), "--dim-cap", "1",
    ],
    "component-codomain": lambda kit: [
        *_compare_map(kit, lambda c: c["{a}"].update({"0": "ghost"})), "--dim-cap", "1",
    ],
}


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_an_inconsistent_presheaf_or_map_is_refused_by_its_kind(tmp_path, capsys, kind):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    argv = REFUSED[kind](tmp_path)
    space = str(tmp_path / "pseudo_circle.space.json")
    code, out, err = run(capsys, argv[0], "--space", space, *argv[1:])
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and error["detail"].startswith(f"{kind}: ")


def test_sheafify_the_terminal_presheaf(tmp_path, capsys):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    space = str(tmp_path / "pseudo_circle.space.json")
    code, out, err = run(capsys, "sheafify", "--space", space, "--presheaf", "terminal")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["sheafify: input is already a sheaf", "unit bijective: yes"]
    assert lines[2:] == [f"{x}: 1 -> 1" for x in
                         ["{a,b,c,d}", "{a,b,c}", "{a,b,d}", "{a,b}", "{a}", "{b}"]]


def test_compare_along_a_map_that_is_no_isomorphism_is_different(tmp_path, capsys):
    # both values of constant:0,1 go to 0: H0 is Z^2 -> Z^2 of rank 1
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    space = str(tmp_path / "pseudo_circle.space.json")
    argv = _compare_map(tmp_path, lambda c: [m.update({"1": "0"}) for m in c.values()])
    code, out, err = run(capsys, argv[0], "--space", space, *argv[1:], "--dim-cap", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "compare: DIFFERENT through degree 1"
    assert "H0: Z^2 -> Z^2 (no match)" in out.splitlines()


# a discrete two-point space: every command below sees two components
_TWO_POINTS = json.dumps({"points": ["p", "q"], "opens": [["p"], ["q"], ["p", "q"]]})
_PI0_RUNS = {
    "realize": ["realize"],
    "compare": ["compare", "--presheaf", "terminal"],
    "descent-check": [
        "descent-check",
        "--object",
        "{p,q}",
        "--sieve",
        json.dumps({"base": "{p,q}", "generators": ["{p}<={p,q}", "{q}<={p,q}"]}),
    ],
}


@pytest.mark.parametrize(
    "command, call", [("realize", 0), ("realize", 1), ("compare", 0), ("compare", 1),
                      ("descent-check", 0), ("descent-check", 1)]
)
def test_pi0_is_checked_against_h0_on_every_side(monkeypatch, capsys, command, call):
    # pi0 by union-find merges two components on one side only: the count
    # then disagrees with H0's betti number, and the run stops with exit 4.
    # The union-finds are pi0 on a bar realization (realize's second, both
    # of descent-check's) and poset_pi0 on a whole element poset (realize's
    # first, both of compare's)
    from finsite import realization

    argv = [*_PI0_RUNS[command], "--space", _TWO_POINTS, "--dim-cap", "2"]
    assert run(capsys, *argv)[0] == 0
    seen = []

    def merging(real, merge):
        def counted(s):
            found = real(s)
            seen.append(s)
            return merge(found) if len(seen) - 1 == call else found

        return counted

    for module in (cli, realization):
        monkeypatch.setattr(module, "pi0", merging(module.pi0, lambda c: (c[0] + c[1], *c[2:])))
    monkeypatch.setattr(realization, "poset_pi0", merging(realization.poset_pi0, lambda n: n - 1))
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InternalCheckError"
    assert error["detail"] == "pi0 has 1 components but H0 has betti number 2"


def test_realize_reads_the_space_file_once(tmp_path, capsys, monkeypatch):
    from finsite import cli

    run(capsys, "examples", "interval_cover", "--dir", str(tmp_path))
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    reads = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or load(path))
    space = str(tmp_path / "interval_cover.space.json")
    code, _, _ = run(capsys, "realize", "--space", space, "--dim-cap", "1")
    assert code == 0
    assert reads == [space]
    # a presheaf file is read once too, though its kind is sniffed from it
    reads.clear()
    space = str(tmp_path / "pseudo_circle.space.json")
    presheaf = str(tmp_path / "pseudo_circle.collapse.presheaf.json")
    code, _, _ = run(
        capsys, "realize", "--space", space, "--presheaf", presheaf, "--dim-cap", "1"
    )
    assert code == 0
    assert reads == [space, presheaf]


def test_realize_interval_cover_is_contractible_at_cap_3(tmp_path, capsys):
    # the interval cover is contractible: one component, the homology of a point
    run(capsys, "examples", "interval_cover", "--dir", str(tmp_path))
    code, out, _ = run(
        capsys, "realize", "--space", str(tmp_path / "interval_cover.space.json"),
        "--dim-cap", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pi0"] == 1
    assert data["homology"] == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 0, "torsion": []},
    ]


def test_realize_json_bytes_are_the_same_through_out_and_stdout(tmp_path, capsys):
    run(capsys, "examples", "bz2", "--dir", str(tmp_path))
    argv = ["realize", "--cat", str(tmp_path / "bz2.category.json"),
            "--presheaf", 'constant:ä"x,\\ü', "--dim-cap", "3", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and '"ä\\"x"' in out
    streamed = tmp_path / "streamed.json"
    code, _, _ = run(capsys, *argv, "--out", str(streamed))
    assert code == 0
    # the file has the encoding Path.write_text gives the same text
    reference = tmp_path / "reference.json"
    reference.write_text(out)
    assert streamed.read_bytes() == reference.read_bytes()


def test_realize_text_renders_no_realization_json(capsys, monkeypatch):
    from finsite import cli

    argv = ["realize", "--example", "pseudo_circle_terminal", "--format", "text"]
    code, want, _ = run(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("text output rendered the realization JSON")

    monkeypatch.setattr(cli, "write_realization", refuse)
    assert run(capsys, *argv) == (0, want, "")


def test_refused_realize_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    from finsite import cli
    from finsite.reports import InternalCheckError

    def failed_check(*args):
        raise InternalCheckError("homology self-check failed")

    # homology runs last before the output: its refusal must come before the file
    monkeypatch.setattr(cli, "sset_homology", failed_check)
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "realize", "--example", "bz2", "--format", "json",
                       "--out", str(out))
    assert code == 4 and "InternalCheckError" in err
    assert not out.exists()


def _input_error(code, out, err) -> str:
    """The detail of an exit-2 refusal that printed nothing to stdout."""
    assert code == 2 and out == ""
    record = json.loads(err)["error"]
    assert (record["type"], record["exit"]) == ("InputError", 2)
    return record["detail"]


def test_an_out_file_that_cannot_be_opened_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    detail = _input_error(*run(capsys, "realize", "--example", "bz2", "--out", str(out)))
    assert detail.startswith(f"cannot write {out}")


def test_an_examples_dir_that_is_a_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    detail = _input_error(*run(capsys, "examples", "bz2", "--dir", str(taken)))
    assert detail.startswith(f"cannot write to {taken}")


def test_an_input_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    space = tmp_path / "utf16.space.json"
    space.write_bytes('{"points":[],"opens":[[]]}'.encode("utf-16"))
    assert space.read_bytes()[:2] == b"\xff\xfe"
    detail = _input_error(*run(capsys, "validate", "--space", str(space)))
    assert detail.startswith(f"cannot read {space}")


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode, Python's default file encoding
    # is ASCII; a space file naming a point "\u00fc" must still load, and
    # --out must hold the same bytes as a run in UTF-8 mode
    space = tmp_path / "u.space.json"
    space.write_bytes('{"points":["\u00fc","b"],"opens":[["\u00fc"],["\u00fc","b"]]}'.encode())
    src = str(Path(finsite.__file__).parents[1])
    base = {"PATH": os.environ["PATH"], "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    outputs, ascii_locale = [], {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    for env in (ascii_locale, {"PYTHONUTF8": "1"}):
        out = tmp_path / f"out{len(outputs)}.json"
        argv = ["realize", "--space", str(space), "--dim-cap", "1", "--format", "json"]
        done = subprocess.run(
            [sys.executable, "-m", "finsite.cli", *argv, "--out", str(out)],
            env={**base, **env},
            capture_output=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and "\u00fc".encode() in outputs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--dim-cap", "1", "--format", "json"],
        ["sheafify", "--presheaf", "terminal", "--format", "text"],
    ],
)
def test_stdout_is_utf8_whatever_the_locale(tmp_path, argv):
    # under the C locale without UTF-8 mode, stdout's text encoding is ASCII;
    # a run naming a point "\u00fc" must still write stdout, the same bytes
    # as --out, in JSON and in text
    space = tmp_path / "u.space.json"
    space.write_bytes('{"points":["\u00fc","b"],"opens":[["\u00fc"],["\u00fc","b"]]}'.encode())
    out = tmp_path / "out"
    env = {
        "PATH": os.environ["PATH"],
        "PYTHONPATH": str(Path(finsite.__file__).parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "LC_ALL": "C",
    }
    runs = [
        subprocess.run(
            [sys.executable, "-m", "finsite.cli", *argv, "--space", str(space), *extra],
            env=env,
            capture_output=True,
            timeout=120,
        )
        for extra in ([], ["--out", str(out)])
    ]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, b"")] * 2
    assert runs[0].stdout == out.read_bytes() and "\u00fc".encode() in runs[0].stdout


def _cat_with(path: list, value) -> str:
    """Inline JSON of the two-object category x -> y, with the entry at path
    replaced by value."""
    data = {
        "objects": ["x", "y"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
        "identities": {"x": "id:x", "y": "id:y"},
        "composition": [["f", "id:x", "f"]],
    }
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    node[last] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "path",
    [
        ["objects", 0],
        ["morphisms", 0, "id"],
        ["morphisms", 0, "src"],
        ["morphisms", 0, "tgt"],
        ["identities", "x"],
        ["composition", 0, 1],
    ],
)
def test_category_identifiers_that_are_not_strings_are_input_errors(capsys, path):
    for value in (["x"], 1, None):
        detail = _input_error(*run(capsys, "validate", "--cat", _cat_with(path, value)))
        assert detail == "bad category JSON: identifiers must be strings"


def test_a_morphism_ending_outside_the_objects_fails_validation(capsys):
    cat = _cat_with(["morphisms", 0, "tgt"], "ghost")
    code, out, err = run(capsys, "validate", "--cat", cat)
    assert (code, out.splitlines()[0], err) == (3, "validate cat: morphism-endpoints", "")
    code, out, err = run(capsys, "realize", "--cat", cat)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["detail"] == "morphism-endpoints: endpoint not an object"


def test_a_duplicated_object_is_an_input_error(capsys):
    # two objects named x would give pi0 one component and H0 two
    cat = '{"objects":["x","x"],"morphisms":[]}'
    for command in ("validate", "realize"):
        assert _input_error(*run(capsys, command, "--cat", cat)) == "duplicate object ids"


@pytest.mark.parametrize(
    "flag, document, detail",
    [
        ("--cat", _cat_with(["objects"], "xy"), 'bad category JSON: "objects" must be a list'),
        (
            "--cat",
            _cat_with(["composition", 0], "fff"),
            'bad category JSON: each "composition" row must be a list',
        ),
        (
            "--cat",
            _cat_with(["identities"], [["x", "id:x"]]),
            'bad category JSON: "identities" must be an object',
        ),
        (
            "--space",
            '{"points":"ab","opens":[["a"],["a","b"]]}',
            'bad finite space JSON: "points" must be a list',
        ),
        (
            "--space",
            '{"points":["a","b"],"opens":["a","ab"]}',
            'bad finite space JSON: each of "opens" must be a list',
        ),
    ],
    ids=["objects", "composition-row", "identities", "points", "open"],
)
def test_a_string_is_not_read_as_a_list_of_its_characters(capsys, flag, document, detail):
    for command in ("validate", "realize"):
        assert _input_error(*run(capsys, command, flag, document)) == detail


@pytest.mark.parametrize(
    "command, example",
    [("realize", "pseudo_circle_terminal"), ("descent-check", "interval_cover")],
)
def test_realize_and_descent_check_list_no_covering_sieves(capsys, monkeypatch, command, example):
    from finsite import catsite

    def refuse(*args):
        raise AssertionError("covering sieves were listed")

    monkeypatch.setattr(catsite, "_sieve_masks", refuse)
    code, _, err = run(capsys, command, "--example", example, "--dim-cap", "2")
    assert (code, err) == (0, "")
    # sheafify checks the sheaf condition on every covering sieve, so it lists them
    with pytest.raises(AssertionError, match="covering sieves were listed"):
        run(capsys, "sheafify", "--example", "collapse")
