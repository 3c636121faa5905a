"""Command line interface: flows, exit codes, determinism."""

import json

import pytest

from finsite.cli import main


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


def test_validate_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"


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
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_shapes_are_input_errors(tmp_path, capsys, case):
    run(capsys, "examples", "pseudo_circle", "--dir", str(tmp_path))
    argv = MALFORMED[case](tmp_path)
    space = str(tmp_path / "pseudo_circle.space.json")
    code, out, err = run(capsys, argv[0], "--space", space, *argv[1:])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "InputError"


def test_realize_reads_the_space_file_once(tmp_path, capsys, monkeypatch):
    from finsite import cli

    run(capsys, "examples", "interval_cover", "--dir", str(tmp_path))
    space = str(tmp_path / "interval_cover.space.json")
    reads = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or load(path))
    code, _, _ = run(capsys, "realize", "--space", space, "--dim-cap", "1")
    assert code == 0
    assert reads == [space]


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
