"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import finsite

PACKAGE = Path(finsite.__file__).parent
TESTS = Path(__file__).parent


def test_package_has_no_assert_statements():
    """python -O strips asserts, so invariants must raise typed errors."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_package_imports_only_itself_and_the_standard_library():
    """The package keeps zero runtime dependencies."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "finsite"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""] if n.level == 0 else []
            else:
                continue
            found += [f"{path.name}:{n.lineno} {m}" for m in names if m.split(".")[0] not in allowed]
    assert found == []


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every command is a fresh process, so its imports are paid on every
    job: dataclasses pulls in inspect, ast, dis and tokenize and exec-compiles
    each record's methods.  -S keeps site hooks out of what is counted."""
    code = "import sys, finsite.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_only_sset_reads_the_identifier_index():
    """Once a simplicial set is built, positions are the only address of a
    simplex: the {simplex: position} index is sset's own, behind its lookups
    by identifier, and no other module reads it, by attribute or by name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sset.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr == "_index")
            or (isinstance(n, ast.Constant) and n.value == "_index")
        ]
    assert found == []


def test_only_sset_knows_the_table_layout():
    """Face and degeneracy tables are columns, one per operator, and map
    images one array per level, so every other module indexes them directly:
    none computes a product inside a subscript (a row offset such as
    p * (k + 1) + i), slices with a step read from a name (a stride such as
    [i :: k + 1]), or builds a memoryview."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sset.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Subscript):
                inside = list(ast.walk(n.slice))
                if any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult) for b in inside) or any(
                    isinstance(sl, ast.Slice)
                    and sl.step is not None
                    and any(isinstance(x, ast.Name) for x in ast.walk(sl.step))
                    for sl in inside
                ):
                    found.append(f"{path.name}:{n.lineno} {ast.unparse(n)}")
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "memoryview":
                found.append(f"{path.name}:{n.lineno} memoryview")
    assert found == []


def test_only_catsite_applies_the_chain_rule():
    """Faces and degeneracies of chains are read from catsite.chains: the
    realization and its maps, the oracle's induced_realization_map among
    them, compose no morphisms and insert no identities
    (SimplicialMap.identity is the identity map of a simplicial set)."""
    names = {"realize", "_layout", "_column", "_block_map", "induced_realization_map"}
    defs = [
        n
        for path in (PACKAGE / "realization.py", TESTS / "oracles.py")
        for n in ast.parse(path.read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name in names
    ]
    assert {n.name for n in defs} == names
    found = [
        f"{d.name}:{n.lineno}"
        for d in defs
        for n in ast.walk(d)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("compose", "identity")
        and not (isinstance(n.func.value, ast.Name) and n.func.value.id == "SimplicialMap")
    ]
    assert found == []


def _oracle_def(name: str) -> ast.FunctionDef:
    """The top-level function of tests/oracles.py with that name."""
    tree = ast.parse((TESTS / "oracles.py").read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_function_places_the_bar_blocks():
    """The block rule of the bar realization, start + a * width + b, is
    written once: one function of realization.py adds a product, realize and
    the tests' _block_map both call it and add none, and realize defines no
    function of its own."""
    tree = ast.parse((PACKAGE / "realization.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    block_map = _oracle_def("_block_map")

    def adds_a_product(node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Add)
            and any(isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult) for s in (n.left, n.right))
            for n in ast.walk(node)
        )

    def called(node: ast.AST) -> set[str]:
        return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    placing = [name for name, d in defs.items() if adds_a_product(d)]
    assert len(placing) == 1
    assert placing[0] in called(defs["realize"]) & called(block_map)
    assert not adds_a_product(block_map)
    inner = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert [n for n in ast.walk(defs["realize"]) if isinstance(n, inner)] == [defs["realize"]]


def test_matching_families_are_written_once():
    """One solver finds global sections (in the tests' reference route) and
    matching families, without a sieve category; one rule restricts families,
    so neither the plus step nor the triples presheaf composes morphisms
    itself; and the pi0 certificate runs its two plus steps through one call
    site."""
    defs = {}
    for path in (PACKAGE / "presheaf.py", PACKAGE / "realization.py", TESTS / "oracles.py"):
        tree = ast.parse(path.read_text())
        defs.update({n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)})

    def calls(name: str) -> list[str]:
        return [
            n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", "")
            for n in ast.walk(defs[name])
            if isinstance(n, ast.Call)
        ]

    assert not {"sieve_category", "reindex"} & set(calls("matching_sections"))
    assert "_solutions" in set(calls("sections_set")) & set(calls("matching_sections")) & set(defs)
    for name in ("gamma_prime_set", "sections_presheaf_on_triples"):
        assert "compose" not in calls(name)
    assert calls("illusie_pi0_certificate").count("gamma_prime_set") == 1


def test_one_construction_for_sieves_and_representables():
    """A sieve is the subpresheaf of hom(-, base) it is, and a representable
    its maximal case: representable_set_presheaf calls sieve_presheaf;
    covariant_descent_check realizes that presheaf over a full subcategory,
    with no terminal presheaf on a second category; the tests' projector_image
    is a full subcategory; and no package module defines sieve_category or
    builds the ("t", h, f, g) triangles of a slice category."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = {
        f"{module}.{n.name}": n
        for module, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef)
    }
    defs["oracles.projector_image"] = _oracle_def("projector_image")

    def calls(name: str) -> set[str]:
        return {
            n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", "")
            for n in ast.walk(defs[name])
            if isinstance(n, ast.Call)
        }

    assert "sieve_presheaf" in calls("presheaf.representable_set_presheaf")
    descent = calls("realization.covariant_descent_check")
    assert {"sieve_presheaf", "full_subcategory"} <= descent and "point_functor" not in descent
    assert "full_subcategory" in calls("oracles.projector_image")
    assert [name for name in defs if name.endswith(".sieve_category")] == []
    triangles = [
        f"{module}:{n.lineno}"
        for module, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Tuple)
        and len(n.elts) == 4
        and isinstance(n.elts[0], ast.Constant)
        and n.elts[0].value == "t"
    ]
    assert triangles == []


def test_a_set_presheaf_is_discretized_only_where_a_diagonal_is_built():
    """pi0 of a set presheaf is the presheaf itself, so only a bar
    realization needs it as a simplicial presheaf: discretize is called by
    cli._parse_g, for the presheaf that realize realizes, and by
    realization.covariant_descent_check, for the sieve presheaf, and by no
    other top-level definition of the package."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            called = {
                getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                for n in ast.walk(top)
                if isinstance(n, ast.Call)
            }
            if "discretize" in called:
                callers.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert callers == {"cli._parse_g", "realization.covariant_descent_check"}


def test_no_package_line_is_longer_than_110_characters():
    """Line counts compare like with like only while lines keep one width."""
    found = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 110
    ]
    assert found == []


def test_degeneracy_is_read_off_the_degeneracy_table():
    """A simplex is degenerate exactly when it is an s_i image: nondegenerate
    reads the s_i table and not the d_i table, no second degeneracy rule or
    word rewriting is left in sset.py, and the compact loader computes each
    face without recursion."""
    tree = ast.parse((PACKAGE / "sset.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    methods = {
        n.name: n
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "SimplicialSet"
        for n in c.body
        if isinstance(n, ast.FunctionDef)
    }
    read = {n.attr for n in ast.walk(methods["nondegenerate"]) if isinstance(n, ast.Attribute)}
    assert "_degeneracies" in read and "_faces" not in read
    named = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not {"_degenerate_at", "_normalize_word"} & named
    nested = [n for n in ast.walk(defs["_expand_compact"]) if isinstance(n, ast.FunctionDef)][1:]
    assert nested
    recursive = [
        f.name
        for f in nested
        for n in ast.walk(f)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == f.name
    ]
    assert recursive == []


# Reached by no command, and kept in the package on purpose: gallery is the
# shared home of named instances; validate_site is the check a site document
# will run; IntMatrix.data is read by the benchmark's tracer.
NOT_RUN_BUT_KEPT = {
    "gallery.circle_sset",
    "gallery.two_open_cover",
    "catsite.validate_site",
    "homology.IntMatrix.data",
}


def test_every_package_name_is_used_in_the_package():
    """src holds what the commands run: every top-level function and class,
    and every public method, is referenced in the package outside its own
    definition, a function or class by name, import or attribute, a method
    by attribute; and every name imported into a module is referenced there
    by name, or exported by its __all__.  Fixtures and reference routes that
    only tests call live in tests/fixtures.py and tests/oracles.py."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = []
    for module, tree in trees.items():
        for n in tree.body:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{n.name}", n, False))
            if isinstance(n, ast.ClassDef):
                defs += [
                    (f"{module}.{n.name}.{m.name}", m, True)
                    for m in n.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]

    # one walk of every tree: the nodes that reference each name, by attribute
    # or by name and import
    by_attr, by_name = defaultdict(set), defaultdict(set)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                by_attr[n.attr].add(id(n))
            elif isinstance(n, ast.Name):
                by_name[n.id].add(id(n))
            elif isinstance(n, ast.alias):
                by_name[n.name].add(id(n))

    def used(name: str, node: ast.AST, method: bool) -> bool:
        refs = by_attr[name] if method else by_attr[name] | by_name[name]
        return bool(refs - {id(n) for n in ast.walk(node)})

    unused = {full for full, node, method in defs if not used(full.rsplit(".", 1)[1], node, method)}
    assert unused - NOT_RUN_BUT_KEPT == set()
    assert NOT_RUN_BUT_KEPT <= unused

    dead_imports = []
    for module, tree in trees.items():
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        named |= {
            c.value
            for n in tree.body
            if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)
            for c in ast.walk(n.value)
            if isinstance(c, ast.Constant)
        }
        dead_imports += [
            f"{module}:{n.lineno} {alias.asname or alias.name}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"
            for alias in n.names
            if (alias.asname or alias.name).split(".")[0] not in named
        ]
    assert dead_imports == []
