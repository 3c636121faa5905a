"""Command line interface.

Every run with the same inputs produces byte-identical output: JSON is
rendered canonically (sorted keys, tight separators) and text output is built
from the same already-sorted data.  JSON is written piece by piece
(canon.write_cjson), and realize streams its realization tables into it in
bounded pieces of simplices, never a whole level's text.  Input files are
read and --out files written as UTF-8, whatever the locale.
--threads is accepted and has no effect.

Every JSON input flag (--space, --cat, --presheaf, --sieve, --map and
validate's --sset) takes a file or an inline JSON object.  The built-in
examples are input documents: DOCUMENTS builds each gallery document on
demand, `examples NAME` writes a kit of them (KITS), and `--example NAME`
replaces a command's input flags by its EXAMPLES entry, with each named
document passed inline, so an example runs the same loaders as files do.

Exit codes: 0 success, 2 bad input, 3 validation failure, 4 internal check
failure.  Errors are written to stderr as one-line JSON records.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from finsite import gallery
from finsite.canon import cjson, csorted, cstr, write_cjson
from finsite.catsite import (
    FinCat,
    FiniteSpace,
    Sieve,
    Site,
    category_from_json,
    category_to_json,
    generate_sieve,
    has_final_object,
    site_from_finite_space,
    space_from_json,
    space_to_json,
    validate_category,
    validate_space,
)
from finsite.homology import component_count, induced_by_chains, sset_homology, summands_label
from finsite.presheaf import (
    Functor,
    SetFunctor,
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    illusie_pi0_certificate,
    is_sheaf_set,
    point_functor,
    representable_set_presheaf,
    sheafify_set,
    terminal_set_presheaf,
    validate_functor,
    validate_set_functor,
    validate_set_presheaf_map,
)
from finsite.realization import (
    core_chain_map,
    core_homology,
    covariant_descent_check,
    order_complex_functor,
    realize,
    write_realization,
)
from finsite.reports import FinsiteError, InputError, InternalCheckError, Report, ValidationError
from finsite.sset import SimplicialMap, pi0, validate_sset
from finsite.sset import from_json as sset_from_json

EXIT_CODES = {InputError: 2, ValidationError: 3, InternalCheckError: 4}


# -- input loading ------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except ValueError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


def _inline_or_file(arg: str) -> dict:
    if arg.lstrip().startswith("{"):
        try:
            data = json.loads(arg)
        except ValueError as e:
            raise InputError(f"inline JSON is malformed: {e}") from e
        if not isinstance(data, dict):
            raise InputError("inline JSON must be an object")
        return data
    return _load_json(arg)


def _resolve_base(args) -> tuple[FiniteSpace | None, Site | None, FinCat]:
    """A space and its site from --space, or a bare category from --cat."""
    if getattr(args, "space", None) and getattr(args, "cat", None):
        raise InputError("give --space or --cat, not both")
    if getattr(args, "space", None):
        space = space_from_json(_inline_or_file(args.space))
        site = site_from_finite_space(space)
        return space, site, site.category
    if getattr(args, "cat", None):
        cat = category_from_json(_inline_or_file(args.cat))
        validate_category(cat).raise_if_failed()
        return None, None, cat
    raise InputError("an input is required: --space, --cat, or --example")


def _require_site(site: Site | None) -> Site:
    if site is None:
        raise InputError("this command needs covering data; give --space, not --cat")
    return site


def _name_table(obj, what: str) -> dict:
    """A JSON object whose values are all names, else an InputError."""
    if not isinstance(obj, dict) or not all(isinstance(v, str) for v in obj.values()):
        raise InputError(f"{what} must be an object mapping names to names")
    return obj


def _refuse_unknown(keys, known, what: str) -> None:
    """An InputError naming the first key that is not in known."""
    unknown = [key for key in keys if key not in known]
    if unknown:
        raise InputError(f"{what} {unknown[0]}")


def _per_object(cat: FinCat, data: dict, what: str, key: str) -> dict:
    """data[key], an object with exactly the category's objects as keys."""
    table = data.get(key)
    if not isinstance(table, dict):
        raise InputError(f'{what} JSON needs a "{key}" object')
    _refuse_unknown(cat.objects, table, f"{what} {key} missing for object")
    _refuse_unknown(table, set(cat.objects), f"{what} {key} name an unknown object")
    return table


def _element_map(table, elements, what: str) -> dict:
    """A table of names defined on exactly the given elements."""
    _name_table(table, what)
    _refuse_unknown(table, set(elements), f"{what} names an unknown element")
    _refuse_unknown(elements, table, f"{what} misses element")
    return table


def _actions(cat: FinCat, data: dict) -> dict:
    """A presheaf's "actions" object, keyed by morphisms of the category."""
    raw_actions = data.get("actions", {})
    if not isinstance(raw_actions, dict):
        raise InputError('presheaf "actions" must be an object')
    _refuse_unknown(raw_actions, cat.morphisms, "presheaf actions name an unknown morphism")
    return raw_actions


def set_presheaf_from_json(cat: FinCat, data: dict) -> SetFunctor:
    """Set-valued presheaf from {"values": {obj: [..]}, "actions": {mid: {..}}}.

    Actions may be omitted for identity morphisms only.
    """
    raw_values = _per_object(cat, data, "presheaf", "values")
    for x in cat.objects:
        vals = raw_values[x]
        if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
            raise InputError(f"presheaf values at {x} must be a list of names")
    values = {x: tuple(raw_values[x]) for x in cat.objects}
    raw_actions = _actions(cat, data)
    action = {}
    for m in cat.morphisms.values():
        if m.mid in raw_actions:
            what = f"presheaf action of {m.mid}"
            action[m.mid] = _element_map(raw_actions[m.mid], values[m.tgt], what)
        elif cat.is_identity(m.mid):
            action[m.mid] = {v: v for v in values[m.src]}
        else:
            raise InputError(f"presheaf action missing for morphism {m.mid}")
    sp = SetFunctor(cat, values, action, covariant=False)
    validate_set_functor(sp).raise_if_failed()
    return sp


def _parse_set_presheaf(spec: str, cat: FinCat) -> SetFunctor:
    """terminal | constant:v1,v2 | representable:OBJ | collapse | PATH"""
    if spec == "terminal":
        return terminal_set_presheaf(cat)
    if spec.startswith("constant:"):
        vals = [v for v in spec[len("constant:") :].split(",") if v]
        if not vals:
            raise InputError("constant presheaf needs at least one value")
        return constant_set_presheaf(cat, vals)
    if spec.startswith("representable:"):
        z = spec[len("representable:") :]
        if z not in set(cat.objects):
            raise InputError(f"unknown object {z} for representable presheaf")
        return representable_set_presheaf(cat, z)
    if spec == "collapse":
        top = has_final_object(cat)
        if top is None:
            raise InputError("collapse presheaf needs a category with a final object")
        return gallery.collapse_set_presheaf(cat, top)
    return set_presheaf_from_json(cat, _inline_or_file(spec))


def presheaf_from_json(cat: FinCat, data: dict, dim_cap: int) -> Functor:
    """Simplicial presheaf whose values are serialized simplicial sets.

    Actions map simplices by identifier, levelwise; omitted actions are
    identity-on-identifiers and allowed only for identity morphisms.
    """
    raw_values = _per_object(cat, data, "presheaf", "values")
    values = {}
    for x in cat.objects:
        # compared before anything is built at the value's cap; from_json
        # refuses a cap that is missing or not an integer
        got = raw_values[x].get("dim_cap") if isinstance(raw_values[x], dict) else None
        if type(got) is int and got != dim_cap:
            raise InputError(f"value at {x} has dim cap {got}, expected {dim_cap}")
        values[x] = sset_from_json(raw_values[x])
    raw_actions = _actions(cat, data)
    action = {}
    for m in cat.morphisms.values():
        src, tgt = values[m.tgt], values[m.src]  # contravariant
        if m.mid in raw_actions:
            table = raw_actions[m.mid]
            if not isinstance(table, dict):
                raise InputError(f"presheaf action of {m.mid} must be an object")
            what = f"presheaf action of {m.mid}"
            dims = [str(k) for k in range(dim_cap + 1)]
            _refuse_unknown(table, dims, f"{what} names a dimension outside 0..{dim_cap}:")
            each = f"each dimension of the {what}"
            levels = [_name_table(table.get(d, {}), each) for d in dims]
            for k, level in enumerate(levels):
                _refuse_unknown(level, set(src.simplices(k)), f"{what} names an unknown {k}-simplex")
            try:
                action[m.mid] = SimplicialMap.from_function(
                    src, tgt, lambda k, z, t=levels: t[k][z]
                )
            except KeyError as exc:
                raise InputError(f"{what} misses simplex {exc}") from None
        elif cat.is_identity(m.mid):
            action[m.mid] = SimplicialMap.identity(src)
        else:
            raise InputError(f"presheaf action missing for morphism {m.mid}")
    p = Functor(cat, dim_cap, values, action, covariant=False)
    validate_functor(p).raise_if_failed()
    return p


def _parse_g(spec: str, cat: FinCat, dim_cap: int) -> tuple[Functor, SetFunctor | None]:
    """The contravariant side of a realization at the given cap, with the set
    presheaf it is made from when it is discrete."""
    if spec == "terminal":
        return point_functor(cat, dim_cap, covariant=False), terminal_set_presheaf(cat)
    if spec.startswith(("constant:", "representable:")) or spec == "collapse":
        sp = _parse_set_presheaf(spec, cat)
    else:
        data = _inline_or_file(spec)
        vals = data.get("values")
        if isinstance(vals, dict) and vals and all(isinstance(v, dict) for v in vals.values()):
            return presheaf_from_json(cat, data, dim_cap), None
        sp = set_presheaf_from_json(cat, data)
    return discretize(sp, dim_cap), sp


def _parse_functor(
    name: str, space: FiniteSpace | None, site: Site | None, cat: FinCat, dim_cap: int
):
    if name == "order_complex":
        if space is None:
            raise InputError("the order_complex functor needs a space's points; give --space, not --cat")
        return order_complex_functor(space, dim_cap, site)
    if name == "point":
        return point_functor(cat, dim_cap, covariant=True)
    raise InputError(f"unknown functor {name}; known: order_complex, point")


def _load_sieve(arg: str, cat: FinCat) -> Sieve:
    data = _inline_or_file(arg)
    base = data.get("base")
    gens = data.get("generators")
    if not isinstance(base, str) or not isinstance(gens, list) or not all(
        isinstance(g, str) for g in gens
    ):
        raise InputError('sieve JSON needs a "base" name and a "generators" list of names')
    if base not in set(cat.objects):
        raise InputError(f"sieve base {base} is not an object")
    for g in gens:
        if g not in cat.morphisms:
            raise InputError(f"sieve generator {g} is not a morphism")
    return generate_sieve(cat, base, gens)


def _load_map(arg: str, sp: SetFunctor, sp2: SetFunctor) -> SetPresheafMap:
    """A set presheaf map from {"components": {obj: {elem: elem}}}."""
    cat = sp.category
    comps = _per_object(cat, _inline_or_file(arg), "map", "components")
    return SetPresheafMap(
        sp, sp2, {x: _element_map(comps[x], sp.values[x], f"map component at {x}") for x in cat.objects}
    )


def _caps(args) -> tuple[int, int]:
    cap = args.dim_cap
    if cap < 1:
        raise InputError("--dim-cap must be at least 1")
    max_deg = cap - 1 if args.max_deg is None else args.max_deg
    if max_deg < 0:
        raise InputError("--max-deg must be nonnegative")
    if max_deg > cap - 1:
        raise InputError(
            f"--max-deg {max_deg} exceeds the trusted bound {cap - 1} at --dim-cap {cap}"
        )
    return cap, max_deg


# -- output -------------------------------------------------------------------------


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Writes the payload as canonical JSON (write_cjson), or the text lines,
    to --out or stdout as UTF-8 whatever the locale; an in-process stdout
    with no bytes beneath takes the text.  Commands compute and check
    everything first, so a refusal never leaves a partial file."""
    try:
        sys.stdout.flush()
        stdout = contextlib.nullcontext(getattr(sys.stdout, "buffer", None))
        with Path(args.out).open("wb") if args.out else stdout as out:
            write = sys.stdout.write if out is None else lambda text: out.write(text.encode())
            if args.format == "json":
                write_cjson(write, payload)
            else:
                write("\n".join(text_lines) + "\n")
    except OSError as e:
        raise InputError(f"cannot write {args.out or 'stdout'}: {e}") from e


def set_presheaf_to_json(sp: SetFunctor) -> dict:
    return {
        "values": {cstr(x): [cstr(v) for v in csorted(sp.values[x])] for x in sp.category.objects},
        "actions": {
            cstr(m): {cstr(v): cstr(w) for v, w in csorted(table.items())}
            for m, table in sp.action.items()
        },
    }


def set_presheaf_map_to_json(pm: SetPresheafMap) -> dict:
    return {
        "components": {
            cstr(x): {cstr(a): cstr(b) for a, b in csorted(comp.items())}
            for x, comp in pm.components.items()
        }
    }


# -- built-in examples -------------------------------------------------------------


def _cover_json(space: FiniteSpace, cover) -> dict:
    """The document of a gallery covering sieve: its base and its members
    other than the identity."""
    site = site_from_finite_space(space)
    sieve = cover(site)
    gens = [m for m in csorted(sieve.members) if not site.category.is_identity(m)]
    return {"base": cstr(sieve.base), "generators": [cstr(m) for m in gens]}


def _pseudo_circle_presheaf(spec: str) -> dict:
    """The document of a built-in set presheaf spec on the pseudo-circle site."""
    cat = site_from_finite_space(gallery.pseudo_circle_space()).category
    return set_presheaf_to_json(_parse_set_presheaf(spec, cat))


# The gallery's input documents by file name, each built only when asked for.
# A builder takes the run's dim cap, which only the circle presheaf reads.
DOCUMENTS = {
    "sierpinski.space.json": lambda cap: space_to_json(gallery.sierpinski_space()),
    "pseudo_circle.space.json": lambda cap: space_to_json(gallery.pseudo_circle_space()),
    "pseudo_circle.collapse.presheaf.json": lambda cap: _pseudo_circle_presheaf("collapse"),
    "pseudo_circle.constant2.presheaf.json": lambda cap: _pseudo_circle_presheaf("constant:0,1"),
    "pseudo_circle.cover.sieve.json": lambda cap: _cover_json(
        gallery.pseudo_circle_space(), gallery.pseudo_circle_cover
    ),
    "interval_cover.space.json": lambda cap: space_to_json(gallery.interval_cover_space()),
    "interval_cover.cover.sieve.json": lambda cap: _cover_json(
        gallery.interval_cover_space(), gallery.interval_cover_sieve
    ),
    "bz2.category.json": lambda cap: category_to_json(gallery.bz2_category()),
    "action_z2_free.presheaf.json": lambda cap: set_presheaf_to_json(
        gallery.swap_set_presheaf(gallery.bz2_category())
    ),
    "point.category.json": lambda cap: category_to_json(gallery.point_category()),
    "point.circle.presheaf.json": lambda cap: {
        "values": {"*": {"dim_cap": cap, **gallery.CIRCLE}}
    },
}

# `examples NAME` writes these documents, in this order.
KITS = {
    "sierpinski": ("sierpinski.space.json",),
    "pseudo_circle": (
        "pseudo_circle.space.json",
        "pseudo_circle.collapse.presheaf.json",
        "pseudo_circle.constant2.presheaf.json",
        "pseudo_circle.cover.sieve.json",
    ),
    "interval_cover": ("interval_cover.space.json", "interval_cover.cover.sieve.json"),
    "bz2": ("bz2.category.json",),
    "action_z2_free": ("bz2.category.json", "action_z2_free.presheaf.json"),
}
EXAMPLE_KITS = tuple(KITS)

_PC_SPACE = "pseudo_circle.space.json"
_PC_COLLAPSE = "pseudo_circle.collapse.presheaf.json"
_PC_CONSTANT2 = "pseudo_circle.constant2.presheaf.json"

# The input arguments each command's `--example NAME` stands for.  An
# argument that names a document is passed as that document, inline.
EXAMPLES = {
    "realize": {
        "pseudo_circle_terminal": ["--space", _PC_SPACE],
        "point_site": ["--cat", "point.category.json", "--presheaf", "point.circle.presheaf.json"],
        "bz2": ["--cat", "bz2.category.json"],
        "action_z2_free": ["--cat", "bz2.category.json", "--presheaf", "action_z2_free.presheaf.json"],
    },
    "sheafify": {
        "pseudo_circle_constant2": ["--space", _PC_SPACE, "--presheaf", _PC_CONSTANT2],
        "collapse": ["--space", _PC_SPACE, "--presheaf", _PC_COLLAPSE],
    },
    "descent-check": {
        "pseudo_circle_order_complex": [
            "--space", _PC_SPACE, "--object", "{a,b,c,d}", "--sieve", "pseudo_circle.cover.sieve.json",
        ],
        "pseudo_circle_constant_point_F": [
            "--space", _PC_SPACE, "--functor", "point", "--object", "{a,b}",
            "--sieve", '{"base":"{a,b}","generators":["{a}<={a,b}","{b}<={a,b}"]}',
        ],
        "interval_cover": [
            "--space", "interval_cover.space.json", "--object", "{a1,a2,a3,a4,b1,b2,b3}",
            "--sieve", "interval_cover.cover.sieve.json",
        ],
        "sierpinski_maximal": [
            "--space", "sierpinski.space.json", "--object", "{c,o}",
            "--sieve", '{"base":"{c,o}","generators":["{c,o}<={c,o}"]}',
        ],
    },
    "compare": {
        "collapse": ["--space", _PC_SPACE, "--presheaf", _PC_COLLAPSE],
        "constant2": ["--space", _PC_SPACE, "--presheaf", _PC_CONSTANT2],
        "identity": ["--space", _PC_SPACE, "--presheaf", _PC_CONSTANT2, "--presheaf2", _PC_CONSTANT2],
    },
}

# The flags of a run that an example keeps; it replaces all the others.
RUN_FLAGS = ("dim_cap", "max_deg", "threads", "format", "out")


def _with_example(parser: argparse.ArgumentParser, args):
    """The arguments of a run whose inputs are those of its --example."""
    examples = EXAMPLES[args.command]
    if args.example not in examples:
        raise InputError(
            f"unknown {args.command.removesuffix('-check')} example {args.example}; "
            "known: " + ", ".join(examples)
        )
    cap = getattr(args, "dim_cap", None)
    argv = [cjson(DOCUMENTS[a](cap)) if a in DOCUMENTS else a for a in examples[args.example]]
    inputs = parser.parse_args([args.command, *argv])
    vars(inputs).update((k, v) for k, v in vars(args).items() if k in RUN_FLAGS)
    return inputs


# -- commands -----------------------------------------------------------------------


def cmd_realize(args) -> int:
    cap, max_deg = _caps(args)
    space, site, cat = _resolve_base(args)
    name = args.functor or ("order_complex" if args.space else "point")
    f = _parse_functor(name, space, site, cat, cap)
    g, sp = _parse_g(args.presheaf or "terminal", cat, cap)
    re = realize(cat, f, g, cap)
    if space is not None and sp is not None:
        groups = core_homology(space, cat, sp, name == "point", max_deg).groups
    else:
        groups = sset_homology(re, max_deg).groups
    n0 = component_count(len(pi0(re)), groups[0])
    payload = {
        "command": "realize",
        "dim_cap": cap,
        "max_deg": max_deg,
        "trusted_max_degree": cap - 1,
        "pi0": n0,
        "homology": [g_.to_json() for g_ in groups],
        "counts": list(re.counts()),
        "nondegenerate": list(re.nondegenerate_counts()),
        "realization": lambda write: write_realization(re, write),
    }
    lines = [f"realize: pi0={n0}"]
    for g_ in groups:
        lines.append(f"H{g_.degree}: {g_.label()}")
    lines.append("counts: " + " ".join(str(c) for c in payload["counts"]))
    lines.append("nondegenerate: " + " ".join(str(c) for c in payload["nondegenerate"]))
    lines.append(f"trusted through degree {cap - 1} at dim cap {cap}")
    _emit(args, payload, lines)
    return 0


def cmd_sheafify(args) -> int:
    _, site, _ = _resolve_base(args)
    site = _require_site(site)
    if not args.presheaf:
        raise InputError("sheafify needs --presheaf")
    sp = _parse_set_presheaf(args.presheaf, site.category)
    rep_in = is_sheaf_set(site, sp)
    sh = sheafify_set(site, sp)
    unit_bij = all(
        len(set(sh.unit.components[x].values())) == len(sp.values[x]) == len(sh.sheaf.values[x])
        for x in site.category.objects
    )
    payload = {
        "command": "sheafify",
        "input": set_presheaf_to_json(sp),
        "sheaf": set_presheaf_to_json(sh.sheaf),
        "unit": set_presheaf_map_to_json(sh.unit),
        "input_is_sheaf": rep_in.to_json(),
        "result_is_sheaf": Report.success().to_json(),  # sheafify_set checked it
        "unit_bijective": unit_bij,
    }
    lines = [
        "sheafify: input is "
        + ("already a sheaf" if rep_in.ok else f"not a sheaf ({rep_in.kind})"),
        f"unit bijective: {'yes' if unit_bij else 'no'}",
    ]
    for x in site.category.objects:
        lines.append(f"{cstr(x)}: {len(sp.values[x])} -> {len(sh.sheaf.values[x])}")
    _emit(args, payload, lines)
    return 0


def cmd_descent_check(args) -> int:
    cap, max_deg = _caps(args)
    space, site, cat = _resolve_base(args)
    site = _require_site(site)
    f = _parse_functor(args.functor or "order_complex", space, site, cat, cap)
    if not args.object or not args.sieve:
        raise InputError("descent-check needs --object and --sieve")
    if args.object not in set(site.category.objects):
        raise InputError(f"unknown object {args.object}")
    obj = args.object
    sieve = _load_sieve(args.sieve, site.category)
    rep = covariant_descent_check(site, f, obj, sieve, max_deg)
    payload = {
        "command": "descent-check",
        "dim_cap": cap,
        "max_deg": max_deg,
        "trusted_max_degree": cap - 1,
        "report": rep.to_json(),
    }
    lines = [
        f"descent: {'PASS' if rep.ok else 'FAIL'} at {cstr(obj)} "
        f"over a sieve with {len(sieve.members)} members",
        f"pi0: {rep.pi0_realization} vs {rep.pi0_value}",
    ]
    for k, re_s, val_s in rep.degrees:
        lines.append(f"H{k}: {summands_label(re_s)} vs {summands_label(val_s)}")
    lines.append(f"trusted through degree {max_deg}")
    _emit(args, payload, lines)
    return 0


def cmd_compare(args) -> int:
    cap, max_deg = _caps(args)
    space, site, cat = _resolve_base(args)
    site = _require_site(site)
    point = args.functor == "point"
    if not args.presheaf:
        raise InputError("compare needs --presheaf")
    sp = _parse_set_presheaf(args.presheaf, cat)
    if not args.presheaf2:
        if args.map:
            raise InputError("--map needs --presheaf2")
        # default comparison: the unit into the sheafification
        pm_set = sheafify_set(site, sp).unit
    else:
        sp2 = _parse_set_presheaf(args.presheaf2, cat)
        if args.map:
            pm_set = _load_map(args.map, sp, sp2)
        elif sp.values == sp2.values:
            pm_set = SetPresheafMap(sp, sp2, {x: {v: v for v in sp.values[x]} for x in cat.objects})
        else:
            raise InputError("compare with --presheaf2 needs --map unless values coincide")
    validate_set_presheaf_map(pm_set).raise_if_failed()
    cert = illusie_pi0_certificate(site, pm_set)
    hs, ht = (core_homology(space, cat, g, point, max_deg) for g in (pm_set.source, pm_set.target))
    maps = [
        induced_by_chains(core_chain_map(hs, ht, pm_set.components, k), hs.groups[k], ht.groups[k])
        for k in range(max_deg + 1)
    ]
    degrees = []
    for k, im in enumerate(maps):
        perm = im.permutation()
        degrees.append(
            {
                "degree": k,
                "source": im.source.to_json(),
                "target": im.target.to_json(),
                "matrix": [list(row) for row in im.matrix],
                "identity": im.is_identity(),
                "permutation": list(perm) if perm is not None else None,
            }
        )
    n_src, n_tgt = hs.pi0, ht.pi0
    isos = [im.is_isomorphism() for im in maps]
    ok = cert.ok and all(isos) and n_src == n_tgt
    payload = {
        "command": "compare",
        "dim_cap": cap,
        "max_deg": max_deg,
        "trusted_max_degree": cap - 1,
        "pi0": {"source": n_src, "target": n_tgt},
        "pi0_certificate": cert.to_json(),
        "degrees": degrees,
        "verdict": {
            "ok": ok,
            "scope": f"pi0 and homology through degree {max_deg} only",
        },
    }
    lines = [
        f"compare: {'EQUIVALENT' if ok else 'DIFFERENT'} through degree {max_deg}",
        f"pi0: {n_src} vs {n_tgt}; certificate {'ok' if cert.ok else cert.kind}",
    ]
    for d, im, iso in zip(degrees, maps, isos):
        tag = "identity" if d["identity"] else (
            "permutation" if d["permutation"] is not None else
            "isomorphism" if iso else "no match"
        )
        lines.append(f"H{d['degree']}: {im.source.label()} -> {im.target.label()} ({tag})")
    _emit(args, payload, lines)
    return 0


def cmd_examples(args) -> int:
    name = args.name
    if name not in KITS:
        raise InputError(f"unknown example {name}; known: " + ", ".join(EXAMPLE_KITS))
    outdir = Path(args.dir)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for fname in KITS[name]:
            path = outdir / fname
            path.write_text(cjson(DOCUMENTS[fname](None)), encoding="utf-8")
            written.append(str(path))
    except OSError as e:
        raise InputError(f"cannot write to {args.dir}: {e}") from e
    payload = {"command": "examples", "name": name, "written": written}
    _emit(args, payload, ["wrote " + p for p in written])
    return 0


def cmd_validate(args) -> int:
    picked = [k for k in ("cat", "space", "sset") if getattr(args, k)]
    if len(picked) != 1:
        raise InputError("validate needs exactly one of --cat, --space, --sset")
    kind = picked[0]
    data = _inline_or_file(getattr(args, kind))
    if kind == "cat":
        rep = validate_category(category_from_json(data))
    elif kind == "space":
        rep = validate_space(space_from_json(data))
    else:
        try:
            rep = validate_sset(sset_from_json(data))
        except ValidationError as exc:
            # tables that are not total maps between levels are refused on load
            if exc.report is None:
                raise
            rep = exc.report
    payload = {"command": "validate", "kind": kind, "report": rep.to_json()}
    lines = [f"validate {kind}: {'ok' if rep.ok else rep.kind}"]
    if not rep.ok:
        lines.append(rep.detail)
    _emit(args, payload, lines)
    return 0 if rep.ok else 3


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsite",
        description="Realizations, sheafification, and integer homology over finite sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--format", choices=("json", "text"), default="text")
    io.add_argument("--out", help="write output to this file instead of stdout")

    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--dim-cap", type=int, default=4, dest="dim_cap")
    caps.add_argument(
        "--max-deg",
        type=int,
        default=None,
        dest="max_deg",
        help="top homology degree; defaults to dim-cap minus one, its hard bound",
    )

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--space", help="finite space JSON or FILE; its open-set site is used")
    base.add_argument("--cat", help="finite category JSON or FILE (no covering data)")
    base.add_argument("--example", help="a built-in instance's inputs in place of the input flags")

    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )

    p = sub.add_parser("realize", parents=[base, caps, threads, io],
                       help="realization of (functor, presheaf) with homology")
    p.add_argument("--functor", choices=("order_complex", "point"))
    p.add_argument("--presheaf", help="terminal | constant:v,.. | representable:OBJ | collapse | FILE")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("sheafify", parents=[base, io],
                       help="double plus construction of a set presheaf")
    p.add_argument("--presheaf", help="set presheaf spec or FILE")
    p.set_defaults(fn=cmd_sheafify)

    p = sub.add_parser("descent-check", parents=[base, caps, io],
                       help="realization over a covering sieve versus the plain value")
    p.add_argument("--functor", choices=("order_complex", "point"))
    p.add_argument("--object", help="object the sieve covers")
    p.add_argument("--sieve", help='sieve JSON {"base":..,"generators":[..]} or FILE')
    p.set_defaults(fn=cmd_descent_check)

    p = sub.add_parser("compare", parents=[base, caps, threads, io],
                       help="compare two presheaves along a map on pi0 and homology")
    p.add_argument("--functor", choices=("order_complex", "point"))
    p.add_argument("--presheaf", help="source set presheaf spec or FILE")
    p.add_argument("--presheaf2", help="target set presheaf; default is the sheafification")
    p.add_argument("--map", help='map JSON {"components": {obj: {elem: elem}}} or FILE, '
                   "from --presheaf to --presheaf2; needs --presheaf2")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("examples", parents=[io], help="write input files for a named instance")
    p.add_argument("name", help=", ".join(EXAMPLE_KITS))
    p.add_argument("--dir", default=".", help="directory to write into")
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("validate", parents=[io], help="validate a serialized input")
    p.add_argument("--cat")
    p.add_argument("--space")
    p.add_argument("--sset")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "example", None):
            args = _with_example(parser, args)
        return args.fn(args)
    except FinsiteError as e:
        code = EXIT_CODES.get(type(e), 4)
        record = {"error": {"type": type(e).__name__, "exit": code, "detail": str(e)}}
        sys.stderr.write(cjson(record))
        return code


if __name__ == "__main__":
    sys.exit(main())
