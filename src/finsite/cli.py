"""Command line interface.

Every run with the same inputs produces byte-identical output: JSON is
rendered canonically (sorted keys, tight separators) and text output is built
from the same already-sorted data.  --threads is accepted and has no effect.

Exit codes: 0 success, 2 bad input, 3 validation failure, 4 internal check
failure.  Errors are written to stderr as one-line JSON records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from finsite import gallery
from finsite.canon import cjson, csorted, cstr
from finsite.catsite import (
    FinCat,
    FiniteSpace,
    Sieve,
    Site,
    category_from_json,
    category_to_json,
    generate_sieve,
    has_final_object,
    maximal_sieve,
    site_from_finite_space,
    space_from_json,
    space_to_json,
    validate_category,
    validate_space,
)
from finsite.homology import induced_map, sset_homology, summands_label
from finsite.presheaf import (
    Functor,
    SetFunctor,
    SetPresheafMap,
    constant_set_presheaf,
    discretize,
    discretize_map,
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
    covariant_descent_check,
    induced_realization_map,
    order_complex_functor,
    realization_to_json,
    realize,
)
from finsite.reports import FinsiteError, InputError, InternalCheckError, ValidationError
from finsite.sset import SimplicialMap, pi0, validate_sset
from finsite.sset import from_json as sset_from_json

EXIT_CODES = {InputError: 2, ValidationError: 3, InternalCheckError: 4}


# -- input loading ------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
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
        space = space_from_json(_load_json(args.space))
        validate_space(space).raise_if_failed()
        site = site_from_finite_space(space)
        return space, site, site.category
    if getattr(args, "cat", None):
        cat = category_from_json(_load_json(args.cat))
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


def _actions(data: dict) -> dict:
    raw_actions = data.get("actions", {})
    if not isinstance(raw_actions, dict):
        raise InputError('presheaf "actions" must be an object')
    return raw_actions


def set_presheaf_from_json(cat: FinCat, data: dict) -> SetFunctor:
    """Set-valued presheaf from {"values": {obj: [..]}, "actions": {mid: {..}}}.

    Actions may be omitted for identity morphisms only.
    """
    raw_values = data.get("values")
    if not isinstance(raw_values, dict):
        raise InputError('presheaf JSON needs a "values" object')
    missing = [x for x in cat.objects if x not in raw_values]
    if missing:
        raise InputError(f"presheaf values missing for object {missing[0]}")
    extra = [x for x in raw_values if x not in set(cat.objects)]
    if extra:
        raise InputError(f"presheaf values name an unknown object {extra[0]}")
    for x in cat.objects:
        vals = raw_values[x]
        if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
            raise InputError(f"presheaf values at {x} must be a list of names")
    values = {x: tuple(raw_values[x]) for x in cat.objects}
    raw_actions = _actions(data)
    action = {}
    for m in cat.morphisms.values():
        if m.mid in raw_actions:
            action[m.mid] = _name_table(raw_actions[m.mid], f"presheaf action of {m.mid}")
        elif cat.is_identity(m.mid):
            action[m.mid] = {v: v for v in values[m.src]}
        else:
            raise InputError(f"presheaf action missing for morphism {m.mid}")
    sp = SetFunctor(cat, values, action, covariant=False)
    validate_set_functor(sp).raise_if_failed()
    return sp


def _parse_set_presheaf(spec: str, cat: FinCat, site: Site | None) -> SetFunctor:
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
    raw_values = data.get("values")
    if not isinstance(raw_values, dict):
        raise InputError('presheaf JSON needs a "values" object')
    values = {}
    for x in cat.objects:
        if x not in raw_values:
            raise InputError(f"presheaf values missing for object {x}")
        values[x] = sset_from_json(raw_values[x])
        if values[x].dim_cap != dim_cap:
            raise InputError(
                f"value at {x} has dim cap {values[x].dim_cap}, expected {dim_cap}"
            )
    raw_actions = _actions(data)
    action = {}
    for m in cat.morphisms.values():
        src, tgt = values[m.tgt], values[m.src]  # contravariant
        if m.mid in raw_actions:
            table = raw_actions[m.mid]
            if not isinstance(table, dict):
                raise InputError(f"presheaf action of {m.mid} must be an object")
            what = f"each dimension of the presheaf action of {m.mid}"
            levels = [_name_table(table.get(str(k), {}), what) for k in range(dim_cap + 1)]
            try:
                action[m.mid] = SimplicialMap.from_function(
                    src, tgt, lambda k, z, t=levels: t[k][z]
                )
            except KeyError as exc:
                raise InputError(f"presheaf action of {m.mid} misses simplex {exc}") from None
        elif cat.is_identity(m.mid):
            action[m.mid] = SimplicialMap.identity(src)
        else:
            raise InputError(f"presheaf action missing for morphism {m.mid}")
    p = Functor(cat, dim_cap, values, action, covariant=False)
    validate_functor(p).raise_if_failed()
    return p


def _parse_g(spec: str, cat: FinCat, site: Site | None, dim_cap: int) -> Functor:
    """The contravariant side of a realization, at the given cap."""
    if spec == "terminal":
        return point_functor(cat, dim_cap, covariant=False)
    if not spec.startswith(("constant:", "representable:")) and spec != "collapse":
        data = _inline_or_file(spec)
        vals = data.get("values", {})
        if vals and all(isinstance(v, dict) for v in vals.values()):
            return presheaf_from_json(cat, data, dim_cap)
    return discretize(_parse_set_presheaf(spec, cat, site), dim_cap)


def _parse_functor(
    name: str, space: FiniteSpace | None, site: Site | None, cat: FinCat, dim_cap: int
):
    if name == "order_complex":
        # a site comes only with the space it was built from
        return order_complex_functor(space, dim_cap, _require_site(site))
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
    out = cjson(payload) if args.format == "json" else "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


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


# -- example registry ---------------------------------------------------------------


def _pseudo_circle_setup():
    space = gallery.pseudo_circle_space()
    site = site_from_finite_space(space)
    return space, site


def _realize_example(name: str, dim_cap: int):
    if name == "pseudo_circle_terminal":
        space, site = _pseudo_circle_setup()
        cat = site.category
        g = point_functor(cat, dim_cap, covariant=False)
        return cat, order_complex_functor(space, dim_cap, site), g
    if name == "point_site":
        cat = gallery.point_category()
        circle = gallery.circle_sset(dim_cap)
        ident = {"id:*": SimplicialMap.identity(circle)}
        g = Functor(cat, dim_cap, {"*": circle}, ident, covariant=False)
        return cat, point_functor(cat, dim_cap, covariant=True), g
    if name == "bz2":
        cat = gallery.bz2_category()
        g = point_functor(cat, dim_cap, covariant=False)
        return cat, point_functor(cat, dim_cap, covariant=True), g
    if name == "action_z2_free":
        cat = gallery.bz2_category()
        g = discretize(gallery.swap_set_presheaf(cat), dim_cap)
        return cat, point_functor(cat, dim_cap, covariant=True), g
    raise InputError(
        f"unknown realize example {name}; known: pseudo_circle_terminal, "
        "point_site, bz2, action_z2_free"
    )


def _sheafify_example(name: str):
    space, site = _pseudo_circle_setup()
    if name == "pseudo_circle_constant2":
        return site, constant_set_presheaf(site.category, ["0", "1"])
    if name == "collapse":
        return site, gallery.collapse_set_presheaf(site.category, has_final_object(site.category))
    raise InputError(
        f"unknown sheafify example {name}; known: pseudo_circle_constant2, collapse"
    )


def _descent_example(name: str, dim_cap: int):
    if name == "pseudo_circle_order_complex":
        space, site = _pseudo_circle_setup()
        s = gallery.pseudo_circle_cover(site)
        return site, order_complex_functor(space, dim_cap, site), s.base, s
    if name == "pseudo_circle_constant_point_F":
        space, site = _pseudo_circle_setup()
        s = gallery.two_open_cover(site)
        return site, point_functor(site.category, dim_cap, covariant=True), s.base, s
    if name == "interval_cover":
        space = gallery.interval_cover_space()
        site = site_from_finite_space(space)
        s = gallery.interval_cover_sieve(site)
        return site, order_complex_functor(space, dim_cap, site), s.base, s
    if name == "sierpinski_maximal":
        space = gallery.sierpinski_space()
        site = site_from_finite_space(space)
        top = max(site.category.objects, key=len)
        return site, order_complex_functor(space, dim_cap, site), top, maximal_sieve(site.category, top)
    raise InputError(
        f"unknown descent example {name}; known: pseudo_circle_order_complex, "
        "pseudo_circle_constant_point_F, interval_cover, sierpinski_maximal"
    )


def _compare_example(name: str):
    space, site = _pseudo_circle_setup()
    cat = site.category
    if name == "collapse":
        return site, space, gallery.collapse_set_presheaf(cat, has_final_object(cat)), None
    if name == "constant2":
        return site, space, constant_set_presheaf(cat, ["0", "1"]), None
    if name == "identity":
        sp = constant_set_presheaf(cat, ["0", "1"])
        ident = SetPresheafMap(sp, sp, {x: {v: v for v in sp.values[x]} for x in cat.objects})
        return site, space, sp, ident
    raise InputError(f"unknown compare example {name}; known: collapse, constant2, identity")


# -- commands -----------------------------------------------------------------------


def cmd_realize(args) -> int:
    cap, max_deg = _caps(args)
    if args.example:
        cat, f, g = _realize_example(args.example, cap)
    else:
        space, site, cat = _resolve_base(args)
        f = _parse_functor(args.functor or ("order_complex" if args.space else "point"), space, site, cat, cap)
        g = _parse_g(args.presheaf or "terminal", cat, site, cap)
    re = realize(cat, f, g, cap)
    h = sset_homology(re, max_deg)
    n0 = len(pi0(re))
    payload = {
        "command": "realize",
        "dim_cap": cap,
        "max_deg": max_deg,
        "trusted_max_degree": cap - 1,
        "pi0": n0,
        "homology": [g_.to_json() for g_ in h.groups],
        "counts": list(re.counts()),
        "nondegenerate": [len(re.nondegenerate(k)) for k in range(cap + 1)],
        "realization": realization_to_json(re),
    }
    lines = [f"realize: pi0={n0}"]
    for g_ in h.groups:
        lines.append(f"H{g_.degree}: {g_.label()}")
    lines.append("counts: " + " ".join(str(c) for c in payload["counts"]))
    lines.append("nondegenerate: " + " ".join(str(c) for c in payload["nondegenerate"]))
    lines.append(f"trusted through degree {cap - 1} at dim cap {cap}")
    _emit(args, payload, lines)
    return 0


def cmd_sheafify(args) -> int:
    if args.example:
        site, sp = _sheafify_example(args.example)
    else:
        _, site, cat = _resolve_base(args)
        site = _require_site(site)
        if not args.presheaf:
            raise InputError("sheafify needs --presheaf")
        sp = _parse_set_presheaf(args.presheaf, site.category, site)
    rep_in = is_sheaf_set(site, sp)
    sh = sheafify_set(site, sp)
    rep_out = is_sheaf_set(site, sh.sheaf)
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
        "result_is_sheaf": rep_out.to_json(),
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
    if args.example:
        site, f, obj, sieve = _descent_example(args.example, cap)
    else:
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
    pm_set = None
    if args.example:
        site, space, sp, pm_set = _compare_example(args.example)
        f = order_complex_functor(space, cap, site)
    else:
        space, site, cat = _resolve_base(args)
        site = _require_site(site)
        f = _parse_functor(args.functor or "order_complex", space, site, cat, cap)
        if not args.presheaf:
            raise InputError("compare needs --presheaf")
        sp = _parse_set_presheaf(args.presheaf, site.category, site)
        if args.presheaf2:
            sp2 = _parse_set_presheaf(args.presheaf2, site.category, site)
            if args.map:
                data = _inline_or_file(args.map)
                comps = data.get("components")
                if not isinstance(comps, dict):
                    raise InputError('map JSON needs a "components" object')
                pm_set = SetPresheafMap(
                    sp,
                    sp2,
                    {
                        x: _name_table(comps.get(x, {}), f"map component at {x}")
                        for x in site.category.objects
                    },
                )
            elif sp.values == sp2.values:
                pm_set = SetPresheafMap(sp, sp2, {x: {v: v for v in sp.values[x]} for x in site.category.objects})
            else:
                raise InputError("compare with --presheaf2 needs --map unless values coincide")
    cat = site.category
    if pm_set is None:
        # default comparison: the unit into the sheafification
        pm_set = sheafify_set(site, sp).unit
    validate_set_presheaf_map(pm_set).raise_if_failed()
    pm = discretize_map(pm_set, cap)
    cert = illusie_pi0_certificate(site, pm)
    rmap = induced_realization_map(f, pm, cap)
    hs = sset_homology(rmap.source, max_deg)
    ht = sset_homology(rmap.target, max_deg)
    maps = [induced_map(rmap, hs, ht, k) for k in range(max_deg + 1)]
    degrees = []
    all_perm = True
    for k, im in enumerate(maps):
        perm = im.permutation()
        all_perm = all_perm and perm is not None
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
    n_src, n_tgt = len(pi0(rmap.source)), len(pi0(rmap.target))
    ok = cert.ok and all_perm and n_src == n_tgt
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
    for d, im in zip(degrees, maps):
        tag = "identity" if d["identity"] else (
            "permutation" if d["permutation"] is not None else "no match"
        )
        lines.append(f"H{d['degree']}: {im.source.label()} -> {im.target.label()} ({tag})")
    _emit(args, payload, lines)
    return 0


EXAMPLE_KITS = ("sierpinski", "pseudo_circle", "interval_cover", "bz2", "action_z2_free")


def cmd_examples(args) -> int:
    name = args.name
    if name not in EXAMPLE_KITS:
        raise InputError(f"unknown example {name}; known: " + ", ".join(EXAMPLE_KITS))
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}
    if name == "sierpinski":
        files["sierpinski.space.json"] = space_to_json(gallery.sierpinski_space())
    elif name == "pseudo_circle":
        space = gallery.pseudo_circle_space()
        site = site_from_finite_space(space)
        cat = site.category
        files["pseudo_circle.space.json"] = space_to_json(space)
        files["pseudo_circle.collapse.presheaf.json"] = set_presheaf_to_json(
            gallery.collapse_set_presheaf(cat, has_final_object(cat))
        )
        files["pseudo_circle.constant2.presheaf.json"] = set_presheaf_to_json(
            constant_set_presheaf(cat, ["0", "1"])
        )
        cover = gallery.pseudo_circle_cover(site)
        gens = [m for m in csorted(cover.members) if not cat.is_identity(m)]
        files["pseudo_circle.cover.sieve.json"] = {
            "base": cstr(cover.base),
            "generators": [cstr(m) for m in gens],
        }
    elif name == "interval_cover":
        space = gallery.interval_cover_space()
        site = site_from_finite_space(space)
        cover = gallery.interval_cover_sieve(site)
        gens = [m for m in csorted(cover.members) if not site.category.is_identity(m)]
        files["interval_cover.space.json"] = space_to_json(space)
        files["interval_cover.cover.sieve.json"] = {
            "base": cstr(cover.base),
            "generators": [cstr(m) for m in gens],
        }
    elif name == "bz2":
        files["bz2.category.json"] = category_to_json(gallery.bz2_category())
    elif name == "action_z2_free":
        cat = gallery.bz2_category()
        files["bz2.category.json"] = category_to_json(cat)
        files["action_z2_free.presheaf.json"] = set_presheaf_to_json(
            gallery.swap_set_presheaf(cat)
        )
    written = []
    for fname, data in files.items():
        path = outdir / fname
        path.write_text(cjson(data))
        written.append(str(path))
    payload = {"command": "examples", "name": name, "written": written}
    _emit(args, payload, ["wrote " + p for p in written])
    return 0


def cmd_validate(args) -> int:
    picked = [k for k in ("cat", "space", "sset") if getattr(args, k)]
    if len(picked) != 1:
        raise InputError("validate needs exactly one of --cat, --space, --sset")
    kind = picked[0]
    if kind == "cat":
        rep = validate_category(category_from_json(_load_json(args.cat)))
    elif kind == "space":
        rep = validate_space(space_from_json(_load_json(args.space)))
    else:
        rep = validate_sset(sset_from_json(_load_json(args.sset)))
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
    base.add_argument("--space", help="finite space JSON; its open-set site is used")
    base.add_argument("--cat", help="finite category JSON (no covering data)")
    base.add_argument("--example", help="run a named built-in instance instead of files")

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
    p.add_argument("--map", help='map JSON {"components": {obj: {elem: elem}}} or FILE')
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FinsiteError as e:
        code = EXIT_CODES.get(type(e), 4)
        record = {"error": {"type": type(e).__name__, "exit": code, "detail": str(e)}}
        sys.stderr.write(cjson(record))
        return code


if __name__ == "__main__":
    sys.exit(main())
