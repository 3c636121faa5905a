"""Output checks, computed from the generated space alone.

Nothing here calls the program: every expected answer comes from a second
route (chain counts over the inclusion and specialization orders, and the
known homology of a contractible space), so a wrong answer cannot confirm
itself.
"""

from __future__ import annotations


def minimal_opens(space: dict) -> dict[str, frozenset]:
    opens = [frozenset(o) for o in space["opens"]]
    return {q: frozenset.intersection(*(o for o in opens if q in o)) for q in space["points"]}


def specialization_leq(space: dict):
    """p <= q iff p lies in every open containing q."""
    minimal = minimal_opens(space)
    return lambda p, q: p in minimal[q]


def chain_counts(elements: list, leq, top: int) -> list[dict]:
    """counts[k][x]: weakly increasing chains x = x0 <= x1 <= ... <= xk."""
    counts = [{x: 1 for x in elements}]
    for _ in range(top):
        prev = counts[-1]
        counts.append({x: sum(prev[y] for y in elements if leq(x, y)) for x in elements})
    return counts


def bar_counts(space: dict, dim_cap: int) -> list[int]:
    """|Re_k| of the order-complex functor against the terminal presheaf:
    the sum over k-chains of opens x0 <= ... <= xk of |N(x0)_k|, where N(x0)
    is the nerve of the specialization order on the points of x0."""
    opens = [frozenset(o) for o in space["opens"]]
    leq = specialization_leq(space)
    open_chains = chain_counts(opens, lambda a, b: a <= b, dim_cap)
    totals = []
    for k in range(dim_cap + 1):
        total = 0
        for x0 in opens:
            nerve_k = chain_counts(sorted(x0), leq, k)[k]
            total += sum(nerve_k.values()) * open_chains[k][x0]
        totals.append(total)
    return totals


def _group(g: dict, degree: int, betti: int) -> bool:
    return g == {"degree": degree, "betti": betti, "torsion": []}


def _contractible(groups: list, max_deg: int) -> bool:
    """H0 = Z and every higher group 0: the interval cover is contractible."""
    return len(groups) == max_deg + 1 and all(
        _group(g, k, 1 if k == 0 else 0) for k, g in enumerate(groups)
    )


def check_realize(out: dict, facts: dict) -> list[str]:
    problems = []
    cap, max_deg = out.get("dim_cap"), out.get("max_deg")
    if out.get("pi0") != 1:
        problems.append(f"pi0 is {out.get('pi0')}, expected 1")
    if not _contractible(out.get("homology", []), max_deg):
        problems.append(f"homology {out.get('homology')} is not that of a point")
    want = bar_counts(facts["space"], cap)
    if out.get("counts") != want:
        problems.append(f"level sizes {out.get('counts')}, hom-count formula gives {want}")
    table = out.get("realization", {})
    listed = [len(table.get("simplices", {}).get(str(k), [])) for k in range(cap + 1)]
    if listed != want:
        problems.append(f"realization table lists {listed} simplices, expected {want}")
    if len(table.get("annotations", {})) != sum(want):
        problems.append("realization annotations do not cover every simplex")
    return problems


def check_compare(out: dict, facts: dict) -> list[str]:
    problems = []
    if out.get("pi0") != {"source": 1, "target": 1}:
        problems.append(f"pi0 {out.get('pi0')}, expected 1 vs 1")
    if not out.get("pi0_certificate", {}).get("ok"):
        problems.append("pi0 certificate failed")
    degrees = out.get("degrees", [])
    if len(degrees) != out.get("max_deg", -1) + 1:
        problems.append("wrong number of compared degrees")
    for k, d in enumerate(degrees):
        betti = 1 if k == 0 else 0
        if not (_group(d["source"], k, betti) and _group(d["target"], k, betti)):
            problems.append(f"H{k}: {d['source']} -> {d['target']}, expected betti {betti}")
        if d["matrix"] != [[1]] * betti or not d["identity"]:
            problems.append(f"H{k}: induced map {d['matrix']} is not the identity")
    if not out.get("verdict", {}).get("ok"):
        problems.append("verdict is not ok")
    return problems


CHECKS = {"realize": check_realize, "compare": check_compare}


def check_output(out: dict, facts: dict) -> list[str]:
    """Every way the output disagrees with the known answers; empty when right."""
    check = CHECKS.get(out.get("command"))
    if check is None:
        return [f"unexpected command {out.get('command')!r} in output"]
    try:
        return check(out, facts)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"output is missing a field: {exc!r}"]
