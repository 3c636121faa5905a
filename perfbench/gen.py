"""Seeded input generator for the benchmark workloads.

Every workload runs on the interval cover, whose points, and the values of
any presheaf a job names, are renamed by a bijection drawn from the seed.  The
program therefore only ever sees generated files, and one seed always gives
byte-identical files.

The bijection keeps the sort order of the names.  The program visits
objects, sections and pivots in canonical (sorted) order, and its run time
depends on that order: saturating a six-point site took 30% longer under
some shuffled namings than others.  Keeping the order makes every seed do the
same work, so seeds vary the names and bytes but not the cost.
"""

from __future__ import annotations

import json
import random
import subprocess
from pathlib import Path

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def dump(data) -> str:
    """Canonical JSON text, so equal data always gives equal bytes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def fresh_names(rng: random.Random, old: list[str]) -> dict[str, str]:
    """Seed-chosen distinct three-letter names for old, in the same order.

    All old names have one length and all new ones another, so the sort
    order of joined identifiers such as "{a,b}" is kept as well.
    """
    if len({len(name) for name in old}) > 1:
        raise ValueError("names to replace must share one length to keep their order")
    new: set[str] = set()
    while len(new) < len(old):
        new.add("".join(rng.choice(_LETTERS) for _ in range(3)))
    return dict(zip(sorted(old), sorted(new)))


def relabel_space(space: dict, mapping: dict[str, str]) -> dict:
    points = sorted(mapping[p] for p in space["points"])
    opens = sorted(sorted(mapping[p] for p in o) for o in space["opens"])
    return {"points": points, "opens": opens}


def open_id(points) -> str:
    return "{" + ",".join(sorted(points)) + "}"


def collapse_presheaf(space: dict, top_values: list[str], other: str) -> dict:
    """Two values at the whole space, one value elsewhere; every restriction
    into a smaller open collapses to that one value."""
    opens = [frozenset(o) for o in space["opens"]]
    top = frozenset(space["points"])
    values = {open_id(o): ([*top_values] if o == top else [other]) for o in opens}
    actions = {}
    for a in opens:
        for b in opens:
            if a < b:
                act = {v: other for v in top_values} if b == top else {other: other}
                actions[f"{open_id(a)}<={open_id(b)}"] = act
    return {"values": values, "actions": actions}


def interval_cover(python: str, env: dict, workdir: Path) -> dict:
    """The gallery interval cover, as the program itself writes it."""
    raw = workdir / "raw"
    subprocess.run(
        [python, "-m", "finsite.cli", "examples", "interval_cover", "--dir", str(raw)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads((raw / "interval_cover.space.json").read_text())


def make_inputs(workload: str, seed: int, base: dict, workdir: Path) -> tuple[list[str], dict]:
    """Write the workload's input files for a renaming of the space base;
    return the CLI arguments of one job (without --out) and the facts the
    output check needs."""
    rng = random.Random(f"{workload}:{seed}")
    space = relabel_space(base, fresh_names(rng, base["points"]))
    space_file = workdir / "space.json"
    space_file.write_text(dump(space))
    facts: dict = {"space": space}
    if workload == "realize-render":
        args = ["realize", "--space", str(space_file), "--dim-cap", "5", "--max-deg", "0"]
    elif workload == "compare-maps":
        v = fresh_names(rng, ["0", "1", "s"])
        presheaf_file = workdir / "collapse.presheaf.json"
        presheaf_file.write_text(dump(collapse_presheaf(space, [v["0"], v["1"]], v["s"])))
        args = ["compare", "--space", str(space_file), "--presheaf", str(presheaf_file),
                "--dim-cap", "2"]
    else:
        raise ValueError(f"unknown workload {workload}")
    return [*args, "--format", "json"], facts
