"""Canonical ordering and serialization helpers.

Identifiers in this package are strings at the boundary but may be nested
tuples internally (constructed simplices, chains, slice objects).  ckey gives
a single total order covering both so every collection can be sorted the same
way everywhere; cstr renders an identifier deterministically for output.
"""

from __future__ import annotations

import json
from typing import Any, Callable


def ckey(x: Any) -> tuple:
    """Total-order sort key for str | int | bool | None | nested tuples."""
    if isinstance(x, tuple):
        return (3, tuple(ckey(e) for e in x))
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, int):
        return (1, x)
    if x is None:
        return (0, 0)
    raise TypeError(f"unorderable identifier: {x!r}")


def csorted(xs) -> list:
    """xs sorted by ckey, the one order every collection is kept in."""
    return sorted(xs, key=ckey)


def cstr(x: Any) -> str:
    """Deterministic readable rendering of a possibly-nested identifier."""
    if isinstance(x, tuple):
        return "(" + ",".join(cstr(e) for e in x) + ")"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def cjson(data: Any) -> str:
    """Canonical JSON text: sorted keys, tight separators, trailing newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def write_cjson(write: Callable[[str], Any], data: dict) -> None:
    """Writes cjson(data) piece by piece.  A callable value is a writer: it is
    called with write and must write its own canonical JSON in its key's
    place; every other value is rendered by cjson."""
    write("{")
    for n, key in enumerate(sorted(data)):
        value, sep = data[key], "," if n else ""
        if callable(value):
            write(sep + json.dumps(key, ensure_ascii=False) + ":")
            value(write)
        else:
            write(sep + cjson({key: value})[1:-2])
    write("}\n")
