"""Two-sided bar realization of a covariant diagram against a presheaf.

A level-k simplex is a composable k-chain in the base category together with
a k-simplex of F at the chain's start and a k-simplex of G at its end.  Inner
faces compose adjacent chain morphisms; the outer faces drop an endpoint,
pushing the F part forward along the first morphism (d_0) or pulling the G
part back along the last (d_k); every face and degeneracy also acts on both
simplex parts.  This is the diagonal of the evident bisimplicial set, so the
simplicial identities hold whenever F and G are functorial; validate_sset
confirms it on any concrete instance.

Everything but the tables is kept by position.  A level is a _BarLevel over
a chain level of catsite.chains: ckey orders a bar simplex by its parts in
turn, so canonical level k is the concatenation, over the k-chains in order,
of the product blocks F(x_0)_k x G(x_k)_k, and (chain c, a-th F simplex, b-th
G simplex) sits at c's block start + a * |G(x_k)_k| + b.  One column rule
(_column) places every block: an operator or a map sends c to a chain t and
(c, a, b) to t's start + fcol[a] * t's width + gcol[b]; a map of
realizations (the tests' _block_map) reads t from a map of chain tables.
write_realization streams the canonical JSON in bounded pieces of simplices.

When G is a set presheaf on a space's opens and F is the point or the order
complex, homology needs no bar realization: Re(F, G) is equivalent to the
nerve of one finite poset, the elements (U, s, W) (Thomason), and so to the
order complex of its Stong core.  core_homology takes homology and pi0 from
there, core_chain_map gives the map a presheaf map induces on the cores, and
check_core re-checks the core by second routes.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, product
from operator import mul
from typing import Any, Callable, Iterator, Sequence

from finsite.canon import cstr
from finsite.catsite import (
    FinCat,
    FiniteSpace,
    Sieve,
    Site,
    chains,
    full_subcategory,
    nerve,
    open_id,
    poset_category,
)
from finsite.homology import (
    ChainComplex,
    HomologyGroup,
    IntMatrix,
    Sparse,
    complex_homology,
    component_count,
    summands_json,
    sset_homology,
)
from finsite.presheaf import (
    Functor,
    SetFunctor,
    _same,
    discretize,
    reindex,
    sieve_presheaf,
)
from finsite.reports import InputError, InternalCheckError
from finsite.sset import (
    Level, SimplicialMap, SimplicialSet, _write_pieces, components, json_layout, pi0, write_tables
)

ObjId = Any
MorId = Any


class _BarLevel(Level):
    """Level k of a bar realization: the k-chains of catsite.chains, each
    chain's block start and width |G(x_k)_k| (starts ends with the level's
    size), and each object's level k of F and of G."""

    __slots__ = ("chains", "starts", "widths", "fk", "gk")

    def __init__(self, chains: Level, starts: array, widths: array, fk: dict, gk: dict):
        self.chains, self.starts, self.widths, self.fk, self.gk = chains, starts, widths, fk, gk

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, p: int) -> tuple:
        starts = self.starts
        if p < 0:
            p += starts[-1]
        if not 0 <= p < starts[-1]:
            raise IndexError("bar level index out of range")
        c = bisect_right(starts, p) - 1
        a, b = divmod(p - starts[c], self.widths[c])
        x0, ms, xk = self.chains[c]
        return x0, ms, self.fk[x0][a], self.gk[xk][b]

    def __iter__(self) -> Iterator[tuple]:
        fk, gk = self.fk, self.gk
        return ((x0, ms, a, b) for x0, ms, xk in self.chains for a in fk[x0] for b in gk[xk])


def _layout(ch: SimplicialSet, f: Functor, g: Functor) -> tuple[_BarLevel, ...]:
    """Per level k, the bar level of f against g over ch's k-chains."""
    out = []
    for k, level in enumerate(ch.levels):
        fk = {x: v.levels[k] for x, v in f.values.items()}
        gk = {x: v.levels[k] for x, v in g.values.items()}
        fn, gn = [len(fk[x]) for x in level.objects], [len(gk[x]) for x in level.objects]
        widths = array("i", map(gn.__getitem__, level.end))
        starts = array("i", accumulate(map(mul, map(fn.__getitem__, level.start), widths), initial=0))
        out.append(_BarLevel(level, starts, widths, fk, gk))
    return tuple(out)


# the most entries one part of a column holds as int objects, unless one block has more
_PART = 4096


def _column(there: _BarLevel, to: Sequence[int], fcols: Sequence, gcols: Sequence) -> array:
    """Where one operator or one map sends a whole level, an array("i") of
    exactly the level's length: chain c with its a-th F and b-th G simplex
    goes to starts[t] + fcols[c][a] * widths[t] + gcols[c][b], t = to[c], in
    the bar level there.  It is filled a run of whole blocks of at most _PART
    entries at a time, or one block alone when it has more."""
    starts, widths = there.starts, there.widths
    ends = list(accumulate(map(mul, map(len, fcols), map(len, gcols)), initial=0))
    out, c = array("i", [0]) * ends[-1], 0
    blocks = zip(map(starts.__getitem__, to), map(widths.__getitem__, to), fcols, gcols)
    while c < len(to):
        d = max(bisect_right(ends, ends[c] + _PART) - 1, c + 1)
        part = [s + a * w + b for s, w, fs, gs in islice(blocks, d - c) for a, b in product(fs, gs)]
        out[ends[c] : ends[d]] = array("i", part)
        c = d
    return out


def realize(cat: FinCat, f: Functor, g: Functor, dim_cap: int) -> SimplicialSet:
    """Bar realization of the covariant f against the contravariant g,
    truncated at dim_cap.

    Levels above dim_cap are cut off, so homology is trusted only in degrees
    up to dim_cap - 1.  f and g must be based on cat with caps >= dim_cap.
    """
    if not f.covariant or g.covariant:
        raise InputError("realize needs a covariant f and a contravariant g")
    if not _same(f.category, cat) or not _same(g.category, cat):
        raise InputError("diagram and presheaf must live on the given category")
    if f.dim_cap < dim_cap or g.dim_cap < dim_cap:
        raise InputError("value caps must be at least the realization cap")
    if dim_cap < 0:
        raise InputError("dim_cap must be nonnegative")
    ch = chains(cat, dim_cap)
    levels = _layout(ch, f, g)
    # F's and G's values by object index, their actions by morphism index
    fv, gv = [f.values[x] for x in cat.objects], [g.values[x] for x in cat.objects]
    fa, ga = [f.action[m] for m in cat.morphisms], [g.action[m] for m in cat.morphisms]
    faces, degeneracies = [()], []
    for k, level in enumerate(ch.levels):
        # each chain's F value at its start and G value at its end
        fs, gs = [*map(fv.__getitem__, level.start)], [*map(gv.__getitem__, level.end)]
        moves = []
        if k:
            low = k - 1
            # d_0 pushes F's column along the first morphism, d_k pulls G's back
            push = [[a.images[low][q] for q in a.source._faces[k][0]] for a in fa]
            pull = [[a.images[low][q] for q in a.source._faces[k][k]] for a in ga]
            fcols = ([v._faces[k][i] for v in fs] for i in range(1, k + 1))
            gcols = ([v._faces[k][i] for v in gs] for i in range(k))
            fcols = chain([[*map(push.__getitem__, level.first)]], fcols)
            gcols = chain(gcols, [[*map(pull.__getitem__, level.last)]])
            moves.append((faces, levels[low], ch._faces[k], fcols, gcols))
        if k < dim_cap:
            fcols = ([v._degeneracies[k][i] for v in fs] for i in range(k + 1))
            gcols = ([v._degeneracies[k][i] for v in gs] for i in range(k + 1))
            moves.append((degeneracies, levels[k + 1], ch._degeneracies[k], fcols, gcols))
        for tables, there, to, fcols, gcols in moves:
            tables.append(tuple(_column(there, *col) for col in zip(to, fcols, gcols)))
    return SimplicialSet(dim_cap, levels, tuple(faces), tuple(degeneracies))


class _Leaves(dict):
    """identifier -> its JSON string, rendered on first use: bar simplices
    share their objects, morphisms and value simplices."""

    def __missing__(self, x: Any) -> str:
        text = self[x] = json.dumps(cstr(x), ensure_ascii=False)
        return text


def write_realization(s: SimplicialSet, write: Callable[[str], Any]) -> None:
    """Writes the canonical JSON of a realization that realize built, as
    cjson renders it without the final newline: the tables of
    sset.write_tables and, under "annotations", the start object, chain, F
    part and G part of each simplex by name.

    Each level goes out in sorted-key order, in pieces of sset._PIECE
    simplices read off the level by position.  String order visits a block
    in runs of positions, and only the chain in hand is kept rendered: its
    parent's rendered morphism list, held for the whole level below, and
    its last morphism.
    """
    orders = json_layout(s)
    leaf = _Leaves()

    def entries() -> Iterator[str]:
        # each morphism rendered with a comma after it
        steps = [f"{leaf[m]}," for m in s.levels[0].chains.mids]
        # "10_0" sorts before "1_0": levels go in the order of their name prefix
        for k in sorted(range(len(s.levels)), key=lambda k: f"{k}_"):
            level, key = s.levels[k], f'"{k}_'
            starts, widths, ch = list(level.starts), level.widths, level.chains
            # each (k-1)-chain's morphisms so rendered
            below = [""] * len(s.levels[0].chains)
            for j in range(1, k):
                below = s.levels[j].chains.extend(below, steps)
            # each object's value simplices by name, in their order
            fk = {x: [*map(leaf.__getitem__, zs)] for x, zs in level.fk.items()}
            gk = {x: [*map(leaf.__getitem__, zs)] for x, zs in level.gk.items()}
            start = stop = 0
            for p in orders[k]:
                if not start <= p < stop:
                    # the order left the chain in hand: render the one holding p
                    c = bisect_right(starts, p) - 1
                    start, stop, width = starts[c], starts[c + 1], widths[c]
                    x0, xk = ch.objects[ch.start[c]], ch.objects[ch.end[c]]
                    mors = f"{below[ch.parent[c]]}{leaf[ch.mids[ch.last[c]]]}" if k else ""
                    head, tail = f'":{{"chain":[{mors}],"f":', f',"object":{leaf[x0]}}}'
                    fs, gs = fk[x0], gk[xk]
                a, b = divmod(p - start, width)
                yield f'{key}{p}{head}{fs[a]},"g":{gs[b]}{tail}'

    write('{"annotations":{')
    _write_pieces(write, entries())
    write("},")
    write_tables(s, orders, write)
    write("}")


# -- the order-complex functor of a finite space ---------------------------------


def order_complex_functor(space: FiniteSpace, dim_cap: int, site: Site) -> Functor:
    """Covariant diagram on the open-set site of the space.

    The value at an open U is the nerve of the specialization order on the
    points of U (p <= q iff p lies in every open containing q); inclusions of
    opens act as the induced nerve inclusions.  All are read off the nerve of
    the whole space: an open holds every point below one of its own, so the
    chains of U are those whose last point lies in U, in the whole nerve's
    order, and tables and inclusions are computed by position.
    """
    cat = site.category
    pc = poset_category(space.points, space.specialization_leq)
    whole = nerve(pc, dim_cap)
    # each simplex's last point: the vertex x of ("o", x), or the last morphism's end
    tops = [[z[-1] if not k else pc.tgt(z[-1]) for z in level] for k, level in enumerate(whole.levels)]
    opens = {open_id(o): o.__contains__ for o in space.opens}
    kept = {u: [array("i", compress(range(len(t)), map(has, t))) for t in tops] for u, has in opens.items()}
    values, images = {}, {}

    def gather(to: array, cols: tuple, ps: array) -> tuple[array, ...]:
        return tuple(array("i", map(to.__getitem__, map(col.__getitem__, ps))) for col in cols)

    for u in cat.objects:
        at, ps = [array("i", accumulate(map(opens[u], t), initial=0)) for t in tops], kept[u]
        levels = tuple(tuple(map(level.__getitem__, p)) for level, p in zip(whole.levels, ps))
        faces = tuple(gather(at[k - 1], whole._faces[k], ps[k]) for k in range(dim_cap + 1))
        degeneracies = tuple(gather(at[k + 1], whole._degeneracies[k], ps[k]) for k in range(dim_cap))
        values[u] = SimplicialSet(dim_cap, levels, faces, degeneracies)
        for m in cat.hom_into(u):
            images[m] = tuple(array("i", map(a.__getitem__, p)) for a, p in zip(at, kept[cat.src(m)]))
    action = {m: SimplicialMap(values[cat.src(m)], values[cat.tgt(m)], images[m]) for m in cat.morphisms}
    return Functor(cat, dim_cap, values, action, covariant=True)


# -- covariant descent ------------------------------------------------------------


class DescentReport:
    """Per-instance descent certificate: the realization Re(F, S) of a
    covering sieve S on x, against the plain value F(x), compared on pi0 and
    homology up to max_deg."""

    __slots__ = ("ok", "obj", "sieve_key", "max_deg", "pi0_realization", "pi0_value", "degrees")

    def __init__(
        self,
        ok: bool,
        obj: ObjId,
        sieve_key: tuple,
        max_deg: int,
        pi0_realization: int,
        pi0_value: int,
        degrees: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...],
    ):
        self.ok, self.obj, self.sieve_key, self.max_deg = ok, obj, sieve_key, max_deg
        self.pi0_realization, self.pi0_value, self.degrees = pi0_realization, pi0_value, degrees

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "object": cstr(self.obj),
            "sieve": [cstr(m) for m in self.sieve_key],
            "max_deg": self.max_deg,
            "pi0": {
                "realization": self.pi0_realization,
                "value": self.pi0_value,
                "equal": self.pi0_realization == self.pi0_value,
            },
            "degrees": [
                {
                    "degree": k,
                    "realization": summands_json(re_s),
                    "value": summands_json(val_s),
                    "equal": re_s == val_s,
                }
                for k, re_s, val_s in self.degrees
            ],
        }


def covariant_descent_check(
    site: Site, f: Functor, x: ObjId, s: Sieve, max_deg: int
) -> DescentReport:
    """Compares Re(f, S), S the sieve as a subpresheaf of hom(-, x), with
    f(x) on pi0 and homology in degrees 0..max_deg.  Re is taken over the
    full subcategory on the objects S reaches: a chain ending at y with S(y)
    nonempty has S nonempty at each of its objects, so it holds every block.

    A passing report certifies this one instance only; it is not a proof
    about other sieves or degrees beyond max_deg.
    """
    cat = site.category
    if not _same(f.category, cat):
        raise InputError("diagram must live on the site's category")
    if s.base != x:
        raise InputError("sieve is not based at the named object")
    if not site.is_covering(s):
        raise InputError("descent check requires a covering sieve")
    if max_deg < 0:
        raise InputError("max_deg must be nonnegative")
    if max_deg + 1 > f.dim_cap:
        raise InputError("max_deg needs one more level than the diagram cap")
    cap = max_deg + 1
    sieve = sieve_presheaf(cat, s)
    reached = full_subcategory(cat, [y for y in cat.objects if sieve.values[y]])
    re = realize(reached.category, reindex(f, reached), discretize(reindex(sieve, reached), cap), cap)
    h_re, h_val = sset_homology(re, max_deg), sset_homology(f.values[x], max_deg)
    degrees = tuple(
        (k, h_re.group(k).summands, h_val.group(k).summands) for k in range(max_deg + 1)
    )
    n_re = component_count(len(pi0(re)), h_re.group(0))
    n_val = component_count(len(pi0(f.values[x])), h_val.group(0))
    ok = n_re == n_val and all(a == b for _, a, b in degrees)
    return DescentReport(ok, x, s.key(), max_deg, n_re, n_val, degrees)


# -- homology from the core of one finite poset -------------------------------------


class ElementPoset:
    """The Grothendieck construction of P over the elements of a set presheaf
    G on a space's opens, by position: x is (U, s, W), s in G(U) and W in
    P(U), which is U alone for the point and, for the order complex, the
    minimal opens inside U, U's points up to specialization equivalence.
    (V, t, W') <= (U, s, W) iff V is inside U, s restricts to t and W' is
    inside W; below[x] and above[x] are bitmasks of the y <= x and y >= x."""

    __slots__ = ("elements", "below", "above")

    def __init__(self, elements: tuple[tuple, ...], below: list[int], above: list[int]):
        self.elements, self.below, self.above = elements, below, above


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def element_poset(space: FiniteSpace, cat: FinCat, g: SetFunctor, point: bool) -> ElementPoset:
    by_id, basic = {open_id(o): o for o in space.opens}, {space.minimal_open(q) for q in space.points}
    parts = {u: [o] if point else [w for w in space.opens if w in basic and w <= o] for u, o in by_id.items()}
    elements = [(u, s, w) for u in cat.objects for s in g.values[u] for w in parts[u]]
    at = {e: x for x, e in enumerate(elements)}
    below, above = [], [0] * len(elements)
    for x, (u, s, w) in enumerate(elements):
        below.append(sum(1 << at[cat.src(m), g.action[m][s], v]
                         for m in cat.hom_into(u) for v in parts[cat.src(m)] if v <= w))
        for y in _bits(below[x]):
            above[y] |= 1 << x
    return ElementPoset(tuple(elements), below, above)


class Core:
    """The Stong core: the points left once beat points are removed one at a
    time, each removal (x, w) with w the maximum of x's strict down-set or the
    minimum of its strict up-set among the points left then, and the
    retraction r onto the points, r(x) = r(w) for each removal."""

    __slots__ = ("poset", "points", "removals", "retraction")

    def __init__(
        self,
        poset: ElementPoset,
        points: tuple[int, ...],
        removals: tuple[tuple[int, int], ...],
        retraction: tuple[int, ...],
    ):
        self.poset, self.points, self.removals, self.retraction = poset, points, removals, retraction


def stong_core(p: ElementPoset) -> Core:
    """Removes beat points in position order, pass after pass, until none is
    left; each removal is a strong deformation retraction (Stong)."""
    alive, removals, found = (1 << len(p.elements)) - 1, [], True
    while found:
        found = False
        for x in _bits(alive):
            for rel in (p.below, p.above):
                rest = rel[x] & alive & ~(1 << x)
                # a maximum (minimum) has the most elements below (above) it
                w = max(_bits(rest), key=lambda y: (rel[y] & alive).bit_count(), default=None)
                if w is not None and not rest & ~rel[w]:
                    alive, found = alive ^ 1 << x, True
                    removals.append((x, w))
                    break
    r = list(range(len(p.elements)))
    for x, w in reversed(removals):
        r[x] = r[w]
    return Core(p, tuple(_bits(alive)), tuple(removals), tuple(r))


def core_complex(core: Core, top: int) -> ChainComplex:
    """The strict chains x0 < ... < xk of the core through degree top, each
    level in lexicographic order, face i dropping x_i with sign (-1)^i."""
    above = core.poset.above
    up = {x: [y for y in core.points if y != x and above[x] >> y & 1] for x in core.points}
    levels = [[(x,) for x in core.points]]
    for _ in range(top):
        levels.append([c + (y,) for c in levels[-1] for y in up[c[-1]]])
    boundary = [IntMatrix(0, len(levels[0]))]
    for low, level in zip(levels, levels[1:]):
        row = {c: i for i, c in enumerate(low)}
        lines: Sparse = [{} for _ in low]
        for j, c in enumerate(level):
            for i in range(len(c)):
                lines[row[c[:i] + c[i + 1:]]][j] = -1 if i & 1 else 1
        boundary.append(IntMatrix(len(low), len(level), lines))
    return ChainComplex(tuple(map(tuple, levels)), tuple(boundary))


def check_core(core: Core, cx: ChainComplex) -> None:
    """The second routes of the core, each an InternalCheckError: every
    removal's witness, replayed; r fixes the core, lands in it and keeps the
    order; and the Euler characteristic of the whole poset, the sum of
    e(x) = 1 - (the sum of e(y) over y > x) off the up-sets, is the core's
    alternating count of strict chains off the down-sets, the counts cx lists."""
    p, n, r = core.poset, len(core.poset.elements), core.retraction
    alive = (1 << n) - 1
    for x, w in core.removals:
        rest = alive & ~(1 << x)
        if not (alive >> x & 1 and rest >> w & 1) or not any(
            rel[x] >> w & 1 and not rel[x] & rest & ~rel[w] for rel in (p.below, p.above)
        ):
            raise InternalCheckError(f"element {w} is no beat-point witness for element {x}")
        alive = rest
    if core.points != tuple(_bits(alive)) or any(r[x] != x for x in core.points) or any(
        not alive >> y & 1 for y in r
    ):
        raise InternalCheckError("the retraction does not fix the core and land in it")
    if any(not p.above[r[x]] >> r[y] & 1 for x in range(n) for y in _bits(p.above[x])):
        raise InternalCheckError("the retraction does not preserve the order")
    e = [0] * n
    for x in sorted(range(n), key=lambda x: p.above[x].bit_count()):
        e[x] = 1 - sum(e[y] for y in _bits(p.above[x] & ~(1 << x)))
    # chains[x][k]: the strict chains of k + 1 core points that end at x
    chains_at, counts = {}, [0] * max(len(core.points), len(cx.basis))
    for x in sorted(core.points, key=lambda x: p.below[x].bit_count()):
        row = chains_at[x] = [0] * len(counts)
        row[0] = 1
        for y in _bits(p.below[x] & alive & ~(1 << x)):
            row[1:] = map(sum, zip(row[1:], chains_at[y]))
        counts = list(map(sum, zip(counts, row)))
    if [len(b) for b in cx.basis] != counts[: len(cx.basis)]:
        raise InternalCheckError("the core complex does not list every strict chain")
    if sum(e) != sum(-c if k & 1 else c for k, c in enumerate(counts)):
        raise InternalCheckError("the core and the whole poset differ in Euler characteristic")


def poset_pi0(p: ElementPoset) -> int:
    """The components of the whole poset, by union-find over comparable pairs."""
    return len(components(len(p.elements), ((x, y) for x, m in enumerate(p.below) for y in _bits(m))))


class CoreHomology:
    """Re(F, G)'s homology through max_deg from the core, and pi0 of the whole poset."""

    __slots__ = ("core", "complex", "groups", "pi0")

    def __init__(self, core: Core, complex: ChainComplex, groups: tuple[HomologyGroup, ...], pi0: int):
        self.core, self.complex, self.groups, self.pi0 = core, complex, groups, pi0


def core_homology(space: FiniteSpace, cat: FinCat, g: SetFunctor, point: bool, max_deg: int) -> CoreHomology:
    """H_0..H_max_deg and pi0 of Re(F, G), F the point or the order complex
    and G a set presheaf: Re is equivalent to the nerve of the element poset
    (Thomason), and so to that of its core (Stong).  check_core, and pi0 of
    the whole poset against betti_0 of the core, are the second routes."""
    p = element_poset(space, cat, g, point)
    core = stong_core(p)
    cx = core_complex(core, max_deg + 1)
    check_core(core, cx)
    groups = complex_homology(cx, max_deg)
    return CoreHomology(core, cx, groups, component_count(poset_pi0(p), groups[0]))


def core_chain_map(src: CoreHomology, tgt: CoreHomology, components: dict, k: int) -> Sparse:
    """Sparse rows, one per strict k-chain of tgt's core, of the chain map of
    r'.f.i, f(U, s, W) = (U, m_U(s), W) for m a map of set presheaves by its
    components, i including src's core and r' retracting onto tgt's; a chain
    whose image repeats an element goes to 0."""
    at, r = {e: x for x, e in enumerate(tgt.core.poset.elements)}, tgt.core.retraction
    elements = src.core.poset.elements
    image = {x: r[at[u, components[u][s], w]] for x in src.core.points for u, s, w in [elements[x]]}
    row = {c: i for i, c in enumerate(tgt.complex.basis[k])}
    out: Sparse = [{} for _ in row]
    for j, c in enumerate(src.complex.basis[k]):
        fc = tuple(map(image.__getitem__, c))
        if fc in row:
            out[row[fc]][j] = 1
        elif len(set(fc)) == len(fc):
            raise InternalCheckError("the core map sends a strict chain to no chain")
    return out
