"""Integer homology of chain complexes via Smith normal form.

A complex is that of a truncated simplicial set, whose chains live on
nondegenerate simplices with faces pushed to zero when they degenerate, or
any other ChainComplex, such as the strict chains of a finite poset.  All
arithmetic is exact over Python ints.  A dimension cap of D supports trusted
homology in degrees up to D - 1 only, because H_k needs the boundary out of
level k + 1.  complex_homology walks up the degrees once and takes one normal
form per degree: degree k takes that of M_k, the boundary out of level k + 1
written in its cycle coordinates, and M_k has the kernel of that boundary, so
its normal form gives degree k + 1 its cycles.
"""

from __future__ import annotations

from finsite.reports import InputError, InternalCheckError
from finsite.sset import SimplicialSet

# Gates nothing: every normal form is verified at every size.  It stays only
# because the benchmark's tracer reads it to count verified normal forms.
_VERIFY_SIZE = float("inf")

# A matrix held as one {index: nonzero value} dict per row, or per column;
# every place that stores one says which.
Sparse = list[dict[int, int]]


class IntMatrix:
    """Integer matrix, rows x cols, held sparse only: sparse holds one
    {column: nonzero} dict per row, and no dense copy is kept.

    A column out of range or an explicit zero entry is refused, so two
    matrices are equal exactly when their sparse rows are.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, sparse: Sparse | None = None):
        if sparse is None:
            sparse = [{} for _ in range(rows)]
        elif len(sparse) != rows or any(
            not (v and 0 <= j < cols) for line in sparse for j, v in line.items()
        ):
            raise InputError(f"sparse rows are not {rows}x{cols} with nonzero entries")
        self.rows = rows
        self.cols = cols
        self.sparse = sparse

    @property
    def data(self) -> list[list[int]]:
        """Each row's nonzero values."""
        # Only the benchmark's tracer (perfbench/tracing.py) reads this, to
        # count nonzeros; nothing in the package does.
        return [list(line.values()) for line in self.sparse]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse == other.sparse
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


# -- sparse arithmetic -----------------------------------------------------------


def _identity(n: int) -> Sparse:
    return [{i: 1} for i in range(n)]


def _transpose(lines: Sparse, n: int) -> Sparse:
    """Rows of a matrix from its columns, or columns from its rows; n is the
    length of each line."""
    out: Sparse = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, v in line.items():
            out[j][i] = v
    return out


def _axpy(x: dict[int, int], y: dict[int, int], t: int) -> None:
    """x += t * y in place, for t != 0, dropping entries that cancel."""
    for k, v in y.items():
        w = x.get(k, 0) + t * v
        if w:
            x[k] = w
        else:
            del x[k]


def _mul(a_rows: Sparse, b_rows: Sparse) -> Sparse:
    """Rows of A*B from the rows of A and of B."""
    out = []
    for row in a_rows:
        acc: dict[int, int] = {}
        for k, v in row.items():
            _axpy(acc, b_rows[k], v)
        out.append(acc)
    return out


def _apply(rows: Sparse, vec) -> tuple[int, ...]:
    return tuple(sum(v * vec[j] for j, v in row.items()) for row in rows)


# -- Smith normal form -----------------------------------------------------------


class SNFResult:
    """U @ A @ V == D with U, V unimodular; diag holds the full diagonal of D.

    Row operations update the pair (U, Uinv) and column operations the pair
    (V, Vinv), each transform kept as the lines its operations touch: U and
    Vinv as sparse rows, V and Uinv as sparse columns.
    """

    __slots__ = ("diag", "rank", "U", "V", "Uinv", "Vinv")

    def __init__(self, diag: tuple[int, ...], rank: int, U: Sparse, V: Sparse, Uinv: Sparse, Vinv: Sparse):
        self.diag, self.rank, self.U, self.V, self.Uinv, self.Vinv = diag, rank, U, V, Uinv, Vinv


class _Side:
    """The working matrix seen along one orientation, rows or columns.

    lines are its rows (or columns) and cross the same entries along the other
    orientation; cross is the other side's lines.  T and Tinv are the
    transform pair that operations on these lines update: U and Uinv for rows,
    V and Vinv for columns.  T[i] follows line i, and Tinv[i] follows it
    inversely.
    """

    __slots__ = ("lines", "cross", "T", "Tinv")

    def __init__(self, lines: Sparse, cross: Sparse):
        self.lines = lines
        self.cross = cross
        self.T = _identity(len(lines))
        self.Tinv = _identity(len(lines))

    def swap(self, i: int, j: int) -> None:
        li, lj = self.lines[i], self.lines[j]
        for k in li.keys() | lj.keys():
            c = self.cross[k]
            vi, vj = c.pop(i, 0), c.pop(j, 0)
            if vi:
                c[j] = vi
            if vj:
                c[i] = vj
        self.lines[i], self.lines[j] = lj, li
        for m in (self.T, self.Tinv):
            m[i], m[j] = m[j], m[i]

    def add(self, i: int, j: int, t: int) -> None:
        """line_i += t * line_j"""
        li = self.lines[i]
        for k, v in self.lines[j].items():
            w = li.get(k, 0) + t * v
            if w:
                li[k] = self.cross[k][i] = w
            else:
                del li[k], self.cross[k][i]
        _axpy(self.T[i], self.T[j], t)
        _axpy(self.Tinv[j], self.Tinv[i], -t)

    def neg(self, i: int) -> None:
        for k, v in self.lines[i].items():
            self.cross[k][i] = -v
        for m in (self.lines, self.T, self.Tinv):
            m[i] = {k: -v for k, v in m[i].items()}

    def clear(self, t: int, piv: int) -> bool:
        """Reduce the entry at t of every other line by the pivot line, in
        index order; on the first remainder, swap that line into place t and
        return True."""
        for i in sorted(self.cross[t].keys() - {t}):
            q = self.lines[i][t] // piv
            if q:
                self.add(i, t, -q)
            if t in self.lines[i]:
                self.swap(t, i)
                return True
        return False


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Normal form by pivoting on the smallest (|v|, row, column) entry left.

    The working matrix is held twice, as sparse rows and as sparse columns,
    one _Side each; a column operation is the row operation of the column
    side, and every step touches nonzeros only.
    """
    rows, cols = a.rows, a.cols
    d = [dict(line) for line in a.sparse]
    R = _Side(d, _transpose(d, cols))
    C = _Side(R.cross, d)
    # Rows and columns before t hold only their diagonal entry, so every entry
    # of rows t.. lies in columns t.., and column t has no entry above row t.
    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            if d[i]:
                v, j = min((abs(v), j) for j, v in d[i].items())
                if best is None or v < best[0]:
                    best = (v, i, j)
                if v == 1:
                    break  # a later row cannot beat a unit in this one
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            R.swap(t, bi)
        if bj != t:
            C.swap(t, bj)
        while True:
            # row operations leave row t, and so the pivot, as it is
            piv = d[t][t]
            if R.clear(t, piv) or C.clear(t, piv):
                continue
            # pivot must divide the rest of the submatrix; every integer is
            # divisible by a unit
            if abs(piv) == 1:
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(v % piv for v in d[i].values())),
                None,
            )
            if offender is None:
                break
            R.add(t, offender, 1)
        t += 1
    for i in range(limit):
        if d[i].get(i, 0) < 0:
            R.neg(i)
    diag = tuple(d[i].get(i, 0) for i in range(limit))
    rank = sum(1 for v in diag if v)
    if any(diag[i + 1] % diag[i] for i in range(rank - 1)):
        raise InternalCheckError("normal form diagonal is not a divisibility chain")
    if any(diag[rank:]):
        raise InternalCheckError("normal form has a nonzero entry after a zero")
    if any(j != i for i, row in enumerate(d) for j in row):
        raise InternalCheckError("normal form left an off-diagonal entry")
    res = SNFResult(diag, rank, R.T, C.T, R.Tinv, C.Tinv)
    _verify_transforms(a, res)
    return res


def _verify_transforms(a: IntMatrix, res: SNFResult) -> None:
    """Three products over the nonzeros: U*A == D*Vinv, U*Uinv == I and
    (Vinv*V)^T == I.

    Each inverse identity multiplies a transform's stored lines by its
    inverse's lines transposed: U's rows by Uinv's rows give U*Uinv, and V's
    columns by Vinv's columns give (Vinv*V)^T.  For square integer matrices
    Vinv*V == I also gives V*Vinv == I, so U*A == D*Vinv holds exactly when
    U*A*V == D.  D*Vinv needs no product: its row i is diag[i] * Vinv[i], and
    empty past the diagonal.
    """
    for i, row in enumerate(_mul(res.U, a.sparse)):
        dv = res.diag[i] if i < len(res.diag) else 0
        if row != ({j: dv * v for j, v in res.Vinv[i].items()} if dv else {}):
            raise InternalCheckError("transform identity U*A == D*Vinv failed")
    for t, tinv, n in ((res.U, res.Uinv, a.rows), (res.V, res.Vinv, a.cols)):
        if any(row != {i: 1} for i, row in enumerate(_mul(t, _transpose(tinv, n)))):
            raise InternalCheckError("recorded transform inverse is wrong")


# -- chain complexes ----------------------------------------------------------


class ChainComplex:
    """basis[k] lists the k-chains' generators, such as nondegenerate
    k-simplices by position; boundary[k] maps C_k to C_{k-1}."""

    __slots__ = ("basis", "boundary")

    def __init__(self, basis: tuple[tuple, ...], boundary: tuple[IntMatrix, ...]):
        self.basis, self.boundary = basis, boundary


def normalized_chain_complex(s: SimplicialSet, top: int) -> ChainComplex:
    if top > s.dim_cap:
        raise InputError(f"complex up to degree {top} needs levels past cap {s.dim_cap}")
    basis = [s.nondegenerate(k) for k in range(top + 1)]
    boundary = [IntMatrix(0, len(basis[0]))]
    for k in range(1, top + 1):
        row_of = {q: i for i, q in enumerate(basis[k - 1])}  # position -> row
        lines: Sparse = [{} for _ in basis[k - 1]]
        faces = s._faces[k]
        for j, p in enumerate(basis[k]):
            sign = 1
            for col in faces:
                pos = row_of.get(col[p])
                if pos is not None:
                    _axpy(lines[pos], {j: sign}, 1)
                sign = -sign
        boundary.append(IntMatrix(len(basis[k - 1]), len(basis[k]), sparse=lines))
    for k in range(1, top):
        if any(_mul(boundary[k].sparse, boundary[k + 1].sparse)):
            raise InternalCheckError(f"boundary squared is nonzero at degree {k}")
    return ChainComplex(tuple(basis), tuple(boundary))


def summands_json(summands: tuple[int, ...]) -> dict:
    """Betti number and torsion coefficients of the group with these summands
    (0 for a free Z summand, d > 1 for a Z/d summand)."""
    return {
        "betti": sum(1 for v in summands if v == 0),
        "torsion": [v for v in summands if v],
    }


def summands_label(summands: tuple[int, ...]) -> str:
    """Readable form such as 'Z^2 + Z/2', or '0' for the trivial group."""
    gj = summands_json(summands)
    parts = []
    if gj["betti"] == 1:
        parts.append("Z")
    elif gj["betti"] > 1:
        parts.append(f"Z^{gj['betti']}")
    parts.extend(f"Z/{d}" for d in gj["torsion"])
    return " + ".join(parts) if parts else "0"


class HomologyGroup:
    """One homology group with canonical generators and coordinate reduction.

    summands[i] describes the i-th generator: 0 for a free Z summand, d > 1
    for a Z/d summand.  Torsion comes first, in divisibility order.
    """

    __slots__ = ("degree", "summands", "generators", "_vinv", "_cycle_rank", "_um", "_dfull")

    def __init__(
        self,
        degree: int,
        summands: tuple[int, ...],
        generators: tuple[tuple[int, ...], ...],
        _vinv: Sparse,  # rows
        _cycle_rank: int,
        _um: Sparse,  # rows
        _dfull: tuple[int, ...],
    ):
        self.degree, self.summands, self.generators = degree, summands, generators
        self._vinv, self._cycle_rank, self._um, self._dfull = _vinv, _cycle_rank, _um, _dfull

    def reduce(self, chain) -> tuple[int, ...]:
        """Canonical coordinates of a cycle's class, one per summand."""
        if len(chain) != len(self._vinv):
            raise InputError(
                f"chain has {len(chain)} coordinates, degree {self.degree} has {len(self._vinv)}"
            )
        w = _apply(self._vinv, chain)
        if any(w[: self._cycle_rank]):
            raise InputError("chain is not a cycle")
        y = _apply(self._um, w[self._cycle_rank :])
        out = []
        for i, dv in enumerate(self._dfull):
            if dv == 1:
                continue
            out.append(y[i] % dv if dv > 1 else y[i])
        return tuple(out)

    def label(self) -> str:
        return summands_label(self.summands)

    def to_json(self) -> dict:
        return {"degree": self.degree, **summands_json(self.summands)}


def _group_at(cx: ChainComplex, k: int, cycles: SNFResult) -> tuple[HomologyGroup, SNFResult]:
    """H_k from cycles, a normal form whose V has the k-cycles as its columns
    r.. for r its rank, and the normal form of M_k, rows r.. of
    Vinv*boundary[k + 1].  The first r rows are zero, and Vinv is invertible,
    so M_k has the kernel of boundary[k + 1]: its normal form, returned with
    the group, is degree k + 1's cycles."""
    n_k = len(cx.basis[k])
    r = cycles.rank
    kappa = n_k - r
    b = cx.boundary[k + 1]
    w = _mul(cycles.Vinv, b.sparse)
    if any(w[:r]):
        raise InternalCheckError("boundary chain has nonzero differential")
    snf_m = smith_normal_form(IntMatrix(kappa, b.cols, sparse=w[r:]))
    dfull = list(snf_m.diag) + [0] * (kappa - len(snf_m.diag))
    # H_k's generators: cycles V's columns r.. combined by Uinv's columns
    kept = [i for i in range(kappa) if dfull[i] != 1]
    gens = []
    for i in kept:
        col: dict[int, int] = {}
        for bidx, u in snf_m.Uinv[i].items():
            _axpy(col, cycles.V[r + bidx], u)
        gens.append(tuple(col.get(a_, 0) for a_ in range(n_k)))
    g = HomologyGroup(
        degree=k,
        summands=tuple(dfull[i] for i in kept),
        generators=tuple(gens),
        _vinv=cycles.Vinv,
        _cycle_rank=r,
        _um=snf_m.U,
        _dfull=tuple(dfull),
    )
    for j, gen in enumerate(g.generators):
        want = tuple(1 if i == j else 0 for i in range(len(g.summands)))
        if g.reduce(gen) != want:
            raise InternalCheckError("generator does not reduce to a unit vector")
    return g, snf_m


class Homology:
    __slots__ = ("sset", "complex", "groups")

    def __init__(self, sset: SimplicialSet, complex: ChainComplex, groups: tuple[HomologyGroup, ...]):
        self.sset, self.complex, self.groups = sset, complex, groups

    def group(self, k: int) -> HomologyGroup:
        return self.groups[k]


def complex_homology(cx: ChainComplex, max_deg: int) -> tuple[HomologyGroup, ...]:
    """H_0..H_max_deg of a complex listed through degree max_deg + 1, in one
    walk up the degrees that takes no normal form past max_deg."""
    groups = []
    cycles = smith_normal_form(cx.boundary[0])
    for k in range(max_deg + 1):
        g, cycles = _group_at(cx, k, cycles)
        groups.append(g)
    return tuple(groups)


def sset_homology(s: SimplicialSet, max_deg: int) -> Homology:
    """Homology in degrees 0..max_deg of the normalized complex; requires
    max_deg < dim cap."""
    if max_deg < 0:
        raise InputError("max_deg must be nonnegative")
    if max_deg + 1 > s.dim_cap:
        raise InputError(
            f"degree {max_deg} needs level {max_deg + 1}, past cap {s.dim_cap}"
        )
    cx = normalized_chain_complex(s, max_deg + 1)
    return Homology(s, cx, complex_homology(cx, max_deg))


def component_count(n: int, h0: HomologyGroup) -> int:
    """n, a count of components found by union-find (pi0), confirmed by the
    second route, H0's betti number from the normal form."""
    betti = summands_json(h0.summands)["betti"]
    if n != betti:
        raise InternalCheckError(f"pi0 has {n} components but H0 has betti number {betti}")
    return n


# -- induced maps --------------------------------------------------------------


class InducedMap:
    """Induced map on one homology degree, in the canonical coordinates."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: HomologyGroup, target: HomologyGroup, matrix: tuple[tuple[int, ...], ...]):
        self.source, self.target, self.matrix = source, target, matrix

    def is_identity(self) -> bool:
        return self.permutation() == tuple(range(len(self.source.summands)))

    def permutation(self) -> tuple[int, ...] | None:
        """Column -> row assignment when the matrix is a summand-matching
        permutation with unit entries, else None."""
        src, tgt = self.source.summands, self.target.summands
        if len(src) != len(tgt):
            return None
        assign = []
        for j, col in enumerate(zip(*self.matrix)):
            hits = [i for i, v in enumerate(col) if v]
            if len(hits) != 1 or col[hits[0]] != 1 or tgt[hits[0]] != src[j]:
                return None
            assign.append(hits[0])
        return tuple(assign) if len(set(assign)) == len(assign) else None

    def is_isomorphism(self) -> bool:
        """Whether the map is an isomorphism, whatever the generator bases:
        equal summands, and m unit invariant factors of [matrix | D] for D the
        diagonal of the m target orders (0 where free).  Then the map is onto
        a group isomorphic to its source, so one-to-one, as an onto
        endomorphism of a finitely generated module is (Matsumura, Thm 2.4)."""
        orders = self.target.summands
        if self.source.summands != orders:
            return False
        n = len(orders)
        rows = [
            {j: v for j, v in enumerate(row) if v} | ({n + i: d} if d else {})
            for i, (row, d) in enumerate(zip(self.matrix, orders))
        ]
        return all(v == 1 for v in smith_normal_form(IntMatrix(n, 2 * n, rows)).diag)


def induced_by_chains(chain_map: Sparse, source: HomologyGroup, target: HomologyGroup) -> InducedMap:
    """The map on homology of a chain map, given as sparse rows over the
    target's degree basis, in the canonical coordinates of both groups."""
    cols = [target.reduce(_apply(chain_map, gen)) for gen in source.generators]
    matrix = tuple(tuple(c[i] for c in cols) for i in range(len(target.summands)))
    return InducedMap(source, target, matrix)
