"""Integer homology of truncated simplicial sets via Smith normal form.

Chains live on nondegenerate simplices with faces pushed to zero when they
degenerate.  All arithmetic is exact over Python ints.  A dimension cap of D
supports trusted homology in degrees up to D - 1 only, because H_k needs the
boundary out of level k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from finsite.reports import InputError, InternalCheckError
from finsite.sset import SimplicialMap, SimplicialSet

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
        """The dense rows, written out on each read."""
        # Only the benchmark's tracer (perfbench/tracing.py) reads this, to
        # count nonzeros.  Nothing in the package may: the dense copy of a
        # large boundary does not fit in memory.
        out = [[0] * self.cols for _ in range(self.rows)]
        for row, line in zip(out, self.sparse):
            for j, v in line.items():
                row[j] = v
        return out

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, sparse=_identity(n))

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


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == D with U, V unimodular; diag holds the full diagonal of D.

    U and Vinv are sparse rows, V and Uinv sparse columns: each is stored the
    way the elimination updates it, U and Vinv by row operations, V and Uinv
    by column operations.
    """

    diag: tuple[int, ...]
    rank: int
    U: Sparse
    V: Sparse
    Uinv: Sparse
    Vinv: Sparse


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Normal form by pivoting on the smallest (|v|, row, column) entry left.

    The working matrix is kept as sparse rows plus, per column, the set of
    rows holding an entry there; every step touches nonzeros only.
    """
    rows, cols = a.rows, a.cols
    d = [dict(line) for line in a.sparse]
    at: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(d):
        for j in row:
            at[j].add(i)
    U = _identity(rows)
    Uinv = _identity(rows)
    V = _identity(cols)
    Vinv = _identity(cols)

    def row_swap(i, j):
        for k in d[i].keys() ^ d[j].keys():
            held = at[k]
            if i in held:
                held.remove(i)
                held.add(j)
            else:
                held.remove(j)
                held.add(i)
        d[i], d[j] = d[j], d[i]
        U[i], U[j] = U[j], U[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def row_add(i, j, t):
        # row_i += t * row_j
        ri = d[i]
        for k, v in d[j].items():
            w = ri.get(k, 0) + t * v
            if w:
                if k not in ri:
                    at[k].add(i)
                ri[k] = w
            else:
                del ri[k]
                at[k].remove(i)
        _axpy(U[i], U[j], t)
        _axpy(Uinv[j], Uinv[i], -t)

    def row_neg(i):
        d[i] = {k: -v for k, v in d[i].items()}
        U[i] = {k: -v for k, v in U[i].items()}
        Uinv[i] = {k: -v for k, v in Uinv[i].items()}

    def col_swap(i, j):
        for r in at[i] | at[j]:
            row = d[r]
            vi, vj = row.pop(i, 0), row.pop(j, 0)
            if vi:
                row[j] = vi
            if vj:
                row[i] = vj
        at[i], at[j] = at[j], at[i]
        V[i], V[j] = V[j], V[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(j, i, t):
        # col_j += t * col_i
        for r in at[i]:
            row = d[r]
            w = row.get(j, 0) + t * row[i]
            if w:
                if j not in row:
                    at[j].add(r)
                row[j] = w
            else:
                del row[j]
                at[j].remove(r)
        _axpy(V[j], V[i], t)
        _axpy(Vinv[i], Vinv[j], -t)

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
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            piv = d[t][t]
            dirty = False
            for i in sorted(at[t] - {t}):
                q = d[i][t] // piv
                if q:
                    row_add(i, t, -q)
                if t in d[i]:
                    row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in sorted(d[t].keys() - {t}):
                q = d[t][j] // piv
                if q:
                    col_add(j, t, -q)
                if j in d[t]:
                    col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix; every integer is
            # divisible by a unit
            piv = d[t][t]
            if abs(piv) == 1:
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(v % piv for v in d[i].values())),
                None,
            )
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    for i in range(limit):
        if d[i].get(i, 0) < 0:
            row_neg(i)
    diag = tuple(d[i].get(i, 0) for i in range(limit))
    rank = sum(1 for v in diag if v)
    if any(diag[i + 1] % diag[i] for i in range(rank - 1)):
        raise InternalCheckError("normal form diagonal is not a divisibility chain")
    if any(diag[rank:]):
        raise InternalCheckError("normal form has a nonzero entry after a zero")
    if any(j != i for i, row in enumerate(d) for j in row):
        raise InternalCheckError("normal form left an off-diagonal entry")
    res = SNFResult(diag, rank, U, V, Uinv, Vinv)
    _verify_transforms(a, res)
    return res


def _verify_transforms(a: IntMatrix, res: SNFResult) -> None:
    """U*A == D*Vinv, U*Uinv == I and V*Vinv == I, multiplied over the nonzeros.

    Given V*Vinv == I, which for square integer matrices also gives
    Vinv*V == I, U*A == D*Vinv holds exactly when U*A*V == D.  D*Vinv needs
    no product: its row i is diag[i] * Vinv[i], and empty past the diagonal.
    """
    for i, row in enumerate(_mul(res.U, a.sparse)):
        dv = res.diag[i] if i < len(res.diag) else 0
        if row != ({j: dv * v for j, v in res.Vinv[i].items()} if dv else {}):
            raise InternalCheckError("transform identity U*A == D*Vinv failed")
    v_rows = _transpose(res.V, a.cols)
    for left, right in ((res.U, _transpose(res.Uinv, a.rows)), (v_rows, res.Vinv)):
        if any(row != {i: 1} for i, row in enumerate(_mul(left, right))):
            raise InternalCheckError("recorded transform inverse is wrong")


# -- chain complexes ----------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """basis[k] lists nondegenerate k-simplices; boundary[k] maps C_k to C_{k-1}."""

    basis: tuple[tuple, ...]
    boundary: tuple[IntMatrix, ...]


def normalized_chain_complex(s: SimplicialSet, top: int) -> ChainComplex:
    if top > s.dim_cap:
        raise InputError(f"complex up to degree {top} needs levels past cap {s.dim_cap}")
    basis = [s.nondegenerate(k) for k in range(top + 1)]
    index = [{z: i for i, z in enumerate(b)} for b in basis]
    boundary = [IntMatrix(0, len(basis[0]))]
    for k in range(1, top + 1):
        lines: Sparse = [{} for _ in basis[k - 1]]
        for j, z in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                pos = index[k - 1].get(s.face(k, z, i))
                if pos is not None:
                    line = lines[pos]
                    v = line.get(j, 0) + sign
                    if v:
                        line[j] = v
                    else:
                        del line[j]
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


@dataclass(frozen=True)
class HomologyGroup:
    """One homology group with canonical generators and coordinate reduction.

    summands[i] describes the i-th generator: 0 for a free Z summand, d > 1
    for a Z/d summand.  Torsion comes first, in divisibility order.
    """

    degree: int
    summands: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    _vinv: Sparse  # rows
    _cycle_rank: int
    _um: Sparse  # rows
    _dfull: tuple[int, ...]

    @property
    def betti(self) -> int:
        return summands_json(self.summands)["betti"]

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


def _group_at(cx: ChainComplex, k: int) -> HomologyGroup:
    n_k = len(cx.basis[k])
    snf_a = smith_normal_form(cx.boundary[k])
    r = snf_a.rank
    kappa = n_k - r
    b = cx.boundary[k + 1]
    w = _mul(snf_a.Vinv, b.sparse)
    if any(w[:r]):
        raise InternalCheckError("boundary chain has nonzero differential")
    snf_m = smith_normal_form(IntMatrix(kappa, b.cols, sparse=w[r:]))
    dfull = list(snf_m.diag) + [0] * (kappa - len(snf_m.diag))
    um = list(snf_m.U)
    # kernel basis in chain coordinates: trailing columns of V for the k-boundary
    summands = []
    gens = []
    for i in range(kappa):
        if dfull[i] == 1:
            continue
        col: dict[int, int] = {}
        for bidx, u in snf_m.Uinv[i].items():
            _axpy(col, snf_a.V[r + bidx], u)
        if col and col[min(col)] < 0:
            col = {a_: -v for a_, v in col.items()}
            um[i] = {j: -v for j, v in um[i].items()}
        gen = [0] * n_k
        for a_, v in col.items():
            gen[a_] = v
        summands.append(dfull[i])
        gens.append(tuple(gen))
    return HomologyGroup(
        degree=k,
        summands=tuple(summands),
        generators=tuple(gens),
        _vinv=snf_a.Vinv,
        _cycle_rank=r,
        _um=um,
        _dfull=tuple(dfull),
    )


def homology(cx: ChainComplex, k: int) -> HomologyGroup:
    """Homology of a chain complex in one degree.

    Needs the boundary out of level k + 1, so k must stay below the top
    level of the complex.
    """
    if k < 0:
        raise InputError("degree must be nonnegative")
    if k + 1 >= len(cx.basis):
        raise InputError(f"degree {k} needs level {k + 1}, past the complex top")
    g = _group_at(cx, k)
    for j, gen in enumerate(g.generators):
        want = tuple(1 if i == j else 0 for i in range(len(g.summands)))
        if g.reduce(gen) != want:
            raise InternalCheckError("generator does not reduce to a unit vector")
    return g


@dataclass(frozen=True)
class Homology:
    sset: SimplicialSet
    max_deg: int
    complex: ChainComplex
    groups: tuple[HomologyGroup, ...]

    def group(self, k: int) -> HomologyGroup:
        return self.groups[k]


def sset_homology(s: SimplicialSet, max_deg: int) -> Homology:
    """Homology in degrees 0..max_deg, computed one degree after another;
    requires max_deg < dim cap."""
    if max_deg < 0:
        raise InputError("max_deg must be nonnegative")
    if max_deg + 1 > s.dim_cap:
        raise InputError(
            f"degree {max_deg} needs level {max_deg + 1}, past cap {s.dim_cap}"
        )
    cx = normalized_chain_complex(s, max_deg + 1)
    groups = tuple(homology(cx, k) for k in range(max_deg + 1))
    return Homology(s, max_deg, cx, groups)


# -- induced maps --------------------------------------------------------------


def chain_map_matrix(m: SimplicialMap, k: int, src_basis, tgt_basis) -> Sparse:
    """Sparse rows, one per target simplex, of the normalized chain map in
    degree k; degenerate images drop to 0."""
    index = {z: i for i, z in enumerate(tgt_basis)}
    out: Sparse = [{} for _ in tgt_basis]
    for j, z in enumerate(src_basis):
        img = m.apply(k, z)
        if m.target.is_degenerate(k, img):
            continue
        out[index[img]][j] = 1
    return out


@dataclass(frozen=True)
class InducedMap:
    """Induced map on one homology degree, in the canonical coordinates."""

    source: HomologyGroup
    target: HomologyGroup
    matrix: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        if self.source.summands != self.target.summands:
            return False
        n = len(self.source.summands)
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def permutation(self) -> tuple[int, ...] | None:
        """Column -> row assignment when the matrix is a summand-matching
        permutation with unit entries, else None."""
        ncols = len(self.source.summands)
        nrows = len(self.target.summands)
        if ncols != nrows:
            return None
        assign = []
        for j in range(ncols):
            hits = [i for i in range(nrows) if self.matrix[i][j] != 0]
            if len(hits) != 1:
                return None
            i = hits[0]
            if self.matrix[i][j] != 1:
                return None
            if self.target.summands[i] != self.source.summands[j]:
                return None
            assign.append(i)
        if len(set(assign)) != ncols:
            return None
        return tuple(assign)


def induced_map(m: SimplicialMap, hs: Homology, ht: Homology, degree: int) -> InducedMap:
    if m.source is not hs.sset or m.target is not ht.sset:
        if m.source != hs.sset or m.target != ht.sset:
            raise InputError("homology data does not match the map's endpoints")
    cmat = chain_map_matrix(
        m, degree, hs.complex.basis[degree], ht.complex.basis[degree]
    )
    gsrc = hs.group(degree)
    gtgt = ht.group(degree)
    cols = [gtgt.reduce(_apply(cmat, gen)) for gen in gsrc.generators]
    nrows = len(gtgt.summands)
    matrix = tuple(
        tuple(cols[j][i] for j in range(len(cols))) for i in range(nrows)
    )
    return InducedMap(gsrc, gtgt, matrix)


def induced_homology_map(
    m: SimplicialMap,
    k: int,
    hs: Homology | None = None,
    ht: Homology | None = None,
) -> InducedMap:
    """Map induced on degree-k homology; computes either side when missing."""
    if hs is None:
        hs = sset_homology(m.source, k)
    if ht is None:
        ht = sset_homology(m.target, k)
    return induced_map(m, hs, ht, k)
