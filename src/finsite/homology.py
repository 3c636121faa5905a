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

_VERIFY_SIZE = 200


class IntMatrix:
    """Dense integer matrix; rows x cols, data as a list of row lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[int]] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        elif len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"matrix data is not {rows}x{cols}")
        self.data = data

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [list(r) for r in self.data])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self!r} by {other!r}")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    orow[j] += a * brow[j]
        return out

    def apply(self, vec) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise InputError(f"{self!r} cannot act on a vector of length {len(vec)}")
        return tuple(
            sum(row[j] * vec[j] for j in range(self.cols)) for row in self.data
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.data)
            for j, v in enumerate(row)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == D with U, V unimodular; diag holds the full diagonal of D."""

    diag: tuple[int, ...]
    rank: int
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix


def smith_normal_form(a: IntMatrix) -> SNFResult:
    rows, cols = a.rows, a.cols
    m = a.copy()
    U = IntMatrix.identity(rows)
    Uinv = IntMatrix.identity(rows)
    V = IntMatrix.identity(cols)
    Vinv = IntMatrix.identity(cols)
    d = m.data

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        U.data[i], U.data[j] = U.data[j], U.data[i]
        for r in Uinv.data:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, t):
        # row_i += t * row_j
        ri, rj = d[i], d[j]
        for k in range(cols):
            ri[k] += t * rj[k]
        ui, uj = U.data[i], U.data[j]
        for k in range(rows):
            ui[k] += t * uj[k]
        for r in Uinv.data:
            r[j] -= t * r[i]

    def row_neg(i):
        d[i] = [-v for v in d[i]]
        U.data[i] = [-v for v in U.data[i]]
        for r in Uinv.data:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in V.data:
            r[i], r[j] = r[j], r[i]
        Vinv.data[i], Vinv.data[j] = Vinv.data[j], Vinv.data[i]

    def col_add(j, i, t):
        # col_j += t * col_i
        for r in d:
            r[j] += t * r[i]
        for r in V.data:
            r[j] += t * r[i]
        vi, vj = Vinv.data[i], Vinv.data[j]
        for k in range(cols):
            vi[k] -= t * vj[k]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                v = row[j]
                if v != 0:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
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
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // piv
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // piv
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            piv = d[t][t]
            offender = None
            for i in range(t + 1, rows):
                if any(v % piv for v in d[i][t + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            row_neg(i)
    diag = tuple(d[i][i] for i in range(limit))
    rank = sum(1 for v in diag if v)
    if any(diag[i + 1] % diag[i] for i in range(rank - 1)):
        raise InternalCheckError("normal form diagonal is not a divisibility chain")
    if any(diag[rank:]):
        raise InternalCheckError("normal form has a nonzero entry after a zero")
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j] != 0:
                raise InternalCheckError("normal form left an off-diagonal entry")
    if max(rows, cols) <= _VERIFY_SIZE:
        check = U.mul(a).mul(V)
        for i in range(rows):
            for j in range(cols):
                want = diag[i] if i == j and i < limit else 0
                if check.data[i][j] != want:
                    raise InternalCheckError("transform identity U*A*V == D failed")
        if not U.mul(Uinv).is_identity() or not V.mul(Vinv).is_identity():
            raise InternalCheckError("recorded transform inverse is wrong")
    return SNFResult(diag, rank, U, V, Uinv, Vinv)


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
        mat = IntMatrix(len(basis[k - 1]), len(basis[k]))
        for j, z in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                f = s.face(k, z, i)
                pos = index[k - 1].get(f)
                if pos is not None:
                    mat.data[pos][j] += sign
                sign = -sign
        boundary.append(mat)
    for k in range(1, top):
        if not boundary[k].mul(boundary[k + 1]).is_zero():
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
    _vinv: IntMatrix
    _cycle_rank: int
    _um: IntMatrix
    _dfull: tuple[int, ...]

    @property
    def betti(self) -> int:
        return summands_json(self.summands)["betti"]

    def reduce(self, chain) -> tuple[int, ...]:
        """Canonical coordinates of a cycle's class, one per summand."""
        w = self._vinv.apply(chain)
        if any(w[: self._cycle_rank]):
            raise InputError("chain is not a cycle")
        y = self._um.apply(w[self._cycle_rank :])
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
    a = cx.boundary[k]
    snf_a = smith_normal_form(a)
    r = snf_a.rank
    kappa = n_k - r
    b = cx.boundary[k + 1]
    w = snf_a.Vinv.mul(b)
    for i in range(r):
        if any(w.data[i]):
            raise InternalCheckError("boundary chain has nonzero differential")
    m = IntMatrix(kappa, b.cols, [list(row) for row in w.data[r:]])
    snf_m = smith_normal_form(m)
    dfull = list(snf_m.diag) + [0] * (kappa - len(snf_m.diag))
    um = snf_m.U.copy()
    uminv = snf_m.Uinv
    # kernel basis in chain coordinates: trailing columns of V for the k-boundary
    summands = []
    gens = []
    for i in range(kappa):
        if dfull[i] == 1:
            continue
        col = [
            sum(snf_a.V.data[a_][r + bidx] * uminv.data[bidx][i] for bidx in range(kappa))
            for a_ in range(n_k)
        ]
        lead = next((v for v in col if v), 0)
        if lead < 0:
            col = [-v for v in col]
            um.data[i] = [-v for v in um.data[i]]
        summands.append(dfull[i])
        gens.append(tuple(col))
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


def chain_map_matrix(m: SimplicialMap, k: int, src_basis, tgt_basis) -> IntMatrix:
    """Matrix of the normalized chain map in degree k; degenerate images drop to 0."""
    index = {z: i for i, z in enumerate(tgt_basis)}
    out = IntMatrix(len(tgt_basis), len(src_basis))
    for j, z in enumerate(src_basis):
        img = m.apply(k, z)
        if m.target.is_degenerate(k, img):
            continue
        out.data[index[img]][j] = 1
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
    cols = [gtgt.reduce(cmat.apply(gen)) for gen in gsrc.generators]
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
