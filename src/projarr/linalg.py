"""Exact rational linear algebra and integer Smith normal form.

Everything here is exact: matrices are tuples of tuples of Fraction,
integer matrices are lists of lists of int.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions were combined."""


def make_matrix(rows) -> Matrix:
    """Coerce an iterable of rows (ints, strings, Fractions) to a Matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out:
        width = len(out[0])
        if any(len(r) != width for r in out):
            raise ValueError("ragged matrix")
    return out


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows removed and pivots 1."""
    rows = [list(r) for r in m]
    if not rows:
        return ()
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        piv = rows[pivot_row][col]
        rows[pivot_row] = [x / piv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pivot_row] if any(x != 0 for x in r))


def kernel(m: Matrix, ncols: int) -> Matrix:
    """Basis (as rows) of the right null space of m acting on Q^ncols."""
    red = rref(m)
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][j]
        basis.append(tuple(vec))
    return tuple(basis)


def solve_rational(m: Matrix, b) -> Row | None:
    """One rational solution x of m·x = b, or None if inconsistent."""
    if not m:
        return None if any(Fraction(x) != 0 for x in b) else ()
    ncols = len(m[0])
    aug = make_matrix([list(row) + [bi] for row, bi in zip(m, b)])
    red = rref(aug)
    # free variables are set to zero, so each pivot variable reads off
    # the augmented column directly
    x = [Fraction(0)] * ncols
    for row in red:
        piv = next(j for j, v in enumerate(row) if v != 0)
        if piv == ncols:
            return None
        x[piv] = row[ncols]
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical (RREF) form.

    Equality and hashing go through the RREF basis, so subspaces compare
    as sets of vectors.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_span(ambient_dim: int, rows) -> "Subspace":
        m = make_matrix(rows)
        if m and len(m[0]) != ambient_dim:
            raise ValueError("span rows have wrong length")
        return Subspace(ambient_dim, rref(m))

    @staticmethod
    def from_equations(ambient_dim: int, rows) -> "Subspace":
        m = make_matrix(rows)
        if m and len(m[0]) != ambient_dim:
            raise ValueError("equation rows have wrong length")
        return Subspace(ambient_dim, rref(kernel(m, ambient_dim)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        eye = [[Fraction(int(i == j)) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return Subspace(ambient_dim, make_matrix(eye))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v) -> bool:
        v = tuple(Fraction(x) for x in v)
        stacked = rref(self.basis + (v,))
        return len(stacked) == self.dim

    def contains(self, other: "Subspace") -> bool:
        """other ⊆ self."""
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return all(self.contains_vector(r) for r in other.basis)

    def annihilator(self) -> Matrix:
        """Rows spanning the functionals vanishing on this subspace."""
        return kernel(self.basis, self.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    functionals = a.annihilator() + b.annihilator()
    return Subspace(a.ambient_dim, rref(kernel(make_matrix(functionals), a.ambient_dim)))


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


def int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_matmul(a, b) -> list[list[int]]:
    if not a:
        return []
    inner = len(b)
    return [
        [sum(ra[k] * b[k][j] for k in range(inner)) for j in range(len(b[0]) if b else 0)]
        for ra in a
    ]


def int_matvec(a, v) -> list[int]:
    return [sum(ra[k] * v[k] for k in range(len(v))) for ra in a]


def int_det(a) -> Fraction:
    """Determinant of a square integer (or rational) matrix, exactly."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pr = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != col:
            m[col], m[pr] = m[pr], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


@dataclass
class SNFResult:
    """U·A·V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...;
    uinv and vinv are the exact inverses of U and V."""

    u: list[list[int]]
    d: list[list[int]]
    v: list[list[int]]
    uinv: list[list[int]]
    vinv: list[list[int]]

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]


def snf(a) -> SNFResult:
    """Smith normal form over Z, pivoting on minimal nonzero entries.

    Every row step E applied to D and U is undone on the right of uinv
    (uinv ← uinv·E⁻¹), and every column step F applied to D and V on the
    left of vinv (vinv ← F⁻¹·vinv), so the inverses cost no elimination.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    u = int_identity(m)
    v = int_identity(n)
    uinv = int_identity(m)
    vinv = int_identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, f):
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= f * row[dst]

    def add_col(src, dst, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]
        vinv[src] = [x - f * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(m, n):
        # locate minimal-absolute-value nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return SNFResult(u, d, v, uinv, vinv)
