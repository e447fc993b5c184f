"""Exact rational linear algebra and integer Smith normal form.

Everything here is exact: rational matrices are tuples of tuples of
Fraction.  The Smith normal form takes and returns its diagonal form as
dense lists of int rows; its unimodular transforms are sparse: lists of
{index: value} dicts holding the rows or columns they are updated by.
No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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


def _primitive(row) -> list[int]:
    """The row scaled to integers with content 1; a zero row stays zero."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows removed and pivots 1.

    Fraction-free: rows are scaled to primitive integer rows, a row step
    is r ← (a/g)·r − (b/g)·pivot_row with g = gcd(a, b), and every changed
    row is divided by its content.  The unique rational RREF is read off
    at the end as x / pivot.
    """
    rows = [r for r in map(_primitive, m) if any(r)]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pr = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pr is None:
            continue
        rows[top], rows[pr] = rows[pr], rows[top]
        prow = rows[top]
        a = prow[col]
        for r, row in enumerate(rows):
            b = row[col]
            if b and r != top:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                new = [fa * x - fb * y for x, y in zip(row, prow)]
                c = gcd(*new)
                rows[r] = [x // c for x in new] if c > 1 else new
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return tuple(
        tuple(Fraction(x, row[p]) for x in row) for row, p in zip(rows, pivots)
    )


def _kernel_of_rref(red: Matrix, ncols: int) -> Matrix:
    """Null space basis of a matrix already in RREF: one row per free column."""
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in red]
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][j]
        basis.append(tuple(vec))
    return tuple(basis)


def kernel(m: Matrix, ncols: int) -> Matrix:
    """Basis (as rows) of the right null space of m acting on Q^ncols."""
    return _kernel_of_rref(rref(m), ncols)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim in canonical (RREF) form.

    Equality and hashing go through the RREF basis, so subspaces compare
    as sets of vectors; the cached `annihilator` takes no part in them.
    The hash is computed once per subspace, because hashing its Fraction
    entries costs a modular inverse each.
    """

    ambient_dim: int
    basis: Matrix

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_dim, self.basis))

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

    @cached_property
    def annihilator(self) -> Matrix:
        """Rows spanning the functionals vanishing on this subspace, read
        off the RREF basis once per subspace."""
        return _kernel_of_rref(self.basis, self.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    functionals = a.annihilator + b.annihilator
    return Subspace(a.ambient_dim, rref(kernel(functionals, a.ambient_dim)))


# ---------------------------------------------------------------------------
# integer Smith normal form


SparseVector = dict[int, int]  # index -> nonzero value


def _axpy(y: SparseVector, x: SparseVector, f: int) -> None:
    """y ← y + f·x on sparse vectors, dropping entries that cancel."""
    for k, c in x.items():
        s = y.get(k, 0) + f * c
        if s:
            y[k] = s
        else:
            del y[k]


@dataclass
class SNFResult:
    """U·A·V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    The transforms are sparse and kept in the orientation snf updates
    them in: U by rows and U⁻¹ by columns (the left pair), V by columns
    and V⁻¹ by rows (the right pair).  A pair the caller did not ask for
    is None."""

    d: list[list[int]]
    u_rows: list[SparseVector] | None
    uinv_cols: list[SparseVector] | None
    v_cols: list[SparseVector] | None
    vinv_rows: list[SparseVector] | None

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]


def _find_pivot(d, t: int):
    """The first entry of least nonzero |x| in the trailing block d[t:, t:],
    in row-major order; the scan stops at the first ±1."""
    best, least = None, 0
    for i in range(t, len(d)):
        seg = d[i][t:]
        if not any(seg):
            continue
        for j, x in enumerate(seg, t):
            if x:
                ax = abs(x)
                if ax == 1:
                    return i, j
                if best is None or ax < least:
                    best, least = (i, j), ax
    return best


def snf(a, *, left: bool = True, right: bool = True) -> SNFResult:
    """Smith normal form over Z, pivoting on minimal nonzero entries.

    left carries U and U⁻¹, right carries V and V⁻¹.  Every row step E
    applied to D and U is undone on the right of U⁻¹ (U⁻¹ ← U⁻¹·E⁻¹), and
    every column step F applied to D and V on the left of V⁻¹
    (V⁻¹ ← F⁻¹·V⁻¹), so the inverses cost no elimination.  Row steps touch
    only the pivot row's nonzero columns, column steps only the pivot
    column's nonzero rows, and the divisibility scan is skipped for a
    unit pivot.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = [{i: 1} for i in range(m)] if left else None
    uinv = [{i: 1} for i in range(m)] if left else None
    v = [{j: 1} for j in range(n)] if right else None
    vinv = [{j: 1} for j in range(n)] if right else None

    t = 0
    while t < min(m, n):
        pivot = _find_pivot(d, t)
        if pivot is None:
            break
        bi, bj = pivot
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            if left:
                u[t], u[bi] = u[bi], u[t]
                uinv[t], uinv[bi] = uinv[bi], uinv[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
            if right:
                v[t], v[bj] = v[bj], v[t]
                vinv[t], vinv[bj] = vinv[bj], vinv[t]
        prow = d[t]
        p = prow[t]
        pcols = [j for j in range(t + 1, n) if prow[j]]
        dirty = False
        # row steps: row_i ← row_i − q·row_t
        for i in range(t + 1, m):
            row = d[i]
            x = row[t]
            if x:
                q = x // p
                row[t] = x - q * p
                for j in pcols:
                    row[j] -= q * prow[j]
                if left:
                    _axpy(u[i], u[t], -q)
                    _axpy(uinv[t], uinv[i], q)
                if row[t]:
                    dirty = True
        # column steps: col_j ← col_j − q·col_t
        prows = [i for i in range(t, m) if d[i][t]]
        for j in pcols:
            q = prow[j] // p
            for i in prows:
                row = d[i]
                row[j] -= q * row[t]
            if right:
                _axpy(v[j], v[t], -q)
                _axpy(vinv[t], vinv[j], q)
            if prow[j]:
                dirty = True
        if dirty:
            continue
        if abs(p) != 1:
            # divisibility: the pivot must divide every remaining entry
            offender = next(
                (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1:])), None
            )
            if offender is not None:
                d[t] = [x + y for x, y in zip(prow, d[offender])]
                if left:
                    _axpy(u[t], u[offender], 1)
                    _axpy(uinv[offender], uinv[t], -1)
                continue
        if p < 0:
            prow[t] = -p
            if left:
                u[t] = {k: -c for k, c in u[t].items()}
                uinv[t] = {k: -c for k, c in uinv[t].items()}
        t += 1
    return SNFResult(d, u, uinv, v, vinv)
