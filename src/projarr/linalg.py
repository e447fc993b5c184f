"""Exact subspace algebra and integer Smith normal form.

Everything here is exact and in integers.  A subspace basis is stored as
its rational RREF with each row scaled to a primitive integer row with a
positive pivot (see `rref`); `rational_view` reads the RREF back off.
The Smith normal form takes and returns its diagonal form as dense lists
of int rows; its unimodular transforms are sparse: lists of
{index: value} dicts holding the rows or columns they are updated by.
No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions were combined."""


def _primitive(row) -> list[int]:
    """The row of ints or Fractions scaled to integers with content 1; a
    zero row stays zero."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(m) -> Matrix:
    """The integer canonical form of the row space of m: the rows of its
    reduced row echelon form, zero rows removed, each scaled to a
    primitive integer row with a positive pivot.

    Fraction-free: rows are scaled to primitive integer rows, a row step
    is r ← (a/g)·r − (b/g)·pivot_row with g = gcd(a, b), and every changed
    row is divided by its content.  Only the pivot signs are fixed at the
    end.
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
    # zip drops the rows past the last pivot: they reduced to zero
    return tuple(
        tuple(-x for x in row) if row[p] < 0 else tuple(row) for row, p in zip(rows, pivots)
    )


def rational_view(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """The rational RREF (pivots 1) of a matrix in integer canonical form."""
    out = []
    for row in m:
        pivot = next(filter(None, row))
        out.append(tuple(Fraction(x, pivot) for x in row))
    return tuple(out)


def _kernel_of_rref(red: Matrix, ncols: int) -> Matrix:
    """Null space basis of a matrix in integer canonical form, one integer
    row per free column, scaled by the lcm of the pivots."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = scale
        for row, p in zip(red, pivots):
            vec[p] = -row[j] * (scale // row[p])
        basis.append(tuple(vec))
    return tuple(basis)


def _checked(ambient_dim: int, rows, what: str) -> list:
    """The rows as a list, after checking that every one has ambient_dim entries."""
    rows = list(rows)
    if any(len(r) != ambient_dim for r in rows):
        raise ValueError(f"{what} rows have wrong length")
    return rows


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim, its basis in integer canonical
    form (see `rref`); `from_span` and `from_equations` take rows of ints
    or Fractions.

    The form is unique, so equality and hashing go through the basis and
    subspaces compare as sets of vectors; the cached `annihilator` takes
    no part in them.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_span(ambient_dim: int, rows) -> "Subspace":
        return Subspace(ambient_dim, rref(_checked(ambient_dim, rows, "span")))

    @staticmethod
    def from_equations(ambient_dim: int, rows) -> "Subspace":
        """The common zeros of the rows: the full space's basis cut by
        them, whose values on the unit vectors are their entries."""
        m = [_primitive(row) for row in _checked(ambient_dim, rows, "equation")]
        return Subspace(ambient_dim, rref(_cut_rows(Subspace.full(ambient_dim).basis, m)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        eye = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return Subspace(ambient_dim, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "Subspace") -> bool:
        """other ⊆ self: stacking other's basis under self's adds no rank."""
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return _rank(self.basis + other.basis) == self.dim

    @cached_property
    def annihilator(self) -> Matrix:
        """Integer rows spanning the functionals vanishing on this
        subspace, read off the canonical basis once per subspace."""
        return _kernel_of_rref(self.basis, self.ambient_dim)


def _products(equations: Matrix, basis: Matrix) -> list[list[int]]:
    """M[i][j] = equations[i] · basis[j]: the equations evaluated on a basis."""
    return [[sum(map(mul, eq, v)) for v in basis] for eq in equations]


def _rank(m) -> int:
    """Rank of an integer matrix by Bareiss fraction-free forward
    elimination: row ← (p·row − b·pivot_row) ÷ previous pivot, a division
    that is exact and keeps every entry a minor of m.  No gcds, no
    back-substitution; one nonzero row or one column needs no elimination.
    """
    rows = [r for r in m if any(r)]
    if len(rows) < 2 or len(rows[0]) < 2:
        return min(len(rows), 1)
    rank, prev = 0, 1
    for col in range(len(rows[0])):
        pr = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            b = rows[r][col]
            rows[r] = [(p * x - b * y) // prev for x, y in zip(rows[r], prow)]
        rank, prev = rank + 1, p
        if rank == len(rows):
            break
    return rank


def _cut_rows(basis, values) -> list:
    """Independent rows spanning the vectors of the span of the
    independent rows basis on which some equations vanish, given their
    integer values on the basis: values[k][i] is equation k on basis[i].

    Each equation is one pairwise step in the basis: with c its values
    and c_p the first nonzero one, b_i becomes c_p·b_i − c_i·b_p for
    i ≠ p (b_i itself where c_i = 0) and b_p goes, and the later
    equations' values take the same step.  An equation vanishing on the
    basis leaves it as it is.  Each changed row is divided, with its
    values, by their gcd.  It lies on a line (the span of the original
    b_i and pivot rows, cut by the equations so far), so it is then that
    line's primitive vector, whose entries are no larger than the minors
    Bareiss elimination would keep: bounded, where the bare step doubles
    their bits with every equation."""
    n = len(values)
    rows = [[v[i] for v in values] + list(b) for i, b in enumerate(basis)]
    for k in range(n):
        p = next((i for i, r in enumerate(rows) if r[k]), None)
        if p is None:
            continue
        prow = rows.pop(p)
        cp = prow[k]
        for i, r in enumerate(rows):
            c = r[k]
            if c:
                new = [cp * x - c * y for x, y in zip(r, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
    return [r[n:] for r in rows]


def _cut(a: Subspace, m) -> Subspace:
    """The vectors of a on which the equations with values M on a's
    basis vanish: a's basis cut by M's rows, and reduced."""
    return Subspace(a.ambient_dim, rref(_cut_rows(a.basis, m)))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b as the kernel of b's equations on a's basis, or a itself when
    a ⊆ b."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    m = _products(b.annihilator, a.basis)
    if not any(map(any, m)):
        return a
    return _cut(a, m)


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
