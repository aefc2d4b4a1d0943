"""Exact rational linear algebra kernel.

Dense matrices over the rationals with reduced row echelon form, nullspaces,
affine solution sets, and canonical subspace bases.  Everything downstream in
the package reduces to these primitives, so equality here is exact scalar
equality; there are no tolerances anywhere.

Scalars are ``gmpy2.mpq`` when available (much faster) and
``fractions.Fraction`` otherwise.  Both keep lowest terms and a positive
denominator.  Values entering from outside go through :func:`scalar`, which
rejects floats and decimal strings so inexact data can never leak in.

:class:`FactoredSolver`, which factors the large coefficient systems, is
integer and fraction-free: it clears each row's denominators, eliminates on
sparse rows of plain Python ints (under either backend), and divides by the
pivots only at the end.  Scalars appear only at its boundaries, and its
canonical RREF is the one :func:`rref` gives.  :func:`rref` and
:func:`solve_affine` still compute on dense Scalar rows.
:meth:`FactoredSolver.solve` checks every row the factorization did not pick
over that row's nonzero entries only, in ints: the integer rows the
factorization already built, kept when the matrix is factored.

Structure constants are mostly zero (the catalog algebras have 4–12 nonzero
constants out of 27–216), so bilinear maps given by them (products,
brackets, module actions) are evaluated by :func:`bilinear` over a
:func:`sparse_table` that lists only the nonzero constants; algebras and
bimodules build their tables once and cache them.  :func:`vec_add`,
:func:`vec_sub` and :meth:`Matrix.apply` skip zero entries the same way.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from math import gcd, lcm

try:
    from gmpy2 import mpq as Scalar
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Scalar

ZERO = Scalar(0)
ONE = Scalar(1)

# integer or integer/positive-integer; anything else (floats, "1.5", "1e3") is refused
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

Vector = tuple  # tuple of Scalar


def scalar(value):
    """Coerce an int, a string like ``"-3/4"``, or an exact rational to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact scalar: {value!r}")
    if isinstance(value, numbers.Integral):
        return Scalar(int(value))
    if isinstance(value, numbers.Rational):  # Fraction, or mpq behind the alias
        return Scalar(value.numerator) / Scalar(value.denominator)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not an exact rational literal: {value!r}")
        return Scalar(text)
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(values) -> Vector:
    return tuple(scalar(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    assert 0 <= i < n
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    assert len(u) == len(v)
    # a zero summand passes the other entry through without arithmetic
    return tuple((a + b if a else b) if b else a for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    assert len(u) == len(v)
    return tuple((a - b if a else -b) if b else a for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(not a for a in v)


def sparse_table(tensor) -> tuple:
    """The nonzero entries of a bilinear map's tensor, for :func:`bilinear`.

    tensor[i][j] is the coordinate vector of the map on the basis pair
    (i, j).  The table lists ``(i, ((j, ((k, c), ...)), ...))`` with only
    the pairs whose vector is nonzero, and in each vector only the nonzero
    coordinates c at k; rows with no nonzero pair are left out.
    """
    table = []
    for i, row in enumerate(tensor):
        cells = []
        for j, v in enumerate(row):
            cell = tuple((k, c) for k, c in enumerate(v) if c)
            if cell:
                cells.append((j, cell))
        if cells:
            table.append((i, tuple(cells)))
    return tuple(table)


def bilinear(table: tuple, x: Vector, y: Vector, dim: int) -> Vector:
    """Σ x_i y_j T[i][j] over the nonzero entries of x, y and the table T
    of :func:`sparse_table`, as a vector of length dim."""
    out = [ZERO] * dim
    for i, cells in table:
        xi = x[i]
        if xi:
            for j, cell in cells:
                yj = y[j]
                if yj:
                    coeff = xi * yj
                    for k, c in cell:
                        out[k] += coeff * c
    return tuple(out)


def format_vector(v: Vector) -> str:
    """``(p/q, …)``: the same text under either scalar backend."""
    return "(" + ", ".join(str(a) for a in v) + ")"


@dataclass(frozen=True)
class Matrix:
    """Dense matrix: ``entries`` is a row-major grid of exact scalars."""

    rows: int
    cols: int
    entries: tuple  # rows-many Vectors of length cols

    def __post_init__(self):
        assert len(self.entries) == self.rows
        assert all(len(r) == self.cols for r in self.entries)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Matrix":
        grid = tuple(vector(r) for r in rows)
        if cols is None:
            if not grid:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(grid[0])
        return Matrix(len(grid), cols, grid)

    @staticmethod
    def from_columns(columns, rows: int | None = None) -> "Matrix":
        cols = tuple(vector(c) for c in columns)
        if rows is None:
            if not cols:
                raise ValueError("row count required for a matrix with no columns")
            rows = len(cols[0])
        assert all(len(c) == rows for c in cols)
        grid = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return Matrix(rows, len(cols), grid)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vector(n, i) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(zero_vector(cols) for _ in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product self·v, over the nonzero entries of v."""
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.rows}x{self.cols} matrix to length-{len(v)} vector")
        support = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for row in self.entries:
            acc = ZERO
            for j, b in support:
                a = row[j]
                if a:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            orow = out[i]
            for k, rik in enumerate(row):
                if rik:
                    for j, bkj in enumerate(other.entries[k]):
                        if bkj:
                            orow[j] += rik * bkj
        return Matrix(self.rows, other.cols, tuple(tuple(r) for r in out))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def vstack(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.cols
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def flatten(self) -> Vector:
        """Row-major flattening; used to treat operators as coordinate vectors."""
        return tuple(x for row in self.entries for x in row)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.rows, self.cols,
                      tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries))


def matrix_from_flat(flat: Vector, rows: int, cols: int) -> Matrix:
    assert len(flat) == rows * cols
    return Matrix(rows, cols, tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows)))


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, pivot columns, rank).

    The RREF of a matrix is unique, which is what makes it usable as a
    canonical form for subspaces.
    """
    work = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        p = None
        for i in range(r, m.rows):
            if work[i][c]:
                p = i
                break
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = ONE / work[r][c]
        if inv != ONE:
            work[r] = [x * inv for x in work[r]]
        prow = work[r]
        for i in range(m.rows):
            if i != r and work[i][c]:
                f = work[i][c]
                wi = work[i]
                for k in range(c, m.cols):
                    if prow[k]:
                        wi[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    out = Matrix(m.rows, m.cols, tuple(tuple(row) for row in work))
    return out, tuple(pivots), r


def _nullspace_vectors(rref_rows, pivots, cols):
    """Free-variable basis of {v : m·v = 0} read off a reduced row echelon form."""
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -rref_rows[i][free]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a linear subspace in canonical form.

    The stacked basis vectors form a reduced row echelon matrix with no zero
    rows, so two equal subspaces have identical representations and dataclass
    equality decides subspace equality.  Construct via :meth:`span`.
    """

    ambient_dim: int
    vectors: tuple  # tuple of Vectors

    def __post_init__(self):
        assert all(len(v) == self.ambient_dim for v in self.vectors)

    @staticmethod
    def span(ambient_dim: int, vectors) -> "SubspaceBasis":
        vecs = [vector(v) for v in vectors]
        if not vecs:
            return SubspaceBasis(ambient_dim, ())
        reduced, _, rank = rref(Matrix.from_rows(vecs, ambient_dim))
        return SubspaceBasis(ambient_dim, reduced.entries[:rank])

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def pivot_columns(self) -> tuple:
        # leading column of each canonical row
        return tuple(next(j for j, x in enumerate(v) if x) for v in self.vectors)

    def _reduce(self, v: Vector):
        """Remainder of v after elimination against the canonical rows."""
        w = list(v)
        for row, p in zip(self.vectors, self.pivot_columns()):
            c = w[p]
            if c:
                for k in range(self.ambient_dim):
                    if row[k]:
                        w[k] -= c * row[k]
        return w

    def contains(self, v: Vector) -> bool:
        """True iff v ∈ span(self): stacking v does not raise the rank."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dimension {self.ambient_dim}")
        return all(not x for x in self._reduce(v))

    def coordinates(self, v: Vector):
        """Coefficients of v over the canonical basis, or None if v ∉ span."""
        if not self.contains(v):
            return None
        # canonical rows have 1 at their own pivot and 0 at the others,
        # so the coefficients are pivot reads
        return tuple(v[p] for p in self.pivot_columns())

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        assert other.ambient_dim == self.ambient_dim
        return all(self.contains(v) for v in other.vectors)

    def annihilator(self) -> Matrix:
        """Matrix K with: v ∈ span(self) iff K·v = 0.

        Rows of K span the orthogonal complement under the standard bilinear
        form; over the rationals the double complement gives back the span, so
        membership becomes a linear condition usable inside larger systems.
        """
        if not self.vectors:
            return Matrix.identity(self.ambient_dim)
        comp = nullspace(Matrix.from_rows(self.vectors, self.ambient_dim))
        return Matrix.from_rows(comp.vectors, self.ambient_dim)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    assert a.ambient_dim == b.ambient_dim
    return SubspaceBasis.span(a.ambient_dim, a.vectors + b.vectors)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection via annihilators: span(a) ∩ span(b) = ker [K_a; K_b]."""
    assert a.ambient_dim == b.ambient_dim
    stacked = a.annihilator().vstack(b.annihilator())
    return nullspace(stacked)


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of {v : m·v = 0}; dimension = cols − rank."""
    reduced, pivots, _ = rref(m)
    return SubspaceBasis.span(m.cols, _nullspace_vectors(reduced.entries, pivots, m.cols))


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solutions of a linear system: particular + span(homogeneous).

    ``particular is None`` marks the empty set (an inconsistent system is a
    value, not an error).
    """

    particular: Vector | None
    homogeneous: SubspaceBasis

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dim(self) -> int:
        return self.homogeneous.dim

    def contains(self, v: Vector) -> bool:
        if self.is_empty:
            return False
        return self.homogeneous.contains(vec_sub(v, self.particular))

    def contains_set(self, other: "AffineSolutionSet") -> bool:
        """True iff other ⊆ self, checked on the particular point and basis rays."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        if not self.contains(other.particular):
            return False
        return all(self.homogeneous.contains(v) for v in other.homogeneous.vectors)


def solve_affine(m: Matrix, b: Vector) -> AffineSolutionSet:
    """All solutions of m·x = b as particular + nullspace; empty if inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != row count {m.rows}")
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (bi,) for row, bi in zip(m.entries, b)))
    reduced, pivots, _ = rref(aug)
    # pivots inside the first m.cols columns reproduce rref(m)
    m_pivots = tuple(p for p in pivots if p < m.cols)
    homogeneous = SubspaceBasis.span(
        m.cols, _nullspace_vectors(reduced.entries, m_pivots, m.cols))
    if m.cols in pivots:  # a pivot in the b column: rank(m|b) > rank(m)
        return AffineSolutionSet(None, homogeneous)
    x = [ZERO] * m.cols
    for i, p in enumerate(m_pivots):
        x[p] = reduced.entries[i][m.cols]
    return AffineSolutionSet(tuple(x), homogeneous)


def _integer_row(row):
    """A Scalar row as ({column: int} for its nonzero entries, den): the row
    times den, the least common denominator of its entries."""
    # most entries of a sparse matrix are the shared ZERO, which the identity
    # test skips without a Python-level __bool__ call
    nonzero = [(j, x) for j, x in enumerate(row) if x is not ZERO and x]
    den = lcm(*(int(x.denominator) for _, x in nonzero))
    return {j: int(x.numerator) * (den // int(x.denominator)) for j, x in nonzero}, den


def _eliminate(w: dict, e: dict, p: int):
    """Clear column p of the sparse int row w in place with w ← a·w − c·e,
    where a/c = e[p]/w[p] in lowest terms and a > 0."""
    a, c = e[p], w[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a < 0:
        a, c = -a, -c
    if a != 1:
        for j in w:
            w[j] *= a
    for j, y in e.items():
        v = w.get(j, 0) - c * y
        if v:
            w[j] = v
        else:
            del w[j]


def _divide_content(w: dict):
    """Divide the sparse int row w in place by the gcd of its entries."""
    g = gcd(*w.values())
    if g != 1:
        for j in w:
            w[j] //= g


def _echelon(rows):
    """Fraction-free reduced echelon form of sparse int rows, taken in order.

    Returns (picked, echelon): the indices of the rows independent of the rows
    before them, and {lead column: primitive int row} spanning those rows,
    each row zero at every other lead.  A row is reduced only at the leads it
    touches, so sparse rows stay cheap.
    """
    picked = []
    echelon = {}
    for idx, row in enumerate(rows):
        w = dict(row)
        for p in [p for p in w if p in echelon]:
            _eliminate(w, echelon[p], p)
        if not w:
            continue
        lead = min(w)
        _divide_content(w)
        for e in echelon.values():
            if lead in e:
                _eliminate(e, w, lead)
                _divide_content(e)
        echelon[lead] = w
        picked.append(idx)
    return picked, echelon


def _reduced_rows(echelon: dict, width: int):
    """(pivots, rows): the echelon divided by its leads, in lead order, as
    dense Scalar rows: the rows of the canonical RREF."""
    pivots = tuple(sorted(echelon))
    rows = []
    for p in pivots:
        e = echelon[p]
        row = [ZERO] * width
        for j, x in e.items():
            row[j] = Scalar(x, e[p])
        rows.append(tuple(row))
    return pivots, tuple(rows)


class FactoredSolver:
    """One-time row reduction of a fixed coefficient matrix, reusable across
    many right-hand sides.

    The per-level constraint systems solved elsewhere in the package share one
    coefficient matrix per problem family; factoring it once turns each
    subsequent solve into a substitution plus a consistency sweep.  Results
    agree exactly with :func:`solve_affine`.

    The factorization is integer and fraction-free: each row has its
    denominators cleared, elimination cross-multiplies and divides out row
    contents, and Scalars appear only at the boundaries, when the final
    echelon rows are divided by their pivots.  A first pass picks, in row
    order, the rows independent of the rows before them (``picked``); a second
    runs Gauss–Jordan on ``[M_picked | I]``, whose canonical RREF is
    ``[R | T]`` with ``R`` the RREF of ``M`` and ``T·M_picked = R``.
    """

    def __init__(self, m: Matrix):
        self.matrix = m
        n = m.cols
        scaled = [_integer_row(row) for row in m.entries]
        picked, _ = _echelon(w for w, _ in scaled)
        self.picked = tuple(picked)
        self.rank = k = len(picked)
        # [M_picked | I], each row times its den: a row scaling, so the RREF is the same
        independent, echelon = _echelon({**scaled[idx][0], n + pos: scaled[idx][1]}
                                        for pos, idx in enumerate(picked))
        if len(independent) != k or any(p >= n for p in echelon):
            raise ArithmeticError("factorization picked dependent rows")
        self._pivots, rows = _reduced_rows(echelon, n + k)
        self._reduced = Matrix(k, n + k, rows)
        _, kernel = _echelon(_integer_row(v)[0]
                             for v in _nullspace_vectors(rows, self._pivots, n))
        self.nullspace = SubspaceBasis(n, _reduced_rows(kernel, n)[1])
        # every row not picked, as its nonzero entries times den, for the sweep
        chosen = set(picked)
        self._sweep = tuple((idx, w, den) for idx, (w, den) in enumerate(scaled)
                            if idx not in chosen)

    def solve(self, b: Vector) -> AffineSolutionSet:
        m = self.matrix
        if len(b) != m.rows:
            raise ValueError(f"right-hand side length {len(b)} != row count {m.rows}")
        n = m.cols
        # the transform block of the factored matrix applied to b's picked entries
        b_picked = [(n + j, b[idx]) for j, idx in enumerate(self.picked) if b[idx]]
        x = [ZERO] * n
        for p, trow in zip(self._pivots, self._reduced.entries):
            acc = ZERO
            for j, bj in b_picked:
                t = trow[j]
                if t:
                    acc += t * bj
            x[p] = acc
        # picked rows hold by construction; every other row is checked exactly,
        # in ints: with the row kept as w/den and x = xn/xd, the row holds iff
        # Σ_j w_j·xn_j = den·xd·b, compared after clearing b's denominator
        xd = lcm(*(int(v.denominator) for v in x))
        xn = [int(v.numerator) * (xd // int(v.denominator)) for v in x]
        for idx, w, den in self._sweep:
            acc = 0
            for j, a in w.items():
                acc += a * xn[j]
            bi = b[idx]
            if (acc * int(bi.denominator) != den * xd * int(bi.numerator)) if bi else acc:
                return AffineSolutionSet(None, self.nullspace)
        return AffineSolutionSet(tuple(x), self.nullspace)
