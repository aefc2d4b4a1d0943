"""Finite-dimensional unital associative algebras over the rationals.

An algebra is presented by a dense structure-constant tensor: basis_i times
basis_j equals the linear combination stored at struct_consts[i][j].  The
basis order is the order of the presentation and is never permuted, so every
computed object (center bases, derivation spaces, reports) is deterministic.

Algebras are always unital and the unit's coordinates must be supplied
explicitly rather than searched for.

Products and brackets are one pass over a sparse table of the nonzero
structure constants (linalg.bilinear); the bracket table holds the
constants c_ij − c_ji of xy − yx.  The tables and the hash are computed once
per algebra and cached on the instance.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .linalg import (
    Matrix,
    SubspaceBasis,
    bilinear,
    format_vector,
    nullspace,
    sparse_table,
    unit_vector,
    vec_is_zero,
    vec_sub,
    vector,
)


@dataclass(frozen=True)
class Violation:
    """One failed exact identity: which law, at which basis indices."""

    law: str
    where: tuple
    message: str

    def __str__(self):
        return f"{self.law} at {self.where}: {self.message}"


@dataclass(frozen=True)
class LinearMap:
    """A linear map stored as a matrix whose columns are basis images."""

    source_dim: int
    target_dim: int
    matrix: Matrix

    def __post_init__(self):
        assert self.matrix.rows == self.target_dim
        assert self.matrix.cols == self.source_dim

    @staticmethod
    def from_matrix(m: Matrix) -> "LinearMap":
        return LinearMap(m.cols, m.rows, m)

    @staticmethod
    def from_columns(columns, target_dim: int) -> "LinearMap":
        cols = list(columns)
        return LinearMap(
            len(cols), target_dim,
            Matrix.from_columns(cols, target_dim))

    @staticmethod
    def identity(dim: int) -> "LinearMap":
        return LinearMap(dim, dim, Matrix.identity(dim))

    @staticmethod
    def zero(source_dim: int, target_dim: int) -> "LinearMap":
        return LinearMap(source_dim, target_dim, Matrix.zero(target_dim, source_dim))

    def apply(self, v):
        return self.matrix.apply(v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target_dim != self.source_dim:
            raise ValueError("composition dimension mismatch")
        return LinearMap(other.source_dim, self.target_dim, self.matrix.mul(other.matrix))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim, self.matrix - other.matrix)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim, -self.matrix)

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.source_dim, self.target_dim, self.matrix.scale(c))


@dataclass(frozen=True)
class Algebra:
    """Structure-constant presentation of a unital associative algebra.

    struct_consts[i][j] holds the coordinates of basis_i · basis_j.  The
    presentation is immutable and hashable, so derived data (center,
    derivation spaces) can be cached on the value itself.
    """

    dim: int
    struct_consts: tuple
    unit: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        assert len(self.struct_consts) == self.dim
        for row in self.struct_consts:
            assert len(row) == self.dim
            for entry in row:
                assert len(entry) == self.dim
        assert len(self.unit) == self.dim

    @staticmethod
    def from_table(dim: int, table, unit, name: str = "") -> "Algebra":
        consts = tuple(
            tuple(vector(table[i][j]) for j in range(dim))
            for i in range(dim))
        return Algebra(dim, consts, vector(unit), name)

    def basis_vector(self, i: int):
        return unit_vector(self.dim, i)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash of the compared fields, computed once: lru_cache
        # lookups keyed by an algebra would otherwise rehash d³ scalars
        return hash((self.dim, self.struct_consts, self.unit))

    @cached_property
    def _product_table(self) -> tuple:
        return sparse_table(self.struct_consts)

    @cached_property
    def _bracket_table(self) -> tuple:
        sc = self.struct_consts
        return sparse_table([[vec_sub(sc[i][j], sc[j][i]) for j in range(self.dim)]
                             for i in range(self.dim)])

    def _check_operands(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element length does not match algebra dimension")

    def multiply(self, x, y):
        self._check_operands(x, y)
        return bilinear(self._product_table, x, y, self.dim)

    def bracket(self, x, y):
        """[x, y] = xy − yx, in one pass over the constants c_ij − c_ji."""
        self._check_operands(x, y)
        return bilinear(self._bracket_table, x, y, self.dim)

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of v ↦ x·v (columns are x · basis_j)."""
        return Matrix.from_columns(
            [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)], self.dim)

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of v ↦ v·x (columns are basis_j · x)."""
        return Matrix.from_columns(
            [self.multiply(self.basis_vector(j), x) for j in range(self.dim)], self.dim)

    def adjoint_matrix(self, x) -> Matrix:
        """Matrix of v ↦ [x, v]."""
        return Matrix.from_columns(
            [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)], self.dim)


def validate_algebra(alg: Algebra) -> tuple:
    """Exact recheck of associativity and the unit axioms.

    Returns every violated identity: associativity failures are reported per
    coordinate as (i, j, k, l) meaning coordinate l of (b_i·b_j)·b_k differs
    from b_i·(b_j·b_k); unit failures name the side and the basis index.
    """
    violations = []
    d = alg.dim
    for j in range(d):
        bj = alg.basis_vector(j)
        left = alg.multiply(alg.unit, bj)
        if left != bj:
            violations.append(Violation(
                "left-unit", (j,),
                f"unit·b{j} = {format_vector(left)} differs from b{j}"))
        right = alg.multiply(bj, alg.unit)
        if right != bj:
            violations.append(Violation(
                "right-unit", (j,),
                f"b{j}·unit = {format_vector(right)} differs from b{j}"))
    basis = [alg.basis_vector(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            ij = alg.struct_consts[i][j]
            for k in range(d):
                lhs = alg.multiply(ij, basis[k])
                rhs = alg.multiply(basis[i], alg.struct_consts[j][k])
                if lhs != rhs:
                    for l in range(d):
                        if lhs[l] != rhs[l]:
                            violations.append(Violation(
                                "associativity", (i, j, k, l),
                                f"coordinate {l} of (b{i}·b{j})·b{k} is "
                                f"{lhs[l]}, of b{i}·(b{j}·b{k}) is {rhs[l]}"))
    return tuple(violations)


@lru_cache(maxsize=None)
def center(alg: Algebra) -> SubspaceBasis:
    """Basis of {z : z·x = x·z for all x}, from one stacked nullspace.

    The commutation constraint against basis_j is linear in z: column k of
    the constraint block is b_k·b_j − b_j·b_k.
    """
    d = alg.dim
    blocks = []
    for j in range(d):
        cols = []
        for k in range(d):
            cols.append(vec_sub(alg.struct_consts[k][j], alg.struct_consts[j][k]))
        blocks.append(Matrix.from_columns(cols, d))
    stacked = blocks[0]
    for block in blocks[1:]:
        stacked = stacked.vstack(block)
    basis = nullspace(stacked)
    assert basis.contains(vector(alg.unit)), "center must contain the unit"
    return basis


@lru_cache(maxsize=None)
def commutator_subspace(alg: Algebra) -> SubspaceBasis:
    """Span of all basis commutators [b_i, b_j]."""
    gens = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            g = vec_sub(alg.struct_consts[i][j], alg.struct_consts[j][i])
            if not vec_is_zero(g):
                gens.append(g)
    return SubspaceBasis.span(alg.dim, gens)


def is_commutative(alg: Algebra) -> bool:
    return commutator_subspace(alg).dim == 0


def rationals(name: str = "Q") -> Algebra:
    """The one-dimensional algebra of rational scalars."""
    return Algebra.from_table(1, [[[1]]], [1], name)


def product_of_rationals(k: int, name: str = "") -> Algebra:
    """The split commutative algebra of k coordinatewise factors."""
    table = [[[1 if i == j == l else 0 for l in range(k)]
              for j in range(k)] for i in range(k)]
    return Algebra.from_table(k, table, [1] * k, name or f"Q^{k}")


def upper_triangular_2x2(name: str = "T2") -> Algebra:
    """Upper triangular 2×2 rational matrices, basis (e11, e12, e22)."""
    e11, e12, e22 = 0, 1, 2
    table = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]

    def put(i, j, k):
        table[i][j][k] = 1

    put(e11, e11, e11)
    put(e11, e12, e12)
    put(e12, e22, e12)
    put(e22, e22, e22)
    return Algebra.from_table(3, table, [1, 0, 1], name)


def dual_numbers(name: str = "Q[eps]") -> Algebra:
    """ℚ[ε] with ε² = 0, basis (1, ε)."""
    return Algebra.from_table(2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], name)


def full_matrix_algebra(n: int, name: str = "") -> Algebra:
    """All n×n rational matrices on the basis e[r,c], ordered row-major."""
    dim = n * n

    def idx(r, c):
        return r * n + c

    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            for s in range(n):
                for t in range(n):
                    if c == s:
                        table[idx(r, c)][idx(s, t)][idx(r, t)] = 1
    unit = [0] * dim
    for r in range(n):
        unit[idx(r, r)] = 1
    return Algebra.from_table(dim, table, unit, name or f"M{n}")
