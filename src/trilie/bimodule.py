"""Bimodules over a pair of unital algebras, given by action tensors.

left_action[i][j] holds the coordinates of (A-basis_i)·(M-basis_j);
right_action[j][i] holds the coordinates of (M-basis_j)·(B-basis_i).
Validation rechecks the module axioms exactly on basis triples, which by
bilinearity settles them for all elements.  Both actions are one pass over a
sparse table of their nonzero constants (linalg.bilinear), built once per
bimodule.
"""

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, Violation
from .linalg import Matrix, bilinear, nullspace, sparse_table, unit_vector, vector


@dataclass(frozen=True)
class Bimodule:
    algebra_a: Algebra
    algebra_b: Algebra
    dim_m: int
    left_action: tuple
    right_action: tuple

    def __post_init__(self):
        assert len(self.left_action) == self.algebra_a.dim
        for row in self.left_action:
            assert len(row) == self.dim_m
            for entry in row:
                assert len(entry) == self.dim_m
        assert len(self.right_action) == self.dim_m
        for row in self.right_action:
            assert len(row) == self.algebra_b.dim
            for entry in row:
                assert len(entry) == self.dim_m

    @staticmethod
    def from_tables(algebra_a, algebra_b, dim_m, left_table, right_table) -> "Bimodule":
        left = tuple(
            tuple(vector(left_table[i][j]) for j in range(dim_m))
            for i in range(algebra_a.dim))
        right = tuple(
            tuple(vector(right_table[j][i]) for i in range(algebra_b.dim))
            for j in range(dim_m))
        return Bimodule(algebra_a, algebra_b, dim_m, left, right)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once (see Algebra._hash)
        return hash((self.algebra_a, self.algebra_b, self.dim_m,
                     self.left_action, self.right_action))

    @cached_property
    def _left_table(self) -> tuple:
        return sparse_table(self.left_action)

    @cached_property
    def _right_table(self) -> tuple:
        return sparse_table(self.right_action)

    def act_left(self, a, m):
        if len(a) != self.algebra_a.dim or len(m) != self.dim_m:
            raise ValueError("left action dimension mismatch")
        return bilinear(self._left_table, a, m, self.dim_m)

    def act_right(self, m, b):
        if len(b) != self.algebra_b.dim or len(m) != self.dim_m:
            raise ValueError("right action dimension mismatch")
        return bilinear(self._right_table, m, b, self.dim_m)

    def act(self, a, m, b=None):
        """a·m, m·b, or a·m·b; pass None to skip a side."""
        result = m
        if a is not None:
            result = self.act_left(a, result)
        if b is not None:
            result = self.act_right(result, b)
        return result

    def left_operator(self, a) -> Matrix:
        """Matrix of m ↦ a·m."""
        return Matrix.from_columns(
            [self.act_left(a, self.m_basis(j)) for j in range(self.dim_m)],
            self.dim_m)

    def right_operator(self, b) -> Matrix:
        """Matrix of m ↦ m·b."""
        return Matrix.from_columns(
            [self.act_right(self.m_basis(j), b) for j in range(self.dim_m)],
            self.dim_m)

    def m_basis(self, j):
        return unit_vector(self.dim_m, j)


def validate_bimodule(bm: Bimodule) -> tuple:
    """Exact recheck of unitality, associativity of both actions, and
    compatibility (a·m)·b = a·(m·b) on all basis triples."""
    violations = []
    a_alg, b_alg = bm.algebra_a, bm.algebra_b
    m_basis = [bm.m_basis(j) for j in range(bm.dim_m)]
    for j, mj in enumerate(m_basis):
        if bm.act_left(a_alg.unit, mj) != mj:
            violations.append(Violation(
                "left-unital", (j,), f"1_A·m{j} differs from m{j}"))
        if bm.act_right(mj, b_alg.unit) != mj:
            violations.append(Violation(
                "right-unital", (j,), f"m{j}·1_B differs from m{j}"))
    for i in range(a_alg.dim):
        ai = a_alg.basis_vector(i)
        for k in range(a_alg.dim):
            ak = a_alg.basis_vector(k)
            prod = a_alg.multiply(ai, ak)
            for j, mj in enumerate(m_basis):
                if bm.act_left(prod, mj) != bm.act_left(ai, bm.act_left(ak, mj)):
                    violations.append(Violation(
                        "left-associativity", (i, k, j),
                        f"(a{i}·a{k})·m{j} differs from a{i}·(a{k}·m{j})"))
    for i in range(b_alg.dim):
        bi = b_alg.basis_vector(i)
        for k in range(b_alg.dim):
            bk = b_alg.basis_vector(k)
            prod = b_alg.multiply(bi, bk)
            for j, mj in enumerate(m_basis):
                if bm.act_right(mj, prod) != bm.act_right(bm.act_right(mj, bi), bk):
                    violations.append(Violation(
                        "right-associativity", (j, i, k),
                        f"m{j}·(b{i}·b{k}) differs from (m{j}·b{i})·b{k}"))
    for i in range(a_alg.dim):
        ai = a_alg.basis_vector(i)
        for j, mj in enumerate(m_basis):
            for k in range(b_alg.dim):
                bk = b_alg.basis_vector(k)
                if bm.act_right(bm.act_left(ai, mj), bk) != \
                        bm.act_left(ai, bm.act_right(mj, bk)):
                    violations.append(Violation(
                        "compatibility", (i, j, k),
                        f"(a{i}·m{j})·b{k} differs from a{i}·(m{j}·b{k})"))
    return tuple(violations)


def check_faithful(bm: Bimodule, side: str) -> bool:
    """True iff no nonzero element of the acting algebra kills all of M.

    The representation a ↦ (m ↦ a·m) is linear; faithfulness is exactly a
    trivial kernel for its flattened matrix.
    """
    if side == "left":
        dim, operator = bm.algebra_a.dim, bm.left_operator
        basis = bm.algebra_a.basis_vector
    elif side == "right":
        dim, operator = bm.algebra_b.dim, bm.right_operator
        basis = bm.algebra_b.basis_vector
    else:
        raise ValueError("side must be 'left' or 'right'")
    columns = [operator(basis(i)).flatten() for i in range(dim)]
    rep = Matrix.from_columns(columns, bm.dim_m * bm.dim_m)
    return nullspace(rep).dim == 0
