"""Algebra-core tests.

T₂ and M₂ products are cross-checked against an independent dense
matrix-multiplication oracle; centers against a brute-force commutation scan.
"""

import pytest

from trilie.algebra import (
    Algebra,
    LinearMap,
    center,
    commutator_subspace,
    dual_numbers,
    full_matrix_algebra,
    is_commutative,
    product_of_rationals,
    rationals,
    upper_triangular_2x2,
    validate_algebra,
)
from trilie.linalg import (
    Matrix,
    SubspaceBasis,
    scalar,
    unit_vector,
    vec_is_zero,
    vector,
)


def as_2x2(coords, basis_cells):
    """Expand coordinates into a dense 2×2 grid using the given cell list."""
    grid = [[scalar(0)] * 2 for _ in range(2)]
    for coeff, (r, c) in zip(coords, basis_cells):
        grid[r][c] += coeff
    return grid


def dense_product(x, y):
    return [[sum((x[r][k] * y[k][c] for k in range(2)), scalar(0))
             for c in range(2)] for r in range(2)]


T2_CELLS = [(0, 0), (0, 1), (1, 1)]
M2_CELLS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_t2_products_match_matrix_oracle():
    t2 = upper_triangular_2x2()
    assert validate_algebra(t2) == ()
    for i in range(3):
        for j in range(3):
            got = t2.multiply(unit_vector(3, i), unit_vector(3, j))
            expected = dense_product(as_2x2(unit_vector(3, i), T2_CELLS),
                                     as_2x2(unit_vector(3, j), T2_CELLS))
            assert as_2x2(got, T2_CELLS) == expected
    e11, e12 = unit_vector(3, 0), unit_vector(3, 1)
    assert t2.multiply(e11, e12) == e12
    assert vec_is_zero(t2.multiply(e12, e11))


def test_full_matrix_algebra_products():
    m2 = full_matrix_algebra(2)
    assert validate_algebra(m2) == ()
    for i in range(4):
        for j in range(4):
            got = m2.multiply(unit_vector(4, i), unit_vector(4, j))
            expected = dense_product(as_2x2(unit_vector(4, i), M2_CELLS),
                                     as_2x2(unit_vector(4, j), M2_CELLS))
            assert as_2x2(got, M2_CELLS) == expected


def test_unit_axiom_and_dual_numbers():
    dual = dual_numbers()
    assert validate_algebra(dual) == ()
    eps = unit_vector(2, 1)
    assert vec_is_zero(dual.multiply(eps, eps))
    x = vector([3, "1/2"])
    assert dual.multiply(dual.unit, x) == x
    assert dual.multiply(x, dual.unit) == x
    assert validate_algebra(rationals()) == ()


def test_validate_flags_perturbed_constant():
    dual = dual_numbers()
    table = [[list(v) for v in row] for row in dual.struct_consts]
    table[0][0][0] += scalar(1)  # break 1·1 = 1
    broken = Algebra.from_table(2, table, dual.unit)
    report = validate_algebra(broken)
    assert report
    laws = {v.law for v in report}
    assert laws & {"associativity", "left-unit", "right-unit"}


def test_validate_flags_nonassociative_constants():
    # b1·b1 = b0 with unit b0 is fine; force (b1·b1)·b1 ≠ b1·(b1·b1) instead
    table = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    alg = Algebra.from_table(2, table, [1, 0])
    report = validate_algebra(alg)
    quads = [v.where for v in report if v.law == "associativity"]
    for where in quads:
        i, j, k, l = where
        lhs = alg.multiply(alg.multiply(alg.basis_vector(i), alg.basis_vector(j)),
                           alg.basis_vector(k))
        rhs = alg.multiply(alg.basis_vector(i),
                           alg.multiply(alg.basis_vector(j), alg.basis_vector(k)))
        assert lhs[l] != rhs[l]  # every reported quadruple is a real violation


def brute_force_center(alg):
    """Independent scan: test every candidate from a full nullspace build."""
    from trilie.linalg import Matrix as M, nullspace
    rows = []
    d = alg.dim
    for j in range(d):
        bj = alg.basis_vector(j)
        for k in range(d):
            # row of the k-th coordinate of z·b_j − b_j·z as a function of z
            row = []
            for i in range(d):
                bi = alg.basis_vector(i)
                diff = alg.multiply(bi, bj)[k] - alg.multiply(bj, bi)[k]
                row.append(diff)
            rows.append(row)
    return nullspace(M.from_rows(rows, d))


@pytest.mark.parametrize("alg,expected_dim", [
    (product_of_rationals(2), 2),
    (upper_triangular_2x2(), 1),
    (dual_numbers(), 2),
    (full_matrix_algebra(2), 1),
])
def test_center_dimensions_and_oracle(alg, expected_dim):
    z = center(alg)
    assert z.dim == expected_dim
    assert z == brute_force_center(alg)
    assert z.contains(vector(alg.unit))
    for v in z.vectors:
        for j in range(alg.dim):
            bj = alg.basis_vector(j)
            assert alg.multiply(v, bj) == alg.multiply(bj, v)


def test_commutator_subspaces():
    assert commutator_subspace(product_of_rationals(2)).dim == 0
    assert is_commutative(dual_numbers())
    t2 = commutator_subspace(upper_triangular_2x2())
    assert t2 == SubspaceBasis.span(3, [unit_vector(3, 1)])  # span{e12}
    m2 = commutator_subspace(full_matrix_algebra(2))
    assert m2.dim == 3
    # trace-zero: e00 + e11 has trace 2, must lie outside
    assert not m2.contains(vector([1, 0, 0, 1]))
    assert m2.contains(vector([1, 0, 0, -1]))


def test_mult_matrices_agree_with_multiply():
    t2 = upper_triangular_2x2()
    x = vector([2, "1/3", -1])
    left = t2.left_mult_matrix(x)
    right = t2.right_mult_matrix(x)
    for j in range(3):
        bj = t2.basis_vector(j)
        assert left.column(j) == t2.multiply(x, bj)
        assert right.column(j) == t2.multiply(bj, x)
    y = vector([1, 4, "5/7"])
    assert t2.adjoint_matrix(x).apply(y) == t2.bracket(x, y)


def test_linear_map_algebra():
    ident = LinearMap.identity(2)
    m = LinearMap.from_matrix(Matrix.from_rows([[1, 2], [0, 1]]))
    assert m.compose(ident).matrix == m.matrix
    assert (m - m).is_zero()
    assert (m + m).matrix == m.matrix.scale(scalar(2))
    v = vector([1, 1])
    assert m.apply(v) == vector([3, 1])
    assert LinearMap.zero(2, 3).apply(v) == vector([0, 0, 0])
    cols = [vector([1, 0]), vector([1, 1]), vector([0, 2])]
    fm = LinearMap.from_columns(cols, 2)
    assert fm.source_dim == 3 and fm.matrix.column(2) == vector([0, 2])
