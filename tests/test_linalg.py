"""Kernel tests: exact RREF, nullspaces, affine solves, canonical subspaces.

Expected values come from hand elimination; ranks are cross-checked against
an independent determinant-of-minors oracle that never runs row reduction.
"""

import itertools
import random

import pytest

from trilie.linalg import (
    ONE,
    ZERO,
    AffineSolutionSet,
    FactoredSolver,
    Matrix,
    SubspaceBasis,
    matrix_from_flat,
    nullspace,
    rref,
    scalar,
    solve_affine,
    subspace_intersection,
    subspace_sum,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)


def det_oracle(rows):
    """Cofactor-expansion determinant; independent of the elimination code."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        sign = ONE if j % 2 == 0 else -ONE
        total += sign * rows[0][j] * det_oracle(minor)
    return total


def rank_oracle(m: Matrix) -> int:
    """Largest k with a nonzero k×k minor (brute force over submatrices)."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in cs] for i in rs]
                if det_oracle(sub):
                    return k
    return 0


def rand_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[scalar(rng.randint(-4, 4)) / scalar(rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)],
        cols)


def test_scalar_coercion():
    assert scalar("3/4") == scalar(3) / scalar(4)
    assert scalar("-2") == -scalar(2)
    assert scalar(" 7/2 ") == scalar(7) / scalar(2)
    assert str(scalar("4/6")) == "2/3"  # lowest terms
    with pytest.raises(ValueError):
        scalar("1.5")
    with pytest.raises(ValueError):
        scalar("1e3")
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        scalar(True)


def test_scalar_arithmetic_exact():
    a = scalar("3/7")
    assert a * (ONE / a) == ONE
    assert scalar("1/3") + scalar("1/6") == scalar("1/2")
    q = scalar("-4/6")
    assert q.numerator == -2 and q.denominator == 3  # normalized, denominator > 0


def test_rref_identity_and_zero():
    ident = Matrix.identity(2)
    r, piv, rank = rref(ident)
    assert r == ident and piv == (0, 1) and rank == 2
    z = Matrix.zero(2, 2)
    r, piv, rank = rref(z)
    assert r == z and piv == () and rank == 0


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    r, piv, rank = rref(m)
    assert r.entries == (vector([1, 2]), vector([0, 0]))
    assert piv == (0,) and rank == 1
    assert rank_oracle(m) == 1


def test_rref_swap_case():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    r, piv, rank = rref(m)
    assert r == Matrix.identity(2) and rank == 2


def test_rref_properties_random():
    rng = random.Random(101)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        r, piv, rank = rref(m)
        assert rank == rank_oracle(m)
        r2, piv2, rank2 = rref(r)
        assert r2 == r and piv2 == piv and rank2 == rank  # idempotent
        ns = nullspace(m)
        assert rank + ns.dim == m.cols
        for v in ns.vectors:
            assert vec_is_zero(m.apply(v))


def test_nullspace_examples():
    assert nullspace(Matrix.identity(3)).dim == 0
    full = nullspace(Matrix.zero(2, 3))
    assert full.dim == 3
    ns = nullspace(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ns.dim == 1
    (v,) = ns.vectors
    # canonical representative of span{(-2, 1)}
    assert SubspaceBasis.span(2, [vector([-2, 1])]).vectors == (v,)


def test_solve_affine_identity_and_zero():
    b = vector([3, -1])
    sol = solve_affine(Matrix.identity(2), b)
    assert sol.particular == b and sol.homogeneous.dim == 0
    sol = solve_affine(Matrix.zero(2, 2), zero_vector(2))
    assert sol.particular == zero_vector(2) and sol.homogeneous.dim == 2
    sol = solve_affine(Matrix.zero(1, 2), vector([1]))
    assert sol.is_empty


def test_solve_affine_underdetermined():
    m = Matrix.from_rows([[1, 1]])
    sol = solve_affine(m, vector([3]))
    assert sol.particular == vector([3, 0])
    assert sol.homogeneous.vectors == SubspaceBasis.span(2, [vector([-1, 1])]).vectors
    for t in (-2, 0, 5):
        member = vec_add(sol.particular, vec_scale(scalar(t), sol.homogeneous.vectors[0]))
        assert m.apply(member) == vector([3])
        assert sol.contains(member)


def test_solve_affine_consistency_matches_rank_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        b = vector([rng.randint(-3, 3) for _ in range(rows)])
        sol = solve_affine(m, b)
        aug = Matrix.from_rows([r + (bi,) for r, bi in zip(m.entries, b)], cols + 1)
        assert sol.is_empty == (rank_oracle(aug) > rank_oracle(m))
        if not sol.is_empty:
            assert m.apply(sol.particular) == b


def test_subspace_canonical_equality():
    s1 = SubspaceBasis.span(2, [vector([1, 2]), vector([3, 6])])
    s2 = SubspaceBasis.span(2, [vector([2, 4])])
    assert s1 == s2 and s1.dim == 1
    assert s1.contains(vector([2, 4]))
    assert not s1.contains(vector([1, 0]))
    assert s1.contains(zero_vector(2))
    empty = SubspaceBasis.span(2, [])
    assert not empty.contains(vector([0, 1]))
    assert empty.contains(zero_vector(2))


def test_subspace_coordinates_roundtrip():
    s = SubspaceBasis.span(3, [vector([1, 1, 0]), vector([0, 1, 1])])
    v = vec_add(vec_scale(scalar(2), s.vectors[0]), vec_scale(scalar("-1/2"), s.vectors[1]))
    coords = s.coordinates(v)
    assert coords is not None
    rebuilt = zero_vector(3)
    for c, basis_vec in zip(coords, s.vectors):
        rebuilt = vec_add(rebuilt, vec_scale(c, basis_vec))
    assert rebuilt == v
    assert s.coordinates(vector([1, 0, 0])) is None


def test_annihilator_characterizes_membership():
    rng = random.Random(23)
    for _ in range(20):
        dim = rng.randint(1, 5)
        gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        s = SubspaceBasis.span(dim, gens)
        k = s.annihilator()
        for v in s.vectors:
            assert vec_is_zero(k.apply(v))
        for _ in range(5):
            v = vector([rng.randint(-3, 3) for _ in range(dim)])
            assert s.contains(v) == vec_is_zero(k.apply(v))


def test_subspace_sum_and_intersection():
    e = [unit_vector(3, i) for i in range(3)]
    s12 = SubspaceBasis.span(3, [e[0], e[1]])
    s23 = SubspaceBasis.span(3, [e[1], e[2]])
    assert subspace_intersection(s12, s23) == SubspaceBasis.span(3, [e[1]])
    assert subspace_sum(s12, s23).dim == 3
    diag = SubspaceBasis.span(2, [vector([1, 1])])
    anti = SubspaceBasis.span(2, [vector([1, -1])])
    assert subspace_intersection(diag, anti).dim == 0


def test_affine_set_containment():
    line = solve_affine(Matrix.from_rows([[1, 1]]), vector([3]))
    plane = solve_affine(Matrix.zero(1, 2), zero_vector(1))
    assert plane.contains_set(line)
    assert not line.contains_set(plane)
    empty = AffineSolutionSet(None, SubspaceBasis.span(2, []))
    assert line.contains_set(empty) and not empty.contains_set(line)


def test_factored_solver_matches_solve_affine():
    rng = random.Random(42)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        solver = FactoredSolver(m)
        assert solver.nullspace == nullspace(m)
        for _ in range(3):
            if rng.random() < 0.5 and not vec_is_zero(m.apply(zero_vector(cols))):
                b = vector([rng.randint(-3, 3) for _ in range(rows)])
            else:
                x = vector([rng.randint(-3, 3) for _ in range(cols)])
                b = m.apply(x)  # guaranteed consistent
            expected = solve_affine(m, b)
            got = solver.solve(b)
            assert got.is_empty == expected.is_empty
            assert got.homogeneous == expected.homogeneous
            if not expected.is_empty:
                assert m.apply(got.particular) == b
                assert expected.contains(got.particular) and got.contains(expected.particular)


def test_matrix_flatten_roundtrip():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert matrix_from_flat(m.flatten(), 2, 3) == m
    assert m.transpose().transpose() == m
    assert m.column(1) == vector([2, 5])


def test_matrix_product_vs_apply():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    b = Matrix.from_rows([["1/2", 0], [3, -1]])
    ab = a.mul(b)
    for j in range(2):
        assert ab.column(j) == a.apply(b.column(j))
    with pytest.raises(ValueError):
        a.mul(Matrix.zero(3, 3))
    with pytest.raises(ValueError):
        a.apply(vector([1, 2, 3]))
