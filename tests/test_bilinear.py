"""The sparse bilinear kernel against the dense loops it replaced.

dense_multiply, dense_act_left and dense_act_right are Algebra.multiply,
Bimodule.act_left and Bimodule.act_right as they were before the products
went through linalg.bilinear: a walk over every structure-constant vector.
A bracket was two such products and a subtraction.  They stay here as the
reference the sparse tables must match exactly, on the catalog algebras and
their bimodules, on a densely rebased Tri(T2, T2, T2), on the operator
extensions, and on seeded random rational tensors.  The zero-skipping dense
helpers (vec_add, vec_sub, Matrix.apply) are checked the same way.
"""

import dataclasses
import random

import pytest

from trilie.algebra import Algebra
from trilie.bimodule import Bimodule
from trilie.catalog import catalog_names, load_catalog
from trilie.extension import build_operator_extension
from trilie.linalg import ZERO, Matrix, scalar, unit_vector, vec_add, vec_sub

from test_coefficient_matrix import rebased_tri_t2_t2_t2

# small rationals with repeats, half of them zero
POOL = [0, 0, 0, 0, 0, 1, 1, -1, 2, "1/2", "-3/4", "5/3"]


def dense_multiply(alg, x, y):
    out = [ZERO] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = alg.struct_consts[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, c in enumerate(row[j]):
                if c:
                    out[k] += coeff * c
    return tuple(out)


def dense_bracket(alg, x, y):
    return tuple(a - b for a, b in zip(dense_multiply(alg, x, y), dense_multiply(alg, y, x)))


def dense_act_left(bm, a, m):
    out = [ZERO] * bm.dim_m
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, mj in enumerate(m):
            if not mj:
                continue
            coeff = ai * mj
            for k, c in enumerate(bm.left_action[i][j]):
                if c:
                    out[k] += coeff * c
    return tuple(out)


def dense_act_right(bm, m, b):
    out = [ZERO] * bm.dim_m
    for j, mj in enumerate(m):
        if not mj:
            continue
        for i, bi in enumerate(b):
            if not bi:
                continue
            coeff = mj * bi
            for k, c in enumerate(bm.right_action[j][i]):
                if c:
                    out[k] += coeff * c
    return tuple(out)


def random_vector(rng, n):
    return tuple(scalar(rng.choice(POOL)) for _ in range(n))


def elements(rng, n, count=6):
    """Every basis vector, the zero vector, and seeded random vectors."""
    return ([unit_vector(n, i) for i in range(n)] + [(ZERO,) * n]
            + [random_vector(rng, n) for _ in range(count)])


def random_algebra(rng, d):
    """A random rational tensor; Algebra checks only its shape."""
    consts = tuple(tuple(random_vector(rng, d) for _ in range(d)) for _ in range(d))
    return Algebra(d, consts, random_vector(rng, d), "random")


def random_bimodule(rng, da, dm, db):
    a, b = random_algebra(rng, da), random_algebra(rng, db)
    left = tuple(tuple(random_vector(rng, dm) for _ in range(dm)) for _ in range(da))
    right = tuple(tuple(random_vector(rng, dm) for _ in range(db)) for _ in range(dm))
    return Bimodule(a, b, dm, left, right)


def check_algebra(alg, rng):
    xs = elements(rng, alg.dim)
    for x in xs:
        for y in xs:
            assert alg.multiply(x, y) == dense_multiply(alg, x, y)
            assert alg.bracket(x, y) == dense_bracket(alg, x, y)


def check_bimodule(bm, rng):
    for a in elements(rng, bm.algebra_a.dim):
        for m in elements(rng, bm.dim_m):
            assert bm.act_left(a, m) == dense_act_left(bm, a, m)
    for m in elements(rng, bm.dim_m):
        for b in elements(rng, bm.algebra_b.dim):
            assert bm.act_right(m, b) == dense_act_right(bm, m, b)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_algebras_and_bimodules_match_dense(name):
    tri = load_catalog(name)
    rng = random.Random(name)
    for alg in (tri.algebra, tri.part_a, tri.part_b):
        check_algebra(alg, rng)
    check_bimodule(tri.bimodule, rng)


@pytest.mark.parametrize("name", catalog_names())
def test_operator_extensions_match_dense(name):
    ext = build_operator_extension(load_catalog(name)).extended
    rng = random.Random(name)
    check_algebra(ext.algebra, rng)
    check_bimodule(ext.bimodule, rng)


def test_rebased_tri_t2_t2_t2_matches_dense():
    check_algebra(rebased_tri_t2_t2_t2(), random.Random(0))


@pytest.mark.parametrize("seed", range(8))
def test_random_tensors_match_dense(seed):
    rng = random.Random(seed)
    check_algebra(random_algebra(rng, rng.randint(1, 5)), rng)
    check_bimodule(random_bimodule(rng, rng.randint(1, 4), rng.randint(1, 4),
                                   rng.randint(1, 4)), rng)


@pytest.mark.parametrize("seed", range(4))
def test_bracket_is_antisymmetric(seed):
    rng = random.Random(seed)
    alg = random_algebra(rng, 4)
    for x in elements(rng, 4):
        assert alg.bracket(x, x) == (ZERO,) * 4
        for y in elements(rng, 4):
            assert alg.bracket(x, y) == tuple(-c for c in alg.bracket(y, x))


def test_length_mismatch_is_a_value_error():
    tri = load_catalog("tri_t2_plane_q")
    alg, bm = tri.algebra, tri.bimodule
    short, ok = (ZERO,) * (alg.dim - 1), (ZERO,) * alg.dim
    for op in (alg.multiply, alg.bracket):
        with pytest.raises(ValueError):
            op(short, ok)
        with pytest.raises(ValueError):
            op(ok, short)
    a, m, b = (ZERO,) * tri.dim_a, (ZERO,) * tri.dim_m, (ZERO,) * tri.dim_b
    with pytest.raises(ValueError):
        bm.act_left(a + (ZERO,), m)
    with pytest.raises(ValueError):
        bm.act_left(a, m + (ZERO,))
    with pytest.raises(ValueError):
        bm.act_right(m + (ZERO,), b)
    with pytest.raises(ValueError):
        bm.act_right(m, b + (ZERO,))


def test_cached_hash_keeps_dataclass_semantics():
    tri = load_catalog("tri_qq_plane_q")
    alg, bm = tri.algebra, tri.bimodule
    assert hash(alg) == hash((alg.dim, alg.struct_consts, alg.unit))
    assert hash(bm) == hash((bm.algebra_a, bm.algebra_b, bm.dim_m,
                             bm.left_action, bm.right_action))
    renamed = dataclasses.replace(alg, name="other")
    assert renamed == alg and hash(renamed) == hash(alg)
    alg.multiply(alg.unit, alg.unit)  # tables cached on the instance
    assert renamed == alg and dataclasses.replace(bm) == bm
    changed = dataclasses.replace(alg, unit=tuple(-c for c in alg.unit))
    assert changed != alg


@pytest.mark.parametrize("seed", range(6))
def test_zero_skipping_helpers_match_dense(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    for _ in range(20):
        u, v = random_vector(rng, n), random_vector(rng, n)
        assert vec_add(u, v) == tuple(a + b for a, b in zip(u, v))
        assert vec_sub(u, v) == tuple(a - b for a, b in zip(u, v))
        rows = rng.randint(1, 5)
        m = Matrix(rows, n, tuple(random_vector(rng, n) for _ in range(rows)))
        assert m.apply(v) == tuple(sum((a * b for a, b in zip(row, v)), ZERO)
                                   for row in m.entries)
    with pytest.raises(ValueError):
        m.apply(v + (ZERO,))
