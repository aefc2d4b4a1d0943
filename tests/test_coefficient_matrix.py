"""The coefficient-matrix build against the per-tuple loop it replaced.

reference_coefficient_matrix is _coefficient_matrix as it was before the
build kept per-pair and per-(r, q) intermediates: for every constraint tuple
it recomputes the brackets, the composed bracket matrices and the adjoint,
and it coerces the finished rows through Matrix.from_rows.  It stays here as
the reference the build must match entry for entry.
"""

import random

import pytest

from trilie.algebra import Algebra, upper_triangular_2x2, validate_algebra
from trilie.catalog import _regular_bimodule, catalog_names, load_catalog
from trilie.derivations import (
    HIGHER,
    KINDS,
    LIE_HIGHER,
    _coefficient_matrix,
    _constraint_tuples,
)
from trilie.linalg import ZERO, Matrix
from trilie.triangular import build_triangular


def _add_value_block(rows, base, v, sign, d):
    for s in range(d):
        row = rows[base + s]
        for c in range(d):
            if v[c]:
                row[s * d + c] += sign * v[c]


def _add_composed_block(rows, base, outer: Matrix, col, sign, d):
    for s in range(d):
        row = rows[base + s]
        for r in range(d):
            coeff = outer.entries[s][r]
            if coeff:
                row[r * d + col] += sign * coeff


def reference_coefficient_matrix(alg: Algebra, kind: str) -> Matrix:
    d = alg.dim
    tuples = _constraint_tuples(alg, kind)
    rows = [[ZERO] * (d * d) for _ in range(d * len(tuples))]
    basis = [alg.basis_vector(i) for i in range(d)]
    left = [alg.left_mult_matrix(b) for b in basis]
    right = [alg.right_mult_matrix(b) for b in basis]
    rbrk = [right[q] - left[q] for q in range(d)]

    for t, tup in enumerate(tuples):
        base = t * d
        if kind == HIGHER:
            p, q = tup
            _add_value_block(rows, base, alg.struct_consts[p][q], 1, d)
            _add_composed_block(rows, base, right[q], p, -1, d)
            _add_composed_block(rows, base, left[p], q, -1, d)
        elif kind == LIE_HIGHER:
            p, q = tup
            _add_value_block(rows, base, alg.bracket(basis[p], basis[q]), 1, d)
            _add_composed_block(rows, base, rbrk[q], p, -1, d)
            _add_composed_block(rows, base, rbrk[p], q, 1, d)
        else:
            p, q, r = tup
            w = alg.bracket(basis[p], basis[q])
            _add_value_block(rows, base, alg.bracket(w, basis[r]), 1, d)
            _add_composed_block(rows, base, rbrk[r].mul(rbrk[q]), p, -1, d)
            _add_composed_block(rows, base, rbrk[r].mul(rbrk[p]), q, 1, d)
            _add_composed_block(rows, base, alg.adjoint_matrix(w), r, -1, d)
    return Matrix.from_rows([tuple(row) for row in rows], d * d)


def rebased(alg: Algebra, seed: int) -> Algebra:
    """alg in the basis given by the columns of an integer unimodular P: the
    product of elementary column additions with multipliers ±1, ±2."""
    d = alg.dim
    rng = random.Random(seed)
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    p_inv = [row[:] for row in p]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:            # column j += c · column i
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]  # row i −= c · row j

    def coords(v):
        return [sum(p_inv[i][k] * v[k] for k in range(d)) for i in range(d)]

    cols = [[p[k][i] for k in range(d)] for i in range(d)]
    table = [[coords(alg.multiply(cols[i], cols[j])) for j in range(d)] for i in range(d)]
    return Algebra.from_table(d, table, coords(alg.unit), alg.name + "-rebased")


def rebased_tri_t2_t2_t2() -> Algebra:
    """Tri(T2, T2, T2) (d = 9) with regular actions, in a dense integer basis."""
    t2 = upper_triangular_2x2()
    return rebased(build_triangular(t2, _regular_bimodule(t2), t2).algebra, seed=0)


def test_rebased_algebra_is_valid_and_dense():
    alg = rebased_tri_t2_t2_t2()
    assert validate_algebra(alg) == ()
    nonzero = sum(1 for row in alg.struct_consts for v in row for x in v if x)
    assert nonzero > 80  # the plain basis of Tri(T2, T2, T2) has 16


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("kind", KINDS)
def test_build_matches_reference_on_catalog(name, kind):
    alg = load_catalog(name).algebra
    assert _coefficient_matrix(alg, kind) == reference_coefficient_matrix(alg, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_build_matches_reference_on_rebased_tri_t2_t2_t2(kind):
    alg = rebased_tri_t2_t2_t2()
    assert _coefficient_matrix(alg, kind) == reference_coefficient_matrix(alg, kind)
