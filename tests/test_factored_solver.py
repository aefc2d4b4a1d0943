"""The integer FactoredSolver against the Fraction factorization it replaced.

ReferenceFactoredSolver is FactoredSolver as it was before factorization
became fraction-free: an incremental row pick on Scalars, then rref of
[M_picked | I].  Its solve() is the dense one from before the consistency
sweep kept only each row's nonzero entries: it dots every entry of every
non-picked row with the solution.  It stays here as the reference the
integer kernel must match exactly: the same picked rows, pivots, reduced
matrix, rank, nullspace and solutions, on seeded random rational matrices and
on the coefficient systems of the catalog algebras and of a densely rebased
Tri(T2, T2, T2).
"""

import random

import pytest

from trilie.catalog import catalog_names, load_catalog
from trilie.derivations import KINDS, _coefficient_matrix
from trilie.linalg import (
    ONE,
    ZERO,
    AffineSolutionSet,
    FactoredSolver,
    Matrix,
    SubspaceBasis,
    _nullspace_vectors,
    rref,
    scalar,
    solve_affine,
    unit_vector,
    vector,
)

from test_coefficient_matrix import rebased_tri_t2_t2_t2


class ReferenceFactoredSolver(FactoredSolver):
    """The Fraction factorization and the dense solve."""

    def __init__(self, m: Matrix):
        self.matrix = m
        picked = []           # indices of a maximal independent row subset
        echelon = {}          # pivot column -> fully reduced row (list)
        for idx, row in enumerate(m.entries):
            w = list(row)
            for p, erow in echelon.items():
                c = w[p]
                if c:
                    for k in range(m.cols):
                        if erow[k]:
                            w[k] -= c * erow[k]
            lead = next((k for k, x in enumerate(w) if x), None)
            if lead is None:
                continue
            inv = ONE / w[lead]
            if inv != ONE:
                w = [x * inv for x in w]
            for erow in echelon.values():
                c = erow[lead]
                if c:
                    for k in range(m.cols):
                        if w[k]:
                            erow[k] -= c * w[k]
            echelon[lead] = w
            picked.append(idx)
        self.picked = tuple(picked)
        self.rank = len(picked)
        if picked:
            aug = [tuple(m.entries[idx]) + unit_vector(len(picked), pos)
                   for pos, idx in enumerate(picked)]
            reduced, pivots, rank = rref(Matrix.from_rows(aug, m.cols + len(picked)))
            assert rank == len(picked) and all(p < m.cols for p in pivots)
            self._reduced = reduced
            self._pivots = pivots
        else:
            self._reduced = Matrix.zero(0, m.cols)
            self._pivots = ()
        self.nullspace = SubspaceBasis.span(
            m.cols, _nullspace_vectors(self._reduced.entries, self._pivots, m.cols))

    def solve(self, b):
        m = self.matrix
        if len(b) != m.rows:
            raise ValueError(f"right-hand side length {len(b)} != row count {m.rows}")
        x = [ZERO] * m.cols
        n = m.cols
        for i, p in enumerate(self._pivots):
            acc = ZERO
            trow = self._reduced.entries[i]
            for j, idx in enumerate(self.picked):
                t = trow[n + j]
                if t and b[idx]:
                    acc += t * b[idx]
            x[p] = acc
        xt = tuple(x)
        picked_set = set(self.picked)
        for idx, row in enumerate(m.entries):
            if idx in picked_set:
                continue
            dot = ZERO
            for a, c in zip(row, xt):
                if a and c:
                    dot += a * c
            if dot != b[idx]:
                return AffineSolutionSet(None, self.nullspace)
        return AffineSolutionSet(xt, self.nullspace)


def assert_same_factorization(m: Matrix):
    got, ref = FactoredSolver(m), ReferenceFactoredSolver(m)
    assert got.picked == ref.picked
    assert got._pivots == ref._pivots
    assert got._reduced == ref._reduced
    assert got.rank == ref.rank
    assert got.nullspace == ref.nullspace
    return got, ref


def rational(rng):
    """A rational with numerator in [−9, 9] and denominator in [1, 6]."""
    return scalar(rng.randint(-9, 9)) / scalar(rng.randint(1, 6))


def random_matrix(rng, rows, cols, rank):
    """rows×cols of rank ≤ `rank`: sparse rational combinations of `rank`
    random rows, with some rows zero and some repeating an earlier row."""
    gens = [[rational(rng) if rng.random() < 0.6 else ZERO for _ in range(cols)]
            for _ in range(rank)]
    out = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.1 or not gens:
            out.append([ZERO] * cols)
        elif roll < 0.25 and out:
            out.append(list(rng.choice(out)))
        else:
            row = [ZERO] * cols
            for g in gens:
                c = rational(rng) if rng.random() < 0.7 else ZERO
                if c:
                    row = [x + c * y for x, y in zip(row, g)]
            out.append(row)
    return Matrix.from_rows(out, cols)


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 30), rng.randint(1, 12)
        shape = rng.random()
        if shape < 0.15:
            rank = 0
        elif shape < 0.5:
            rank = min(rows, cols)  # full rank, unless the draw is degenerate
        else:
            rank = rng.randint(1, min(rows, cols))
        yield rng, random_matrix(rng, rows, cols, rank)


@pytest.mark.parametrize("seed", range(4))
def test_factorization_matches_reference_on_random_matrices(seed):
    ranks = set()
    inconsistent = 0
    for rng, m in random_cases(seed, 40):
        got, ref = assert_same_factorization(m)
        ranks.add("zero" if got.rank == 0 else
                  "full" if got.rank == min(m.rows, m.cols) else "deficient")
        for attempt in range(4):
            if attempt % 2:
                b = vector([rng.randint(-5, 5) for _ in range(m.rows)])
            else:
                b = m.apply(vector([rational(rng) for _ in range(m.cols)]))
            solution = got.solve(b)
            assert solution == ref.solve(b) == solve_affine(m, b)
            inconsistent += solution.is_empty
    assert ranks == {"zero", "full", "deficient"}
    assert inconsistent > 0


def test_factorization_of_degenerate_shapes():
    for m in (Matrix.zero(0, 3), Matrix.zero(4, 1), Matrix.zero(3, 3),
              Matrix.identity(5), Matrix.from_rows([[1, 2], [1, 2], [2, 4], [0, 0]])):
        got, ref = assert_same_factorization(m)
        b = vector([1] * m.rows)
        assert got.solve(b) == ref.solve(b) == solve_affine(m, b)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("kind", KINDS)
def test_factorization_matches_reference_on_coefficient_systems(name, kind):
    got, _ = assert_same_factorization(_coefficient_matrix(load_catalog(name).algebra, kind))
    assert got.rank + got.nullspace.dim == got.matrix.cols


@pytest.mark.parametrize("kind", KINDS)
def test_factorization_matches_reference_on_rebased_coefficient_systems(kind):
    got, _ = assert_same_factorization(_coefficient_matrix(rebased_tri_t2_t2_t2(), kind))
    assert 0 < got.rank < got.matrix.cols


def assert_same_solution(m: Matrix, b):
    got, ref = FactoredSolver(m), ReferenceFactoredSolver(m)
    solution = got.solve(b)
    assert solution == ref.solve(b) == solve_affine(m, b)
    return solution


def test_sweep_catches_an_inconsistency_only_the_last_row_shows():
    # rows 2..4 depend on rows 0 and 1; b is consistent except in the last row
    m = Matrix.from_rows([[1, 0, 2], [0, 1, -1], [1, 1, 1], [2, -1, 5], [3, 1, 5]])
    b = m.apply(vector([1, 2, 0]))
    assert FactoredSolver(m).picked == (0, 1)
    assert not assert_same_solution(m, b).is_empty
    assert assert_same_solution(m, b[:-1] + (b[-1] + 1,)).is_empty


def test_sweep_checks_rows_that_meet_only_zero_entries_of_x():
    # the particular solution is (1, 0, 0): row 2 is nonzero only where x is
    # zero, and row 3 is zero, so both dot to 0 and b must still be compared
    m = Matrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 2, 2], [0, 0, 0]])
    assert FactoredSolver(m).picked == (0, 1)
    assert assert_same_solution(m, vector([1, 0, 0, 0])).particular == vector([1, 0, 0])
    assert assert_same_solution(m, vector([1, 0, 5, 0])).is_empty
    assert assert_same_solution(m, vector([1, 0, 0, -2])).is_empty


@pytest.mark.parametrize("seed", range(2))
def test_sweep_checks_every_non_picked_row(seed):
    """A consistent b, then b off by one in each non-picked row in turn."""
    checked = 0
    for rng, m in random_cases(100 + seed, 30):
        b = m.apply(vector([rational(rng) for _ in range(m.cols)]))
        assert not assert_same_solution(m, b).is_empty
        for idx in set(range(m.rows)) - set(FactoredSolver(m).picked):
            bad = b[:idx] + (b[idx] + 1,) + b[idx + 1:]
            assert assert_same_solution(m, bad).is_empty
            checked += 1
    assert checked > 50
