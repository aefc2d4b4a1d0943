"""Level-by-level solvers for derivation-type map sequences.

A sequence L_0, L_1, ..., L_N of linear maps with L_0 = id is constrained at
each level n ≥ 1 by one of three identities, imposed on basis tuples (which
settles them everywhere, by multilinearity):

  higher             L_n(xy)      = Σ_{i+j=n} L_i(x)·L_j(y)
  lie-higher         L_n([x,y])   = Σ_{i+j=n} [L_i(x), L_j(y)]
  lie-triple-higher  L_n([[x,y],z]) = Σ_{i+j+k=n} [[L_i(x), L_j(y)], L_k(z)]

Each identity is affine-linear in the unknown L_n once L_0..L_{n-1} are
fixed: the terms containing L_n form a linear operator on its matrix entries
that does not depend on n, and everything else moves to the right-hand side.
Consequently one matrix factorization per (algebra, kind) serves every level,
every prefix, and every sampled sequence; the homogeneous solution space at
any level is the level-1 space of the same kind.

Solving at level n uses only the prefix L_0..L_{n-1}; verification re-checks
the defining identities directly.  The two paths are deliberately separate
code: checks never read the coefficient matrix or the level offset, so a term
the solver dropped cannot also be dropped by the check that passes its
output.  Every check (verify_sequence here, and the convolution laws that
decomposition.verify_properness and the probe recheck) goes through one
evaluator, _Law.  It reads each map's basis images once as matrix columns
and keeps prefix partial sums: for the double-bracket law the pair sums
P_s(p, q) = Σ_{i+j=s} [L_i(b_p), L_j(b_q)] are computed once and reused for
every third index r and every later level, so

  rhs_n(p, q, r) = Σ_{k=0..n} [P_{n−k}(p, q), L_k(b_r)].

The solver's lie-triple offset needs the same pair sums, but it keeps its
own code.  level_system and the *_extend functions compute the offset of
the prefix they are given from scratch (_level_offset).  Only inside
sample_sequence, where the prefix grows one level at a time, are the pair
sums carried from level to level (_LevelOffsets), so a level costs O(n)
brackets per pair instead of O(n²).  Every product and bracket, on both
paths, is one pass over the algebra's sparse structure-constant table
(linalg.bilinear).
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .algebra import Algebra, LinearMap, Violation
from .linalg import (
    AffineSolutionSet,
    FactoredSolver,
    Matrix,
    ZERO,
    format_vector,
    matrix_from_flat,
    scalar,
    vec_add,
    vec_scale,
    zero_vector,
)

HIGHER = "higher"
LIE_HIGHER = "lie-higher"
LIE_TRIPLE_HIGHER = "lie-triple-higher"
KINDS = (HIGHER, LIE_HIGHER, LIE_TRIPLE_HIGHER)


class SequenceError(ValueError):
    """A map sequence is malformed, or its prefix cannot be extended."""


@dataclass(frozen=True)
class HigherMapSequence:
    """Maps L_0..L_N of one kind on a fixed algebra; L_0 is the identity."""

    kind: str
    levels: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SequenceError(f"unknown kind {self.kind!r}")
        if not self.levels:
            raise SequenceError("a sequence holds at least L_0")

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def prefix(self, n: int) -> "HigherMapSequence":
        """The truncation L_0..L_n."""
        return HigherMapSequence(self.kind, self.levels[:n + 1])


@dataclass(frozen=True)
class LevelSystem:
    """The linear system `matrix · vec(L_n) = offset` for the next level.

    vec is the row-major flattening of the map's matrix.  The matrix depends
    only on the algebra and the kind; the offset collects the lower-level
    convolution terms.
    """

    matrix: Matrix
    offset: tuple


def map_to_vector(m: LinearMap):
    return m.matrix.flatten()


def map_from_vector(v, dim: int) -> LinearMap:
    return LinearMap.from_matrix(matrix_from_flat(v, dim, dim))


def _constraint_tuples(alg: Algebra, kind: str):
    d = alg.dim
    if kind == HIGHER:
        return tuple((p, q) for p in range(d) for q in range(d))
    if kind == LIE_HIGHER:
        return tuple((p, q) for p in range(d) for q in range(p + 1, d))
    if kind == LIE_TRIPLE_HIGHER:
        return tuple((p, q, r) for p in range(d) for q in range(p + 1, d)
                     for r in range(d))
    raise ValueError(f"unknown kind {kind!r}")


def _nonzeros(m: Matrix):
    """The nonzero entries of m as (row, column, entry)."""
    return [(s, r, c) for s, row in enumerate(m.entries) for r, c in enumerate(row) if c]


def _add_value_block(rows, base, v, d):
    """Add L(v) to the d output rows starting at `base`."""
    support = [(c, x) for c, x in enumerate(v) if x]
    for s in range(d):
        row = rows[base + s]
        for c, x in support:
            row[s * d + c] += x


def _add_composed_block(rows, base, outer, col: int, sign, d):
    """Add sign·outer·(L applied to basis vector `col`) to the output rows;
    outer is a matrix given by its _nonzeros."""
    for s, r, coeff in outer:
        row = rows[base + s]
        if sign > 0:
            row[r * d + col] += coeff
        else:
            row[r * d + col] -= coeff


@lru_cache(maxsize=None)
def _coefficient_matrix(alg: Algebra, kind: str) -> Matrix:
    """Matrix of the L_n-dependent part of the level identity (any n ≥ 1)."""
    d = alg.dim
    tuples = _constraint_tuples(alg, kind)
    rows = [[ZERO] * (d * d) for _ in range(d * len(tuples))]
    basis = [alg.basis_vector(i) for i in range(d)]
    left = [alg.left_mult_matrix(b) for b in basis]
    right = [alg.right_mult_matrix(b) for b in basis]
    # u ↦ [u, b_q]
    rbrk = [right[q] - left[q] for q in range(d)]

    if kind == HIGHER:
        left_nz, right_nz = [_nonzeros(m) for m in left], [_nonzeros(m) for m in right]
        for t, (p, q) in enumerate(tuples):
            base = t * d
            _add_value_block(rows, base, alg.struct_consts[p][q], d)
            # −L(b_p)·b_q − b_p·L(b_q)
            _add_composed_block(rows, base, right_nz[q], p, -1, d)
            _add_composed_block(rows, base, left_nz[p], q, -1, d)
    elif kind == LIE_HIGHER:
        rbrk_nz = [_nonzeros(m) for m in rbrk]
        for t, (p, q) in enumerate(tuples):
            base = t * d
            _add_value_block(rows, base, alg.bracket(basis[p], basis[q]), d)
            # −[L(b_p), b_q] − [b_p, L(b_q)]
            _add_composed_block(rows, base, rbrk_nz[q], p, -1, d)
            _add_composed_block(rows, base, rbrk_nz[p], q, 1, d)
    else:
        # u ↦ [[u, b_q], b_r], shared by every triple with that (r, q)
        rbrk2_nz = [[_nonzeros(rbrk[r].mul(rbrk[q])) for q in range(d)] for r in range(d)]
        base = 0
        for p, q in _constraint_tuples(alg, LIE_HIGHER):  # the (p, q) of the triples
            ad_w = alg.adjoint_matrix(alg.bracket(basis[p], basis[q]))
            ad_w_nz = _nonzeros(ad_w)
            for r in range(d):
                # [[b_p, b_q], b_r] is column r of ad_w
                _add_value_block(rows, base, ad_w.column(r), d)
                # −[[L(b_p), b_q], b_r] − [[b_p, L(b_q)], b_r] − [[b_p, b_q], L(b_r)]
                _add_composed_block(rows, base, rbrk2_nz[r][q], p, -1, d)
                _add_composed_block(rows, base, rbrk2_nz[r][p], q, 1, d)
                _add_composed_block(rows, base, ad_w_nz, r, -1, d)
                base += d
    # the entries are Scalars already; Matrix.from_rows would coerce each again
    return Matrix(len(rows), d * d, tuple(tuple(row) for row in rows))


@lru_cache(maxsize=None)
def _kind_solver(alg: Algebra, kind: str) -> FactoredSolver:
    return FactoredSolver(_coefficient_matrix(alg, kind))


def _columns(levels):
    """Each map's basis images, by [level][basis index]."""
    return [[lm.matrix.column(i) for i in range(lm.source_dim)] for lm in levels]


def _pair_sum(alg: Algebra, cols, p: int, q: int, s: int, lo: int = 0):
    """Σ [L_i(b_p), L_{s−i}(b_q)] over lo ≤ i ≤ s − lo: the full level-s
    pair sum for lo = 0, and without its two end terms for lo = 1."""
    acc = zero_vector(alg.dim)
    for i in range(lo, s - lo + 1):
        acc = vec_add(acc, alg.bracket(cols[i][p], cols[s - i][q]))
    return acc


def _triple_offset(alg: Algebra, cols, full: dict, partial: dict):
    """The lie-triple offset at level n = len(cols), from the pair sums
    full[(p, q)][s] for s < n and partial[(p, q)], the level-n pair sum
    without its two end terms.

    Terms are grouped by the level k of the third slot.  For k = 0 the inner
    sum runs over i + j = n with i, j ≥ 1 (the i = n and j = n terms contain
    the unknown and sit on the left side); for 1 ≤ k ≤ n−1 the inner sum is
    complete; k = n contributes nothing because [[x, y], ·] of the identity
    map's bracket belongs to the unknown side."""
    n = len(cols)
    out = []
    for p, q, r in _constraint_tuples(alg, LIE_TRIPLE_HIGHER):
        pair = full[(p, q)]
        acc = alg.bracket(partial[(p, q)], cols[0][r])
        for k in range(1, n):
            acc = vec_add(acc, alg.bracket(pair[n - k], cols[k][r]))
        out.extend(acc)
    return tuple(out)


def _level_offset(alg: Algebra, kind: str, levels: tuple):
    """Right-hand side for extending the given prefix by one level."""
    n = len(levels)  # the level being solved for
    cols = _columns(levels)
    if kind in (HIGHER, LIE_HIGHER):
        d = alg.dim
        combine = alg.multiply if kind == HIGHER else alg.bracket
        out = []
        for p, q in _constraint_tuples(alg, kind):
            acc = zero_vector(d)
            for i in range(1, n):
                acc = vec_add(acc, combine(cols[i][p], cols[n - i][q]))
            out.extend(acc)
        return tuple(out)
    pairs = _constraint_tuples(alg, LIE_HIGHER)  # the (p, q) of the triples
    full = {(p, q): [_pair_sum(alg, cols, p, q, s) for s in range(n)] for p, q in pairs}
    partial = {(p, q): _pair_sum(alg, cols, p, q, n, lo=1) for p, q in pairs}
    return _triple_offset(alg, cols, full, partial)


class _LevelOffsets:
    """The offsets of one growing sequence, level after level, for
    sample_sequence.

    For lie-triple-higher the pair sums full_s(p, q) = Σ_{i+j=s} [L_i(b_p),
    L_j(b_q)] depend only on L_0..L_s, so each is kept from the level that
    completes it: full_s = partial_s + [b_p, L_s(b_q)] + [L_s(b_p), b_q],
    where partial_s is the level-s pair sum without its end terms, which the
    level-s offset already needed.  full_s is completed when the level-(s+1)
    offset asks for it, so the top level's end terms are never computed.  The
    other kinds have no nested sum and use _level_offset as is.
    """

    def __init__(self, alg: Algebra, kind: str):
        self.alg, self.kind = alg, kind
        self.levels = (LinearMap.identity(alg.dim),)
        self.cols = _columns(self.levels)
        if kind == LIE_TRIPLE_HIGHER:
            self.full = {(p, q): [alg.bracket(self.cols[0][p], self.cols[0][q])]
                         for p, q in _constraint_tuples(alg, LIE_HIGHER)}
            self.partial = {}

    def offset(self):
        """The offset for extending self.levels by one level; once per level."""
        if self.kind != LIE_TRIPLE_HIGHER:
            return _level_offset(self.alg, self.kind, self.levels)
        n = len(self.cols)
        if n > 1:  # complete full_{n−1} from the last offset's partial sums
            ident, top = self.cols[0], self.cols[n - 1]
            bracket = self.alg.bracket
            for (p, q), pair in self.full.items():
                ends = vec_add(bracket(ident[p], top[q]), bracket(top[p], ident[q]))
                pair.append(vec_add(self.partial[(p, q)], ends))
        self.partial = {(p, q): _pair_sum(self.alg, self.cols, p, q, n, lo=1)
                        for p, q in self.full}
        return _triple_offset(self.alg, self.cols, self.full, self.partial)

    def append(self, level_map: LinearMap):
        """Extend by L_n, after offset() has given the level-n offset."""
        self.levels += (level_map,)
        self.cols.append(_columns((level_map,))[0])


def level_system(alg: Algebra, kind: str, prefix: HigherMapSequence) -> LevelSystem:
    """The explicit linear system whose solutions are the valid next levels."""
    return LevelSystem(_coefficient_matrix(alg, kind),
                       _level_offset(alg, kind, prefix.levels))


def _solve_level(alg: Algebra, kind: str, offset) -> AffineSolutionSet:
    sol = _kind_solver(alg, kind).solve(offset)
    if sol.is_empty:
        raise SequenceError(
            "level extension became inconsistent; the prefix cannot satisfy "
            "the lower-level identities")
    return sol


def _extend(alg: Algebra, kind: str, prefix: HigherMapSequence) -> AffineSolutionSet:
    if prefix.levels[0].matrix != Matrix.identity(alg.dim):
        raise SequenceError("a sequence prefix must start with the identity map")
    return _solve_level(alg, kind, _level_offset(alg, kind, prefix.levels))


def higher_extend(alg: Algebra, prefix: HigherMapSequence) -> AffineSolutionSet:
    """All valid next levels continuing the prefix as a higher derivation."""
    return _extend(alg, HIGHER, prefix)


def lie_higher_extend(alg: Algebra, prefix: HigherMapSequence) -> AffineSolutionSet:
    return _extend(alg, LIE_HIGHER, prefix)


def lie_triple_higher_extend(alg: Algebra, prefix: HigherMapSequence) -> AffineSolutionSet:
    return _extend(alg, LIE_TRIPLE_HIGHER, prefix)


@lru_cache(maxsize=None)
def derivation_space(alg: Algebra):
    """Canonical basis of all maps with Δ(xy) = Δ(x)y + xΔ(y), as flattened
    matrices in the d²-dimensional map space."""
    return _kind_solver(alg, HIGHER).nullspace


@lru_cache(maxsize=None)
def lie_derivation_space(alg: Algebra):
    return _kind_solver(alg, LIE_HIGHER).nullspace


@lru_cache(maxsize=None)
def lie_triple_derivation_space(alg: Algebra):
    return _kind_solver(alg, LIE_TRIPLE_HIGHER).nullspace


def sample_sequence(alg: Algebra, kind: str, levels: int, seed) -> HigherMapSequence:
    """Deterministic-for-seed random valid sequence with N = `levels`.

    Each level takes the solver's particular solution plus a random rational
    combination (single-digit numerators and denominators) of the homogeneous
    basis, so coefficient growth stays tame through level-4 convolutions.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    rng = random.Random(seed)
    offsets = _LevelOffsets(alg, kind)
    for _ in range(levels):
        sol = _solve_level(alg, kind, offsets.offset())
        v = sol.particular
        for h in sol.homogeneous.vectors:
            coeff = scalar(rng.randint(-9, 9)) / scalar(rng.randint(1, 9))
            if coeff:
                v = vec_add(v, vec_scale(coeff, h))
        offsets.append(map_from_vector(v, alg.dim))
    return HigherMapSequence(kind, offsets.levels)


class _Law:
    """One convolution law of a bilinear op, checked level by level on basis
    tuples t = (p, q) or (p, q, r):

      out_n(arg_t) = Σ_{i+j=n} op(left_i(b_p), right_j(b_q))
      out_n(arg_t) = Σ_{i+j+k=n} op(op(left_i(b_p), right_j(b_q)), right_k(b_r))

    out holds the maps; left and right hold what op takes by [level][basis
    index], by default the maps' basis images, read once as matrix columns.
    args maps every tuple, in witness order, to its lhs argument.  Arity 3
    sums op(P_{n−k}(p, q), right_k(b_r)) over k, with the pair partial sums
    P_s(p, q) kept once per pair and level.
    """

    def __init__(self, op, args: dict, out, left=None, right=None):
        self.op, self.args, self.out = op, args, out
        self.dim = out[0].target_dim
        cols = [[m.matrix.column(p) for p in range(m.source_dim)] for m in out]
        self.left = cols if left is None else left
        self.right = cols if right is None else right
        self._pair_sums = {}

    def _sum(self, terms):
        acc = [ZERO] * self.dim
        for x, y in terms:
            for k, a in enumerate(self.op(x, y)):
                if a:
                    acc[k] += a
        return tuple(acc)

    def rhs(self, n: int, t: tuple):
        left, right = self.left, self.right
        if len(t) == 2:
            p, q = t
            return self._sum((left[i][p], right[n - i][q]) for i in range(n + 1))
        p, q, r = t
        sums = self._pair_sums.setdefault((p, q), [])
        for s in range(len(sums), n + 1):
            sums.append(self.rhs(s, (p, q)))
        return self._sum((sums[n - k], right[k][r]) for k in range(n + 1))

    def failure(self, n: int):
        """The first (t, lhs, rhs) at level n with lhs ≠ rhs, or None."""
        for t, arg in self.args.items():
            lhs, rhs = self.out[n].apply(arg), self.rhs(n, t)
            if lhs != rhs:
                return t, lhs, rhs
        return None


def verify_sequence(alg: Algebra, seq: HigherMapSequence) -> tuple:
    """Re-check every defining identity; report the first violation found.

    The identities are evaluated directly from the definitions (products and
    brackets of images), independently of the solver's matrix encoding.
    """
    d = alg.dim
    if seq.levels[0].matrix != Matrix.identity(d):
        return (Violation("level-0-identity", (0,),
                          "L_0 must be the identity map"),)
    op = alg.multiply if seq.kind == HIGHER else alg.bracket
    basis = [alg.basis_vector(i) for i in range(d)]
    args = {}
    for t in _constraint_tuples(alg, seq.kind):
        arg = op(basis[t[0]], basis[t[1]])
        args[t] = arg if len(t) == 2 else op(arg, basis[t[2]])
    law = _Law(op, args, seq.levels)
    for n in range(1, len(seq.levels)):
        failure = law.failure(n)
        if failure:
            t, lhs, rhs = failure
            return (Violation(
                f"{seq.kind}-identity", (n,) + t,
                f"level-{n} identity fails at basis tuple {t}: "
                f"lhs {format_vector(lhs)} differs from rhs {format_vector(rhs)}"),)
    return ()
