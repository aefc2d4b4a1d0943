"""Output checks that do not trust the code under test.

Everything here is plain ``fractions.Fraction`` (or ``int``) arithmetic that
reads only the structure constants of an algebra.  It re-derives each
defining law from its definition and never touches trilie's solvers, matrix
encodings, verifiers or serialisers, so a defect in any of those cannot hide
itself here.
"""

import hashlib
import json
import math
from fractions import Fraction

HIGHER = "higher"
LIE_HIGHER = "lie-higher"
LIE_TRIPLE_HIGHER = "lie-triple-higher"


def frac(x):
    """Exact copy of a trilie scalar (Fraction or gmpy2 mpq) as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def frac_grid(rows):
    return [[frac(x) for x in row] for row in rows]


def digest(obj) -> str:
    """SHA-256 of the canonical JSON text of `obj` (or of raw bytes)."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()


def grid_text(rows):
    """Scalars as 'p' or 'p/q' text, identical for either scalar backend."""
    return [[str(frac(x)) for x in row] for row in rows]


class Product:
    """Multiplication of an algebra given only its structure constants.

    struct[i][j][k] is coordinate k of b_i·b_j.  Integer constants stay
    Python ints, so checks on integer inputs run in integer arithmetic.
    """

    def __init__(self, struct):
        self.dim = len(struct)
        self.rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                terms = []
                for k, c in enumerate(struct[i][j]):
                    c = frac(c)
                    if c:
                        terms.append((k, int(c) if c.denominator == 1 else c))
                if terms:
                    row.append((j, terms))
            self.rows.append(row)

    def mul(self, x, y):
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, terms in self.rows[i]:
                yj = y[j]
                if yj:
                    s = xi * yj
                    for k, c in terms:
                        out[k] += s * c
        return out

    def bracket(self, x, y):
        return [a - b for a, b in zip(self.mul(x, y), self.mul(y, x))]

    def basis(self, i):
        return [1 if k == i else 0 for k in range(self.dim)]


def _apply(grid, v):
    return [sum(a * b for a, b in zip(row, v) if a and b) for row in grid]


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def law_violation(prod: Product, kind: str, levels) -> str | None:
    """First failure of the kind's convolution law on L_0..L_N, or None.

    levels are square grids (row-major, columns are basis images).  The law
    at level n is checked on every basis pair (or triple) it constrains:

      higher             L_n(xy)        = Σ_{i+j=n} L_i(x)·L_j(y)
      lie-higher         L_n([x,y])     = Σ_{i+j=n} [L_i(x), L_j(y)]
      lie-triple-higher  L_n([[x,y],z]) = Σ_{i+j+k=n} [[L_i(x), L_j(y)], L_k(z)]

    With levels = [identity, D] this is the single-map derivation, Lie
    derivation or Lie triple derivation law.  The inner pair sums
    Σ_{i+j=s} are formed once per pair and reused across levels.
    """
    d = prod.dim
    top = len(levels) - 1
    if [list(r) for r in levels[0]] != [prod.basis(i) for i in range(d)]:
        return "L_0 is not the identity"
    cols = [[[row[p] for row in grid] for p in range(d)] for grid in levels]
    combine = prod.mul if kind == HIGHER else prod.bracket
    if kind in (HIGHER, LIE_HIGHER):
        pairs = [(p, q) for p in range(d)
                 for q in (range(d) if kind == HIGHER else range(p + 1, d))]
        for p, q in pairs:
            w = combine(prod.basis(p), prod.basis(q))
            for n in range(1, top + 1):
                rhs = [0] * d
                for i in range(n + 1):
                    rhs = _add(rhs, combine(cols[i][p], cols[n - i][q]))
                if _apply(levels[n], w) != rhs:
                    return f"{kind} law fails at level {n} on basis pair {(p, q)}"
        return None
    if kind != LIE_TRIPLE_HIGHER:
        raise ValueError(f"unknown kind {kind!r}")
    for p in range(d):
        for q in range(p + 1, d):
            inner = prod.bracket(prod.basis(p), prod.basis(q))
            pair_sums = []  # pair_sums[s] = Σ_{i+j=s} [L_i(b_p), L_j(b_q)]
            for s in range(top + 1):
                acc = [0] * d
                for i in range(s + 1):
                    acc = _add(acc, prod.bracket(cols[i][p], cols[s - i][q]))
                pair_sums.append(acc)
            for r in range(d):
                w = prod.bracket(inner, prod.basis(r))
                for n in range(1, top + 1):
                    rhs = [0] * d
                    for k in range(n + 1):
                        rhs = _add(rhs, prod.bracket(pair_sums[n - k], cols[k][r]))
                    if _apply(levels[n], w) != rhs:
                        return (f"{kind} law fails at level {n} on basis "
                                f"triple {(p, q, r)}")
    return None


def rank(vectors) -> int:
    """Rank of a list of rational vectors by plain Gaussian elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = Fraction(rows[i][c]) / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


SPACE_KINDS = {
    "derivation": HIGHER,
    "lie-derivation": LIE_HIGHER,
    "lie-triple-derivation": LIE_TRIPLE_HIGHER,
}


def spaces_violation(prod: Product, report_bytes: bytes, expected_dims) -> str | None:
    """Check a `trilie spaces --json` report against the definitions.

    Every returned basis map must satisfy its law, the basis must be
    linearly independent, and each dimension must equal `expected_dims`
    (the spaces' dimensions are invariant under a change of basis).  A map
    with rational entries is scaled to integers first: each law is linear
    in a single map, so scaling does not change whether it holds.
    """
    try:
        return _spaces_violation(prod, json.loads(report_bytes)["spaces"], expected_dims)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable spaces report: {type(exc).__name__}: {exc}"


def _spaces_violation(prod, spaces, expected_dims):
    d = prod.dim
    ident = [prod.basis(i) for i in range(d)]
    for key, kind in SPACE_KINDS.items():
        space = spaces[key]
        basis = [[[Fraction(x) for x in row] for row in m] for m in space["basis"]]
        if space["dim"] != len(basis) or len(basis) != expected_dims[key]:
            return (f"{key} space has dim {space['dim']} with {len(basis)} maps, "
                    f"expected {expected_dims[key]}")
        if basis and rank([[x for row in m for x in row] for m in basis]) != len(basis):
            return f"{key} basis is linearly dependent"
        for idx, m in enumerate(basis):
            if len(m) != d or any(len(row) != d for row in m):
                return f"{key} basis map {idx} is not {d}x{d}"
            scale = math.lcm(*(x.denominator for row in m for x in row))
            grid = [[int(x * scale) for x in row] for row in m]
            bad = law_violation(prod, kind, [ident, grid])
            if bad:
                return f"{key} basis map {idx}: {bad}"
    return None
