"""Seeded inputs for the workloads.

The workload seed is the only source of randomness: the same seed gives the
same op stream and the same documents, and the program under test sees only
these generated inputs.
"""

import json
import random

from trilie.algebra import Algebra, upper_triangular_2x2
from trilie.bimodule import Bimodule
from trilie.triangular import build_triangular
from trilie.workspace import triangular_document

DEFAULT_SEED = 0
COLD_TARGET = "tri_t2_t2_t2"
# elementary column operations per change-of-basis matrix, and their multipliers
BASIS_STEPS = 4
MULTIPLIERS = (-2, -1, 1, 2)
NNZ_BAND = (65, 77)


def warm_ops(workload: str, seed: int, warmup: bool = False):
    """Endless op stream [(op index, sampling seed)].

    One op runs the workload's pipeline once on each of the six catalog
    algebras with the op's sampling seed.  Timed ops draw even sampling
    seeds and warm-up ops odd ones, so a warm-up op never repeats a timed
    input.
    """
    rng = random.Random(f"trilie-bench:{workload}:{seed}:{'warmup' if warmup else 'timed'}")
    index = 0
    while True:
        yield index, 2 * rng.randrange(2 ** 30) + warmup
        index += 1


def _unimodular(n: int, rng: random.Random):
    """Integer P with integer inverse, from seeded column additions."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(BASIS_STEPS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(MULTIPLIERS)
        # P ← P·E with E = I + c·e_j e_iᵀ, so P⁻¹ ← E⁻¹·P⁻¹
        for r in range(n):
            p[r][i] += c * p[r][j]
        for k in range(n):
            p_inv[j][k] -= c * p_inv[i][k]
    return p, p_inv


def _coords(p_inv, v):
    return [sum(p_inv[r][k] * v[k] for k in range(len(v))) for r in range(len(p_inv))]


def _bilinear(table, left, right, out_inv, i, j):
    """New-basis coordinates of (Σ_k left[k][i] x_k)·(Σ_l right[l][j] y_l)."""
    n_out = len(out_inv)
    v = [0] * n_out
    for k in range(len(left)):
        for l in range(len(right)):
            s = left[k][i] * right[l][j]
            if s:
                for t, c in enumerate(table[k][l]):
                    v[t] += s * int(c)
    return _coords(out_inv, v)


def cold_document(rng: random.Random):
    """Tri(T2, T2, T2) under a seeded blockwise unimodular change of basis.

    M is T2 as a bimodule over itself.  P_A, P_B and Q rebase A, B and M.
    Draws repeat until the assembled structure constants have a number of
    nonzeros inside NNZ_BAND: that count sets most of an op's cost, so the
    band keeps the cost of documents of different seeds alike.
    build_triangular re-validates the result.  Returns (document, number of
    nonzero structure constants, the assembled algebra's structure constants).
    """
    t2 = upper_triangular_2x2()
    n = t2.dim
    consts = t2.struct_consts
    while True:
        pa, pa_inv = _unimodular(n, rng)
        pb, pb_inv = _unimodular(n, rng)
        q, q_inv = _unimodular(n, rng)
        a_table = [[_bilinear(consts, pa, pa, pa_inv, i, j) for j in range(n)] for i in range(n)]
        b_table = [[_bilinear(consts, pb, pb, pb_inv, i, j) for j in range(n)] for i in range(n)]
        left = [[_bilinear(consts, pa, q, q_inv, i, j) for j in range(n)] for i in range(n)]
        right = [[_bilinear(consts, q, pb, q_inv, j, i) for i in range(n)] for j in range(n)]
        # the four tables fill disjoint blocks of the assembled algebra's table
        nnz = sum(1 for table in (a_table, b_table, left, right)
                  for row in table for v in row for c in v if c)
        if NNZ_BAND[0] <= nnz <= NNZ_BAND[1]:
            break
    unit = [int(x) for x in t2.unit]
    a = Algebra.from_table(n, a_table, _coords(pa_inv, unit), t2.name)
    b = Algebra.from_table(n, b_table, _coords(pb_inv, unit), t2.name)
    bm = Bimodule.from_tables(a, b, n, left, right)
    tri = build_triangular(a, bm, b, COLD_TARGET)
    return triangular_document(tri, COLD_TARGET), nnz, tri.algebra.struct_consts


def write_cold_documents(seed: int, count: int, directory):
    """Generate `count` documents for the seed; returns [(path, nnz, consts)]."""
    rng = random.Random(f"trilie-bench:cold_spaces:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for k in range(count):
        doc, nnz, consts = cold_document(rng)
        path = directory / f"seed{seed}-doc{k}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        out.append((path, nnz, consts))
    return out
