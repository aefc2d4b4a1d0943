"""The convolution checks against direct evaluation of the definitions.

naive_verify_sequence is the triple-loop verifier the package used before
checks kept prefix partial sums: every image goes through a full matrix
application and every term of every convolution is recomputed at every
level.  It stays here as the reference the evaluator must match, witness
and message included.
"""

import dataclasses
import random

import pytest

from trilie.algebra import LinearMap, Violation, validate_algebra
from trilie.catalog import catalog_names, load_catalog
from trilie.decomposition import decompose, verify_properness
from trilie.derivations import (
    HIGHER,
    KINDS,
    LIE_HIGHER,
    HigherMapSequence,
    sample_sequence,
    verify_sequence,
)
from trilie.linalg import (
    Matrix,
    format_vector,
    scalar,
    vec_add,
    zero_vector,
)


def naive_verify_sequence(alg, seq):
    d = alg.dim
    if seq.levels[0].matrix != LinearMap.identity(d).matrix:
        return (Violation("level-0-identity", (0,),
                          "L_0 must be the identity map"),)
    basis = [alg.basis_vector(i) for i in range(d)]
    if seq.kind == HIGHER:
        tuples = [(p, q) for p in range(d) for q in range(d)]
    elif seq.kind == LIE_HIGHER:
        tuples = [(p, q) for p in range(d) for q in range(p + 1, d)]
    else:
        tuples = [(p, q, r) for p in range(d) for q in range(p + 1, d)
                  for r in range(d)]
    for n in range(1, len(seq.levels)):
        maps = seq.levels[:n + 1]
        for tup in tuples:
            if seq.kind == HIGHER:
                p, q = tup
                lhs = maps[n].apply(alg.multiply(basis[p], basis[q]))
                rhs = zero_vector(d)
                for i in range(n + 1):
                    rhs = vec_add(rhs, alg.multiply(maps[i].apply(basis[p]),
                                                    maps[n - i].apply(basis[q])))
            elif seq.kind == LIE_HIGHER:
                p, q = tup
                lhs = maps[n].apply(alg.bracket(basis[p], basis[q]))
                rhs = zero_vector(d)
                for i in range(n + 1):
                    rhs = vec_add(rhs, alg.bracket(maps[i].apply(basis[p]),
                                                   maps[n - i].apply(basis[q])))
            else:
                p, q, r = tup
                w = alg.bracket(basis[p], basis[q])
                lhs = maps[n].apply(alg.bracket(w, basis[r]))
                rhs = zero_vector(d)
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        k = n - i - j
                        inner = alg.bracket(maps[i].apply(basis[p]),
                                            maps[j].apply(basis[q]))
                        rhs = vec_add(rhs, alg.bracket(inner, maps[k].apply(basis[r])))
            if lhs != rhs:
                return (Violation(
                    f"{seq.kind}-identity", (n,) + tup,
                    f"level-{n} identity fails at basis tuple {tup}: "
                    f"lhs {format_vector(lhs)} differs from rhs {format_vector(rhs)}"),)
    return ()


def bumped(maps, level, row, col, by=1):
    """The maps with one entry of maps[level] moved by `by`."""
    rows = [list(r) for r in maps[level].matrix.entries]
    rows[row][col] += by
    out = list(maps)
    out[level] = LinearMap.from_matrix(Matrix.from_rows(rows, maps[level].source_dim))
    return tuple(out)


def corrupt(seq, level, rng):
    """One entry of L_level moved by a nonzero single-digit rational."""
    d = seq.levels[0].source_dim
    by = scalar(rng.choice([-3, -1, 1, 2])) / scalar(rng.randint(1, 4))
    return HigherMapSequence(
        seq.kind, bumped(seq.levels, level, rng.randrange(d), rng.randrange(d), by))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", catalog_names())
def test_verify_sequence_matches_naive_oracle(name, kind):
    alg = load_catalog(name).algebra
    flagged = 0
    for seed in range(3):
        seq = sample_sequence(alg, kind, 4, seed)
        assert verify_sequence(alg, seq) == naive_verify_sequence(alg, seq) == ()
        rng = random.Random(f"{name}:{kind}:{seed}")
        for level in range(1, 5):
            bad = corrupt(seq, level, rng)
            report = verify_sequence(alg, bad)
            assert report == naive_verify_sequence(alg, bad)
            flagged += bool(report)
    # every catalog algebra is noncommutative, so every law is a real constraint
    assert flagged


def test_violation_text_is_backend_independent():
    alg = load_catalog("tri_t2_plane_q").algebra
    messages = []
    for kind in KINDS:
        seq = sample_sequence(alg, kind, 2, 0)
        for level in (1, 2):
            messages += [v.message for v in verify_sequence(
                alg, corrupt(seq, level, random.Random(level)))]
    broken = dataclasses.replace(alg, unit=(scalar("1/2"),) + alg.unit[1:])
    messages += [v.message for v in validate_algebra(broken)]
    assert len(messages) > 6
    for message in messages:
        assert "Fraction(" not in message and "mpq(" not in message, message
    assert any("/" in message for message in messages)


# One corrupted decomposition per convolution law: (law, algebra, field, level,
# row, col) and the (law, where) list verify_properness returned for it before
# the checks shared one evaluator.
PROPERNESS_CORRUPTIONS = [
    ("higher-law", "tri_t2_plane_q", "delta", 1, 0, 1,
     [("sum-residual", (1,)), ("higher-law", (1, 1, 0)),
      ("higher-law", (2, 1, 0)), ("higher-law", (3, 1, 0))]),
    ("diagonal-higher-law-a", "tri_t2_plane_q", "diag_a0", 2, 1, 0,
     [("module-compat-left", (2, 0, 1)), ("module-compat-left", (3, 0, 1)),
      ("diagonal-higher-law-a", (2, 0, 2))]),
    ("diagonal-higher-law-b", "tri_t2_plane_q", "diag_b0", 2, 0, 0,
     [("module-compat-right", (2, 0, 0)), ("module-compat-right", (3, 0, 0)),
      ("diagonal-higher-law-b", (2, 0, 0))]),
    ("module-compat-left", "tri_t2_plane_q", "mod", 1, 1, 1,
     [("module-compat-left", (1, 1, 1)), ("module-compat-left", (2, 0, 1)),
      ("module-compat-left", (3, 0, 1))]),
    ("module-compat-right", "tri_dual_dual_dual", "mod", 1, 0, 1,
     [("module-compat-left", (1, 1, 0)), ("module-compat-right", (1, 0, 1)),
      ("module-compat-left", (2, 1, 1)), ("module-compat-right", (2, 1, 1)),
      ("module-compat-left", (3, 1, 1)), ("module-compat-right", (3, 1, 1))]),
]


@pytest.mark.parametrize("law, name, field, level, row, col, expected",
                         PROPERNESS_CORRUPTIONS, ids=[c[0] for c in PROPERNESS_CORRUPTIONS])
def test_properness_witnesses_per_convolution_law(law, name, field, level, row, col,
                                                  expected):
    tri = load_catalog(name)
    seq = sample_sequence(tri.algebra, LIE_HIGHER, 3, 1)
    dec = decompose(tri, seq)
    if field == "mod":
        comps = dataclasses.replace(
            dec.components, mod=bumped(dec.components.mod, level, row, col))
        bad = dataclasses.replace(dec, components=comps)
    else:
        bad = dataclasses.replace(dec, **{field: bumped(getattr(dec, field), level, row, col)})
    report = [(v.law, v.where) for v in verify_properness(tri, seq, bad)]
    assert report == expected
    assert law in {v_law for v_law, _ in report}
