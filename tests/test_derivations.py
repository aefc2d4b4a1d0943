"""Derivation-space and sequence-solver tests.

The brute-force oracle below assembles each constraint system column by
column, by literally evaluating the defining identity with every unit-matrix
candidate map — no index bookkeeping shared with the solver under test — and
imposes lie identities on ALL ordered tuples, not the reduced sets the solver
uses.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from trilie.algebra import (
    LinearMap,
    dual_numbers,
    product_of_rationals,
    rationals,
    upper_triangular_2x2,
)
from trilie import derivations
from trilie.catalog import CATALOG, load_catalog
from trilie.derivations import (
    HIGHER,
    KINDS,
    LIE_HIGHER,
    LIE_TRIPLE_HIGHER,
    HigherMapSequence,
    SequenceError,
    derivation_space,
    higher_extend,
    level_system,
    lie_derivation_space,
    lie_higher_extend,
    lie_triple_derivation_space,
    lie_triple_higher_extend,
    map_from_vector,
    map_to_vector,
    sample_sequence,
    verify_sequence,
)
from trilie.linalg import (
    Matrix,
    SubspaceBasis,
    matrix_from_flat,
    nullspace,
    scalar,
    solve_affine,
    unit_vector,
    vec_scale,
    zero_vector,
)


def oracle_space(alg, kind):
    """Independent constraint assembly: evaluate the identity on unit maps."""
    d = alg.dim
    basis = [alg.basis_vector(i) for i in range(d)]
    if kind == HIGHER:
        tuples = [(p, q) for p in range(d) for q in range(d)]
    elif kind == LIE_HIGHER:
        tuples = [(p, q) for p in range(d) for q in range(d)]
    else:
        tuples = [(p, q, r) for p in range(d) for q in range(d) for r in range(d)]
    columns = []
    for u in range(d * d):
        cand = matrix_from_flat(unit_vector(d * d, u), d, d)
        col = []
        for tup in tuples:
            if kind == HIGHER:
                p, q = tup
                out = cand.apply(alg.multiply(basis[p], basis[q]))
                out = [out[s]
                       - alg.multiply(cand.apply(basis[p]), basis[q])[s]
                       - alg.multiply(basis[p], cand.apply(basis[q]))[s]
                       for s in range(d)]
            elif kind == LIE_HIGHER:
                p, q = tup
                out = cand.apply(alg.bracket(basis[p], basis[q]))
                out = [out[s]
                       - alg.bracket(cand.apply(basis[p]), basis[q])[s]
                       - alg.bracket(basis[p], cand.apply(basis[q]))[s]
                       for s in range(d)]
            else:
                p, q, r = tup
                w = alg.bracket(basis[p], basis[q])
                out = cand.apply(alg.bracket(w, basis[r]))
                out = [out[s]
                       - alg.bracket(alg.bracket(cand.apply(basis[p]), basis[q]),
                                     basis[r])[s]
                       - alg.bracket(alg.bracket(basis[p], cand.apply(basis[q])),
                                     basis[r])[s]
                       - alg.bracket(w, cand.apply(basis[r]))[s]
                       for s in range(d)]
            col.extend(out)
        columns.append(col)
    return nullspace(Matrix.from_columns(columns, len(columns[0])))


SMALL_ALGEBRAS = [rationals(), product_of_rationals(2), dual_numbers(),
                  upper_triangular_2x2()]


@pytest.mark.parametrize("alg", SMALL_ALGEBRAS, ids=lambda a: a.name)
@pytest.mark.parametrize("kind", KINDS)
def test_spaces_match_bruteforce_oracle(alg, kind):
    solver_space = {
        HIGHER: derivation_space,
        LIE_HIGHER: lie_derivation_space,
        LIE_TRIPLE_HIGHER: lie_triple_derivation_space,
    }[kind](alg)
    assert solver_space == oracle_space(alg, kind)


def test_derivation_space_dimensions():
    assert derivation_space(rationals()).dim == 0
    assert derivation_space(product_of_rationals(2)).dim == 0
    assert derivation_space(dual_numbers()).dim == 1
    t2 = upper_triangular_2x2()
    space = derivation_space(t2)
    assert space.dim == 2
    # equals the span of the inner derivations ad(e11), ad(e12)
    inner = SubspaceBasis.span(9, [
        t2.adjoint_matrix(t2.basis_vector(0)).flatten(),
        t2.adjoint_matrix(t2.basis_vector(1)).flatten(),
        t2.adjoint_matrix(t2.basis_vector(2)).flatten(),
    ])
    assert space == inner


def test_lie_derivation_space_dimensions():
    # commutative: every linear map is a Lie derivation
    assert lie_derivation_space(product_of_rationals(2)).dim == 4
    assert lie_derivation_space(dual_numbers()).dim == 4
    t2 = upper_triangular_2x2()
    lie = lie_derivation_space(t2)
    assert lie.dim == 4
    assert lie.contains_subspace(derivation_space(t2))
    assert lie.contains(zero_vector(9))


def test_space_containment_chain():
    for alg in SMALL_ALGEBRAS:
        der = derivation_space(alg)
        lie = lie_derivation_space(alg)
        triple = lie_triple_derivation_space(alg)
        assert lie.contains_subspace(der)
        assert triple.contains_subspace(lie)


def test_every_space_vector_satisfies_leibniz():
    t2 = upper_triangular_2x2()
    for v in derivation_space(t2).vectors:
        delta = matrix_from_flat(v, 3, 3)
        for i in range(3):
            for j in range(3):
                x, y = t2.basis_vector(i), t2.basis_vector(j)
                lhs = delta.apply(t2.multiply(x, y))
                rhs = tuple(a + b for a, b in zip(
                    t2.multiply(delta.apply(x), y),
                    t2.multiply(x, delta.apply(y))))
                assert lhs == rhs


def identity_prefix(alg, kind):
    return HigherMapSequence(kind, (LinearMap.identity(alg.dim),))


def test_level_one_extension_is_the_space_with_zero_offset():
    t2 = upper_triangular_2x2()
    sol = higher_extend(t2, identity_prefix(t2, HIGHER))
    assert sol.particular == zero_vector(9)
    assert sol.homogeneous == derivation_space(t2)
    sol = lie_higher_extend(t2, identity_prefix(t2, LIE_HIGHER))
    assert sol.homogeneous == lie_derivation_space(t2)
    sol = lie_triple_higher_extend(t2, identity_prefix(t2, LIE_TRIPLE_HIGHER))
    assert sol.homogeneous == lie_triple_derivation_space(t2)


def test_exponential_type_sequence():
    """For a derivation d, the divided powers id, d, d²/2, d³/6 form a valid
    sequence, so d²/2 must lie in the level-2 solution set."""
    t2 = upper_triangular_2x2()
    d = map_from_vector(derivation_space(t2).vectors[0], 3)
    d2 = d.compose(d).scale(scalar("1/2"))
    d3 = d.compose(d).compose(d).scale(scalar("1/6"))
    prefix = HigherMapSequence(HIGHER, (LinearMap.identity(3), d))
    sol = higher_extend(t2, prefix)
    assert sol.contains(map_to_vector(d2))
    seq = HigherMapSequence(HIGHER, (LinearMap.identity(3), d, d2, d3))
    assert verify_sequence(t2, seq) == ()


def test_zero_prefix_reduces_to_level_one():
    t2 = upper_triangular_2x2()
    prefix = HigherMapSequence(HIGHER, (LinearMap.identity(3), LinearMap.zero(3, 3)))
    sol = higher_extend(t2, prefix)
    assert sol.particular == zero_vector(9)
    assert sol.homogeneous == derivation_space(t2)


def test_central_perturbation_keeps_lie_sequence_extendable():
    """A Lie derivation that is not a derivation: inner + central-valued map
    vanishing on commutators.  The level-2 lie system stays consistent."""
    t2 = upper_triangular_2x2()
    inner = t2.adjoint_matrix(t2.basis_vector(1))
    # χ(e11) = 1, χ(e12) = 0, χ(e22) = 0; values in the center (span of unit)
    chi = Matrix.from_columns([t2.unit, zero_vector(3), zero_vector(3)], 3)
    l1 = LinearMap.from_matrix(inner + chi)
    assert not derivation_space(t2).contains(map_to_vector(l1))
    assert lie_derivation_space(t2).contains(map_to_vector(l1))
    prefix = HigherMapSequence(LIE_HIGHER, (LinearMap.identity(3), l1))
    sol = lie_higher_extend(t2, prefix)
    assert not sol.is_empty


def test_commutative_lie_levels_are_unconstrained():
    dual = dual_numbers()
    seq = sample_sequence(dual, LIE_HIGHER, 2, seed=5)
    sol = lie_higher_extend(dual, seq)
    assert sol.homogeneous.dim == 4  # every matrix solves every level
    assert verify_sequence(dual, seq) == ()


def test_higher_solutions_are_lie_solutions_are_triple_solutions():
    for name in ("tri_q_q_q", "tri_t2_plane_q"):
        tri = load_catalog(name)
        alg = tri.algebra
        seq = sample_sequence(alg, HIGHER, 2, seed=11)
        h = higher_extend(alg, seq)
        l = lie_higher_extend(alg, seq)
        t = lie_triple_higher_extend(alg, seq)
        assert l.contains_set(h)
        assert t.contains_set(l)


def test_sample_determinism_and_validity():
    for name in CATALOG:
        alg = load_catalog(name).algebra
        for kind in KINDS:
            s1 = sample_sequence(alg, kind, 3, seed=2)
            s2 = sample_sequence(alg, kind, 3, seed=2)
            assert s1 == s2
            assert verify_sequence(alg, s1) == ()
            assert s1.top_level == 3 and s1.levels[0].matrix == Matrix.identity(alg.dim)


def test_sample_zero_levels_is_identity_only():
    alg = load_catalog("tri_q_q_q").algebra
    seq = sample_sequence(alg, HIGHER, 0, seed=9)
    assert seq.levels == (LinearMap.identity(3),)


def test_verify_reports_first_violation():
    t2 = upper_triangular_2x2()
    d = map_from_vector(derivation_space(t2).vectors[0], 3)
    rows = [list(r) for r in d.matrix.entries]
    rows[0][0] += scalar(1)
    bad = LinearMap.from_matrix(Matrix.from_rows(rows))
    report = verify_sequence(t2, HigherMapSequence(HIGHER, (LinearMap.identity(3), bad)))
    assert len(report) == 1
    assert report[0].where[0] == 1  # names level 1
    report = verify_sequence(t2, HigherMapSequence(
        HIGHER, (bad, LinearMap.identity(3))))
    assert report and report[0].law == "level-0-identity"


def test_trivial_sequences_verify_for_all_kinds():
    t2 = upper_triangular_2x2()
    zero = LinearMap.zero(3, 3)
    for kind in KINDS:
        seq = HigherMapSequence(kind, (LinearMap.identity(3), zero, zero))
        assert verify_sequence(t2, seq) == ()


def test_level_system_matches_extension():
    tri = load_catalog("tri_qq_plane_q")
    alg = tri.algebra
    seq = sample_sequence(alg, LIE_HIGHER, 2, seed=4)
    system = level_system(alg, LIE_HIGHER, seq)
    direct = solve_affine(system.matrix, system.offset)
    via_op = lie_higher_extend(alg, seq)
    assert direct.homogeneous == via_op.homogeneous
    assert via_op.contains(direct.particular) and direct.contains(via_op.particular)


def test_inconsistent_prefix_aborts_loudly():
    qq = product_of_rationals(2)
    bad = LinearMap.from_matrix(Matrix.from_rows([[0, 0], [1, 0]]))
    prefix = HigherMapSequence(HIGHER, (LinearMap.identity(2), bad))
    with pytest.raises(SequenceError):
        higher_extend(qq, prefix)
    with pytest.raises(SequenceError):
        higher_extend(qq, HigherMapSequence(HIGHER, (bad,)))


def test_inconsistent_prefix_raises_under_optimize():
    """The sequence checks are not asserts, so `python -O` keeps them."""
    script = (
        "from trilie.algebra import LinearMap, product_of_rationals\n"
        "from trilie.derivations import HIGHER, HigherMapSequence, SequenceError, higher_extend\n"
        "from trilie.linalg import Matrix\n"
        "bad = LinearMap.from_matrix(Matrix.from_rows([[0, 0], [1, 0]]))\n"
        "for levels in ((LinearMap.identity(2), bad), (bad,)):\n"
        "    try:\n"
        "        higher_extend(product_of_rationals(2), HigherMapSequence(HIGHER, levels))\n"
        "    except SequenceError:\n"
        "        print('raised')\n"
        "for args in (('nope', (bad,)), (HIGHER, ())):\n"
        "    try:\n"
        "        HigherMapSequence(*args)\n"
        "    except SequenceError:\n"
        "        print('raised')\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 4


def test_homogeneous_part_is_level_one_space_at_every_level():
    alg = load_catalog("tri_q_plane_qq").algebra
    seq = sample_sequence(alg, LIE_HIGHER, 3, seed=8)
    for n in range(4):
        sol = lie_higher_extend(alg, seq.prefix(n))
        assert sol.homogeneous == lie_derivation_space(alg)


def test_scaled_homogeneous_members_solve():
    alg = load_catalog("tri_qq_plane_qq").algebra
    seq = sample_sequence(alg, HIGHER, 1, seed=13)
    sol = higher_extend(alg, seq)
    for h in sol.homogeneous.vectors[:2]:
        member = tuple(a + b for a, b in zip(sol.particular, vec_scale(scalar(3), h)))
        extended = HigherMapSequence(
            HIGHER, seq.levels + (map_from_vector(member, alg.dim),))
        assert verify_sequence(alg, extended) == ()


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("kind", KINDS)
def test_sampling_offsets_match_fresh_level_systems(name, kind, monkeypatch):
    """sample_sequence carries the lie-triple pair sums from level to level;
    every offset it solves with must be the one level_system computes from
    scratch for the prefix sampled so far."""
    alg = load_catalog(name).algebra
    solve_level = derivations._solve_level
    for seed in (0, 1, 2):
        seen = []

        def record(alg_, kind_, offset):
            seen.append(offset)
            return solve_level(alg_, kind_, offset)

        monkeypatch.setattr(derivations, "_solve_level", record)
        seq = sample_sequence(alg, kind, 4, seed)
        monkeypatch.undo()
        assert len(seen) == 4
        for n, offset in enumerate(seen):
            assert offset == level_system(alg, kind, seq.prefix(n)).offset, (seed, n)
