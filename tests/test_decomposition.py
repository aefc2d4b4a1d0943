"""Tests for canonical components, the proper split, and the weakened probe."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from trilie.algebra import LinearMap, center
from trilie.catalog import catalog_names, load_catalog
from trilie.decomposition import (
    StructureError,
    _probe_rhs,
    _probe_system,
    decompose,
    extract_canonical,
    probe_conjecture,
    reconstruct,
    verify_properness,
)
from trilie.derivations import (
    HIGHER,
    LIE_HIGHER,
    LIE_TRIPLE_HIGHER,
    HigherMapSequence,
    sample_sequence,
    verify_sequence,
)
from trilie.extension import build_operator_extension
from trilie.linalg import (
    Matrix,
    SubspaceBasis,
    matrix_from_flat,
    scalar,
    unit_vector,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from trilie.triangular import SLOT_A, SLOT_B, SLOT_M, TriangularAlgebra, center_subspace


def identity_pad(tri, levels):
    d = tri.dim
    maps = [LinearMap.identity(d)]
    maps += [LinearMap.zero(d, d) for _ in range(levels)]
    return HigherMapSequence(LIE_HIGHER, tuple(maps))


def lie_derivation_decompose(tri: TriangularAlgebra, lie_map: LinearMap):
    """Independent single-level split of a Lie derivation: L = Δ + χ.

    A test oracle implemented directly from the level-1 block formulas,
    without the sequence machinery; serves as a cross-check of decompose at
    level 1 (here and in test_acceptance).  Returns (delta, chi) as maps into
    the extension."""
    ext = build_operator_extension(tri)
    da, dm, db = tri.dim_a, tri.dim_m, tri.dim_b
    zb = center(tri.part_b)
    za = center(tri.part_a)
    offset = tri.project(lie_map.apply(tri.e), SLOT_M)
    delta_cols, chi_cols = [], []
    for i in range(da):
        a = tri.part_a.basis_vector(i)
        image = lie_map.apply(tri.embed(a, SLOT_A))
        f_val = tri.project(image, SLOT_A)
        q_val = tri.project(image, SLOT_B)
        if not zb.contains(q_val):
            raise StructureError("opposite-corner-centrality", (1, "A", i),
                                 "not a Lie derivation of a triangular algebra")
        d_val = vec_sub(ext.iota_a.apply(f_val), ext.tau_right_inv(q_val))
        mixed = tri.bimodule.act_left(a, offset)
        delta_cols.append(ext.extended.assemble(d_val, mixed, zero_vector(ext.dim_b0)))
        chi_cols.append(ext.extended.assemble(
            ext.tau_right_inv(q_val), zero_vector(dm), ext.iota_b.apply(q_val)))
    for j in range(dm):
        m = unit_vector(dm, j)
        image = lie_map.apply(tri.embed(m, SLOT_M))
        delta_cols.append(ext.extended.assemble(
            zero_vector(ext.dim_a0), tri.project(image, SLOT_M),
            zero_vector(ext.dim_b0)))
        chi_cols.append(zero_vector(ext.extended.dim))
    for i in range(db):
        b = tri.part_b.basis_vector(i)
        image = lie_map.apply(tri.embed(b, SLOT_B))
        g_val = tri.project(image, SLOT_B)
        p_val = tri.project(image, SLOT_A)
        if not za.contains(p_val):
            raise StructureError("opposite-corner-centrality", (1, "B", i),
                                 "not a Lie derivation of a triangular algebra")
        dp_val = vec_sub(ext.iota_b.apply(g_val), ext.tau_left(p_val))
        mixed = vec_sub(zero_vector(dm), tri.bimodule.act_right(offset, b))
        delta_cols.append(ext.extended.assemble(
            zero_vector(ext.dim_a0), mixed, dp_val))
        chi_cols.append(ext.extended.assemble(
            ext.iota_a.apply(p_val), zero_vector(dm), ext.tau_left(p_val)))
    delta = LinearMap.from_columns(delta_cols, ext.extended.dim)
    chi = LinearMap.from_columns(chi_cols, ext.extended.dim)
    return delta, chi


@pytest.mark.parametrize("name", catalog_names())
def test_identity_pad_extracts_to_zero_components(name):
    tri = load_catalog(name)
    comps = extract_canonical(tri, identity_pad(tri, 3))
    assert comps.diag_a[0].matrix == Matrix.identity(tri.dim_a)
    assert comps.diag_b[0].matrix == Matrix.identity(tri.dim_b)
    assert comps.mod[0].matrix == Matrix.identity(tri.dim_m)
    assert comps.cross_ab[0].is_zero() and comps.cross_ba[0].is_zero()
    for n in range(1, 4):
        assert comps.diag_a[n].is_zero()
        assert comps.cross_ab[n].is_zero()
        assert comps.cross_ba[n].is_zero()
        assert comps.diag_b[n].is_zero()
        assert comps.mod[n].is_zero()
        assert vec_is_zero(comps.offsets[n])


@pytest.mark.parametrize("name", catalog_names())
def test_higher_derivations_have_no_cross_blocks(name):
    tri = load_catalog(name)
    emb = build_operator_extension(tri).embedding_map()
    for seed in range(3):
        seq = sample_sequence(tri.algebra, HIGHER, 3, seed)
        comps = extract_canonical(tri, seq)
        for n in range(4):
            assert comps.cross_ab[n].is_zero()
            assert comps.cross_ba[n].is_zero()
        dec = decompose(tri, seq)
        for n in range(4):
            assert dec.chi[n].is_zero()
            assert dec.delta[n].matrix == emb.matrix.mul(seq.levels[n].matrix)
        assert verify_properness(tri, seq, dec) == ()


@pytest.mark.parametrize("name", catalog_names())
def test_round_trip_on_sampled_sequences(name):
    tri = load_catalog(name)
    for seed in (0, 1):
        seq = sample_sequence(tri.algebra, LIE_HIGHER, 4, seed)
        comps = extract_canonical(tri, seq)
        rebuilt = reconstruct(tri, comps)
        assert rebuilt.levels == seq.levels
        again = extract_canonical(tri, rebuilt)
        assert again == comps


def test_synthetic_inner_plus_central_split():
    tri = load_catalog("tri_q_q_q")
    ext = build_operator_extension(tri)
    emb = ext.embedding_map()
    d = tri.dim
    # inner part: bracketing against the A-corner idempotent
    inner = tri.algebra.adjoint_matrix(tri.e)
    # central part: a functional vanishing on the commutator line, times the unit
    weights = [scalar(2), scalar(0), scalar("-1/3")]
    central_cols = [tuple(w * u for u in tri.algebra.unit) for w in weights]
    central = Matrix.from_columns(central_cols, d)
    level1 = LinearMap(d, d, central + inner)
    seq = HigherMapSequence(LIE_HIGHER, (LinearMap.identity(d), level1))
    assert verify_sequence(tri.algebra, seq) == ()
    dec = decompose(tri, seq)
    assert dec.chi[1].matrix == emb.matrix.mul(central)
    assert dec.delta[1].matrix == emb.matrix.mul(inner)
    assert verify_properness(tri, seq, dec) == ()


def bump(matrix, row, col):
    rows = [list(r) for r in matrix.entries]
    rows[row][col] += 1
    return Matrix.from_rows(rows, matrix.cols)


def test_corrupted_chi_flags_sum_residual():
    tri = load_catalog("tri_qq_plane_q")
    seq = sample_sequence(tri.algebra, LIE_HIGHER, 3, 4)
    dec = decompose(tri, seq)
    bad_chi = list(dec.chi)
    bad_chi[1] = LinearMap(tri.dim, bad_chi[1].target_dim,
                           bump(bad_chi[1].matrix, 0, 0))
    bad = dataclasses.replace(dec, chi=tuple(bad_chi))
    laws = {v.law for v in verify_properness(tri, seq, bad)}
    assert "sum-residual" in laws


def test_compensated_corruption_flags_deeper_laws():
    # moving mass between Δ and χ keeps the sum but breaks their own laws
    tri = load_catalog("tri_q_q_q")
    seq = identity_pad(tri, 2)
    dec = decompose(tri, seq)
    ext = dec.extension
    m_row = ext.dim_a0  # first module coordinate of the extension
    bad_delta = list(dec.delta)
    bad_chi = list(dec.chi)
    bad_delta[1] = LinearMap(tri.dim, ext.extended.dim,
                             bump(bad_delta[1].matrix, m_row, 0))
    lowered = [list(r) for r in bad_chi[1].matrix.entries]
    lowered[m_row][0] -= 1
    bad_chi[1] = LinearMap(tri.dim, ext.extended.dim,
                           Matrix.from_rows(lowered, tri.dim))
    bad = dataclasses.replace(dec, delta=tuple(bad_delta), chi=tuple(bad_chi))
    laws = {v.law for v in verify_properness(tri, seq, bad)}
    assert "sum-residual" not in laws
    assert "higher-law" in laws
    assert "centrality" in laws


def single_column_map(tri, slot, index, image_vec, image_slot):
    d = tri.dim
    cols = [zero_vector(d)] * d
    offset = {SLOT_A: 0, SLOT_M: tri.dim_a, SLOT_B: tri.dim_a + tri.dim_m}[slot]
    cols = list(cols)
    cols[offset + index] = tri.embed(image_vec, image_slot)
    return HigherMapSequence(LIE_HIGHER, (LinearMap.identity(d),
                                          LinearMap.from_columns(cols, d)))


def test_extraction_rejects_noncentral_opposite_corner():
    tri = load_catalog("tri_t2_plane_q")  # A-corner is noncommutative
    nilpotent = unit_vector(3, 1)  # squares to zero, not central
    seq = single_column_map(tri, SLOT_B, 0, nilpotent, SLOT_A)
    with pytest.raises(StructureError) as err:
        extract_canonical(tri, seq)
    assert err.value.law == "opposite-corner-centrality"
    assert err.value.where == (1, "B", 0)


def test_extraction_rejects_surviving_commutators():
    tri = load_catalog("tri_t2_plane_q")
    # send the commutator direction of the A-corner across to the B-corner
    seq = single_column_map(tri, SLOT_A, 1, (scalar(1),), SLOT_B)
    with pytest.raises(StructureError) as err:
        extract_canonical(tri, seq)
    assert err.value.law == "commutator-annihilation"
    assert err.value.where == (1, "A")


def test_extraction_rejects_module_leak():
    tri = load_catalog("tri_qq_plane_q")
    seq = single_column_map(tri, SLOT_M, 0, tri.part_a.unit, SLOT_A)
    with pytest.raises(StructureError) as err:
        extract_canonical(tri, seq)
    assert err.value.law == "module-image-confinement"
    assert err.value.where == (1, 0, SLOT_A)


def test_extraction_rejects_inconsistent_mixed_block():
    tri = load_catalog("tri_qq_plane_q")
    seq = single_column_map(tri, SLOT_A, 0, (scalar(0), scalar(1)), SLOT_M)
    with pytest.raises(StructureError) as err:
        extract_canonical(tri, seq)
    assert err.value.law == "display-reconstruction"
    assert err.value.where == (1,)


@pytest.mark.parametrize("name", catalog_names())
def test_properness_report_empty_on_samples(name):
    tri = load_catalog(name)
    for seed in (0, 5):
        seq = sample_sequence(tri.algebra, LIE_HIGHER, 3, seed)
        dec = decompose(tri, seq)
        assert verify_properness(tri, seq, dec) == ()


@pytest.mark.parametrize("name", catalog_names())
def test_single_level_path_matches_sequence_path(name):
    tri = load_catalog(name)
    seq = sample_sequence(tri.algebra, LIE_HIGHER, 2, 0)
    dec = decompose(tri, seq)
    delta1, chi1 = lie_derivation_decompose(tri, seq.levels[1])
    assert delta1.matrix == dec.delta[1].matrix
    assert chi1.matrix == dec.chi[1].matrix


def test_single_level_path_rejects_bad_input():
    tri = load_catalog("tri_t2_plane_q")
    bad = single_column_map(tri, SLOT_B, 0, unit_vector(3, 1), SLOT_A)
    with pytest.raises(StructureError):
        lie_derivation_decompose(tri, bad.levels[1])


@pytest.mark.parametrize("name", catalog_names())
def test_probe_completes_via_display_on_lie_higher_input(name):
    tri = load_catalog(name)
    seq = sample_sequence(tri.algebra, LIE_HIGHER, 4, 3)
    report = probe_conjecture(tri, seq)
    assert report.complete
    assert [lv.status for lv in report.levels] == ["found"] * 5
    assert report.levels[0].method == "definition"
    assert all(lv.method == "display" for lv in report.levels[1:])


def test_probe_identity_pad_succeeds():
    tri = load_catalog("tri_dual_dual_dual")
    report = probe_conjecture(tri, identity_pad(tri, 3))
    assert report.complete
    assert all(lv.status == "found" for lv in report.levels)


@pytest.mark.parametrize("name", catalog_names())
def test_probe_affine_route_agrees_with_canonical_split(name):
    tri = load_catalog(name)
    ext = build_operator_extension(tri)
    emb = ext.embedding_map()
    seq = sample_sequence(tri.algebra, LIE_HIGHER, 3, 2)
    dec = decompose(tri, seq)
    solver, *_ = _probe_system(tri)
    chosen = [LinearMap(tri.dim, ext.extended.dim, emb.matrix)]
    for n in range(1, 4):
        rhs = _probe_rhs(tri, ext, emb, seq.levels[n], chosen, n)
        solution = solver.solve(rhs)
        assert not solution.is_empty
        assert solution.contains(dec.delta[n].matrix.flatten())
        chosen.append(dec.delta[n])


@pytest.mark.parametrize("name", catalog_names())
def test_probe_triple_samples_produce_complete_reports(name):
    # structural check only: every level is reported with a legal status; the
    # mathematical outcome is recorded, not asserted
    tri = load_catalog(name)
    for seed in range(3):
        seq = sample_sequence(tri.algebra, LIE_TRIPLE_HIGHER, 3, seed)
        report = probe_conjecture(tri, seq)
        assert len(report.levels) == 4
        assert all(lv.status in {"found", "not-found", "skipped"}
                   for lv in report.levels)
        assert report.complete == all(lv.status == "found"
                                      for lv in report.levels)


def test_split_freedom_is_zero_on_this_corpus():
    # observed fact about these six algebras, reported by the probe
    for name in catalog_names():
        solver, *_ = _probe_system(load_catalog(name))
        assert solver.nullspace.dim == 0


@pytest.mark.parametrize("name", ("tri_qq_plane_q", "tri_q_plane_qq"))
def test_central_part_never_leaves_embedded_center_here(name):
    # The extension has one extra central direction beyond the embedded
    # center, yet no sampled split ever lands there: over the whole Lie
    # derivation space the cross-corner blocks only produce multiples of the
    # unit, which pairs back into the embedded center.  Recorded outcome of
    # the search for an escaping central part.
    tri = load_catalog(name)
    ext = build_operator_extension(tri)
    emb = ext.embedding_map()
    z_base = center_subspace(tri)
    z_ext = center_subspace(ext.extended)
    embedded = SubspaceBasis.span(ext.extended.dim,
                                  [emb.apply(v) for v in z_base.vectors])
    assert z_ext.dim == embedded.dim + 1  # the room exists

    from trilie.derivations import lie_derivation_space
    space = lie_derivation_space(tri.algebra)
    q_vals, p_vals = [], []
    for v in space.vectors:
        level = matrix_from_flat(v, tri.dim, tri.dim)
        for i in range(tri.dim_a):
            q_vals.append(tri.project(level.column(i), SLOT_B))
        for i in range(tri.dim_b):
            col = level.column(tri.dim_a + tri.dim_m + i)
            p_vals.append(tri.project(col, SLOT_A))
    assert SubspaceBasis.span(tri.dim_b, q_vals).vectors == (tri.part_b.unit,)
    assert SubspaceBasis.span(tri.dim_a, p_vals).vectors == (tri.part_a.unit,)

    for seed in range(5):
        seq = sample_sequence(tri.algebra, LIE_HIGHER, 4, seed)
        dec = decompose(tri, seq)
        for n in range(5):
            for c in range(tri.dim):
                assert embedded.contains(dec.chi[n].matrix.column(c))


def _run_with_doubled_embedding(call: str):
    """Run `call` under `python -O` on an L2 Lie higher sample whose
    embedding map is doubled, so Δ + χ misses ι∘L; print the law and the
    level of the StructureError it raises."""
    script = (
        "from trilie.catalog import load_catalog\n"
        "from trilie.decomposition import StructureError, decompose, probe_conjecture\n"
        "from trilie.derivations import LIE_HIGHER, sample_sequence\n"
        "from trilie.extension import ExtendedTriangular, build_operator_extension\n"
        "tri = load_catalog('tri_t2_plane_q')\n"
        "seq = sample_sequence(tri.algebra, LIE_HIGHER, 2, 0)\n"
        "build_operator_extension(tri)\n"
        "embedding_map = ExtendedTriangular.embedding_map\n"
        "ExtendedTriangular.embedding_map = lambda self: embedding_map(self).scale(2)\n"
        "try:\n"
        f"    {call}\n"
        "except StructureError as exc:\n"
        "    print(exc.law, *exc.where)\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_split_reassembly_mismatch_raises_under_optimize():
    """The reassembly check in decompose is not an assert, so `python -O`
    keeps it: a wrong embedding map makes Δ + χ miss ι∘L and raises."""
    assert _run_with_doubled_embedding("decompose(tri, seq)") == ["split-reassembly", "0"]


def test_probe_does_not_swallow_a_split_reassembly_mismatch():
    """probe_conjecture falls back to the affine route when the input has no
    canonical split, but a split that does not reassemble is a fault of
    decompose itself and must reach the caller."""
    assert (_run_with_doubled_embedding("probe_conjecture(tri, seq)")
            == ["split-reassembly", "0"])
