"""Triangular assembly, center, and transfer-map tests.

Center dimensions for the catalog were worked out by hand from the pair
equations a·m = m·b; the code must also agree with the generic
structure-constant center (that cross-check is built into center_subspace).
"""

import pytest

from trilie.algebra import (
    center,
    product_of_rationals,
    rationals,
    upper_triangular_2x2,
    validate_algebra,
)
from trilie.bimodule import Bimodule
from trilie.catalog import (
    CATALOG,
    load_catalog,
    tri_dual_dual_dual,
    tri_q_plane_qq,
    tri_q_q_q,
    tri_qq_plane_q,
    tri_qq_plane_qq,
    tri_t2_plane_q,
)
from trilie.linalg import (
    SubspaceBasis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vector,
    zero_vector,
)
from trilie.triangular import (
    SLOT_A,
    SLOT_B,
    SLOT_M,
    FaithfulnessError,
    build_triangular,
    center_subspace,
    center_transfer,
    center_triangular,
    format_block,
)

EXPECTED_CENTER_DIMS = {
    "tri_q_q_q": 1,
    "tri_qq_plane_q": 1,
    "tri_q_plane_qq": 1,
    "tri_dual_dual_dual": 2,
    "tri_t2_plane_q": 1,
    "tri_qq_plane_qq": 2,
}


def test_tri_q_q_q_matches_t2():
    tri = tri_q_q_q()
    t2 = upper_triangular_2x2()
    # basis order (a, m, b) corresponds to (e11, e12, e22)
    assert tri.algebra.struct_consts == t2.struct_consts
    assert tri.algebra.unit == t2.unit
    assert tri.e == unit_vector(3, 0) and tri.f == unit_vector(3, 2)


def test_catalog_builds_and_validates():
    for name in CATALOG:
        tri = load_catalog(name)
        assert validate_algebra(tri.algebra) == ()
        assert tri.dim == tri.dim_a + tri.dim_m + tri.dim_b
        e, f = tri.e, tri.f
        assert tri.multiply(e, e) == e
        assert tri.multiply(f, f) == f
        assert vec_is_zero(tri.multiply(e, f))
        assert vec_add(e, f) == tri.algebra.unit


def test_m_block_squares_to_zero():
    tri = tri_qq_plane_q()
    for i in range(tri.dim_m):
        for j in range(tri.dim_m):
            mi = tri.embed(unit_vector(tri.dim_m, i), SLOT_M)
            mj = tri.embed(unit_vector(tri.dim_m, j), SLOT_M)
            assert vec_is_zero(tri.multiply(mi, mj))


def test_projections_and_embeddings():
    tri = tri_t2_plane_q()
    a = vector([1, 2, 3])
    assert tri.project(tri.embed(a, SLOT_A), SLOT_A) == a
    assert tri.project(tri.e, SLOT_A) == tri.part_a.unit
    x = vector([1, 2, 3, 4, 5, 6])
    pa, pm, pb = tri.split(x)
    recombined = vec_add(vec_add(tri.embed(pa, SLOT_A), tri.embed(pm, SLOT_M)),
                         tri.embed(pb, SLOT_B))
    assert recombined == x
    with pytest.raises(ValueError):
        tri.project(x, "Z")
    with pytest.raises(ValueError):
        tri.embed(a, SLOT_M)


def test_block_products_agree_with_constituents():
    tri = tri_t2_plane_q()
    A, B, bm = tri.part_a, tri.part_b, tri.bimodule
    for i in range(A.dim):
        for j in range(A.dim):
            ai, aj = A.basis_vector(i), A.basis_vector(j)
            assert tri.multiply(tri.embed(ai, SLOT_A), tri.embed(aj, SLOT_A)) == \
                tri.embed(A.multiply(ai, aj), SLOT_A)
    for i in range(A.dim):
        for j in range(tri.dim_m):
            ai, mj = A.basis_vector(i), unit_vector(tri.dim_m, j)
            assert tri.multiply(tri.embed(ai, SLOT_A), tri.embed(mj, SLOT_M)) == \
                tri.embed(bm.act_left(ai, mj), SLOT_M)
    for j in range(tri.dim_m):
        for k in range(B.dim):
            mj, bk = unit_vector(tri.dim_m, j), B.basis_vector(k)
            assert tri.multiply(tri.embed(mj, SLOT_M), tri.embed(bk, SLOT_B)) == \
                tri.embed(bm.act_right(mj, bk), SLOT_M)
    # opposite-order products vanish
    assert vec_is_zero(tri.multiply(tri.f, tri.embed(unit_vector(2, 0), SLOT_M)))
    assert vec_is_zero(tri.multiply(tri.embed(unit_vector(2, 0), SLOT_M), tri.e))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_center_dimension_and_shape(name):
    tri = load_catalog(name)
    elements = center_triangular(tri)
    assert len(elements) == EXPECTED_CENTER_DIMS[name]
    sub = center_subspace(tri)  # includes the generic-center cross-check
    assert sub.dim == len(elements)
    for c in elements:
        total = tri.assemble(c.a_part, zero_vector(tri.dim_m), c.b_part)
        assert sub.contains(total)
        # commutes with everything
        for i in range(tri.dim):
            bi = tri.algebra.basis_vector(i)
            assert tri.multiply(total, bi) == tri.multiply(bi, total)
    # M part of every generic center vector vanishes
    for v in sub.vectors:
        assert vec_is_zero(tri.project(v, SLOT_M))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_center_sandwich_criterion(name):
    """Central c must satisfy c·(exf) = (exf)·c for every basis x."""
    tri = load_catalog(name)
    e, f = tri.e, tri.f
    for v in center_subspace(tri).vectors:
        for i in range(tri.dim):
            x = tri.algebra.basis_vector(i)
            exf = tri.multiply(tri.multiply(e, x), f)
            assert tri.multiply(v, exf) == tri.multiply(exf, v)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_center_projections_land_in_constituent_centers(name):
    tri = load_catalog(name)
    za, zb = center(tri.part_a), center(tri.part_b)
    for c in center_triangular(tri):
        assert za.contains(vector(c.a_part))
        assert zb.contains(vector(c.b_part))


def test_center_values():
    tri = tri_qq_plane_q()
    (c,) = center_triangular(tri)
    # only ((t,t), t): strictly smaller than Z(A) = ℚ²
    assert c.a_part == vector([1, 1]) and c.b_part == vector([1])
    tri = tri_qq_plane_qq()
    elements = center_triangular(tri)
    got = {(tuple(c.a_part), tuple(c.b_part)) for c in elements}
    assert got == {(vector([1, 0]), vector([1, 0])), (vector([0, 1]), vector([0, 1]))}


def test_eta_identity_case():
    tri = tri_q_q_q()
    tr = center_transfer(tri)
    assert tr.domain.dim == tr.codomain.dim == 1
    assert tr.apply(vector([1])) == vector([1])
    assert tr.apply_inverse(vector([1])) == vector([1])


def test_eta_pairs_diagonal_center():
    tri = tri_qq_plane_q()
    tr = center_transfer(tri)
    assert tr.apply(vector([2, 2])) == vector([2])
    with pytest.raises(ValueError):
        tr.apply(vector([1, 0]))  # not an A-part of any central element


def test_eta_multiplicative_on_two_dimensional_center():
    tri = tri_dual_dual_dual()
    tr = center_transfer(tri)
    assert tr.domain.dim == 2
    A, B = tri.part_a, tri.part_b
    for u in tr.domain.vectors:
        for v in tr.domain.vectors:
            prod = A.multiply(u, v)
            assert tr.apply(prod) == B.multiply(tr.apply(u), tr.apply(v))
    assert tr.apply(A.unit) == B.unit
    # bijective: inverse round-trips every basis vector
    for u in tr.domain.vectors:
        assert tr.apply_inverse(tr.apply(u)) == u


def test_eta_defining_identity():
    """a·m = m·η(a) for every m, on every catalog algebra."""
    for name in CATALOG:
        tri = load_catalog(name)
        tr = center_transfer(tri)
        bm = tri.bimodule
        for a in tr.domain.vectors:
            b = tr.apply(a)
            for j in range(tri.dim_m):
                mj = unit_vector(tri.dim_m, j)
                assert bm.act_left(a, mj) == bm.act_right(mj, b)


def test_non_faithful_bimodule_rejected():
    qq = product_of_rationals(2)
    q = rationals()
    bm = Bimodule.from_tables(qq, q, 1, [[[1]], [[0]]], [[[1]]])
    with pytest.raises(FaithfulnessError) as info:
        build_triangular(qq, bm, q)
    assert info.value.side == "left"


def test_mismatched_constituents_rejected():
    q = rationals()
    bm = Bimodule.from_tables(q, q, 1, [[[1]]], [[[1]]])
    with pytest.raises(ValueError):
        build_triangular(product_of_rationals(2), bm, q)


def test_format_block():
    tri = tri_q_q_q()
    text = format_block(tri, vector([1, 2, "3/4"]))
    assert text == "[[(1), (2)], [0, (3/4)]]"
