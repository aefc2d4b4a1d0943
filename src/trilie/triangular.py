"""Triangular algebras: 2×2 upper-triangular block algebras Tri(A, M, B).

Elements are triples (a, m, b) laid out in block order A, M, B with the
multiplication (a, m, b)·(a′, m′, b′) = (aa′, am′ + mb′, bb′).  Construction
refuses non-faithful bimodules: every center and transfer-map computation
below relies on faithfulness for uniqueness.
"""

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Algebra, center, validate_algebra
from .bimodule import Bimodule, check_faithful, validate_bimodule
from .linalg import (
    Matrix,
    SubspaceBasis,
    ZERO,
    nullspace,
    solve_affine,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)

SLOT_A = "A"
SLOT_M = "M"
SLOT_B = "B"


class FaithfulnessError(ValueError):
    """Raised when a bimodule is not faithful on the named side."""

    def __init__(self, side: str):
        self.side = side
        super().__init__(f"bimodule is not faithful as a {side} module; "
                         "triangular construction requires faithfulness on both sides")


@dataclass(frozen=True)
class CenterElement:
    """A central element (a, 0, b): the middle block is always forced zero."""

    a_part: tuple
    b_part: tuple


@dataclass(frozen=True)
class TriangularAlgebra:
    algebra: Algebra
    part_a: Algebra
    bimodule: Bimodule
    part_b: Algebra

    @property
    def dim_a(self):
        return self.part_a.dim

    @property
    def dim_m(self):
        return self.bimodule.dim_m

    @property
    def dim_b(self):
        return self.part_b.dim

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def e(self):
        """Idempotent (1_A, 0, 0)."""
        return self.embed(self.part_a.unit, SLOT_A)

    @property
    def f(self):
        """Idempotent (0, 0, 1_B); e + f is the unit."""
        return self.embed(self.part_b.unit, SLOT_B)

    def _slot_range(self, slot):
        if slot == SLOT_A:
            return 0, self.dim_a
        if slot == SLOT_M:
            return self.dim_a, self.dim_a + self.dim_m
        if slot == SLOT_B:
            return self.dim_a + self.dim_m, self.dim
        raise ValueError(f"unknown slot {slot!r}")

    def project(self, x, slot):
        if len(x) != self.dim:
            raise ValueError("element length does not match triangular dimension")
        lo, hi = self._slot_range(slot)
        return tuple(x[lo:hi])

    def embed(self, part, slot):
        lo, hi = self._slot_range(slot)
        if len(part) != hi - lo:
            raise ValueError(f"part length does not match the {slot} block")
        out = [ZERO] * self.dim
        out[lo:hi] = part
        return tuple(out)

    def split(self, x):
        return (self.project(x, SLOT_A), self.project(x, SLOT_M),
                self.project(x, SLOT_B))

    def assemble(self, a, m, b):
        return tuple(a) + tuple(m) + tuple(b)

    def multiply(self, x, y):
        return self.algebra.multiply(x, y)

    def bracket(self, x, y):
        return self.algebra.bracket(x, y)


def build_triangular(part_a: Algebra, bimodule: Bimodule, part_b: Algebra,
                     name: str = "") -> TriangularAlgebra:
    """Assemble Tri(A, M, B) and fully validate the result.

    Rejects invalid constituents and non-faithful bimodules; the assembled
    structure-constant algebra is itself revalidated (an internal consistency
    guarantee, since validity follows from the constituents' axioms).
    """
    report = validate_algebra(part_a)
    if report:
        raise ValueError(f"left algebra invalid: {report[0]}")
    report = validate_algebra(part_b)
    if report:
        raise ValueError(f"right algebra invalid: {report[0]}")
    if bimodule.algebra_a != part_a or bimodule.algebra_b != part_b:
        raise ValueError("bimodule does not reference the given algebra pair")
    report = validate_bimodule(bimodule)
    if report:
        raise ValueError(f"bimodule invalid: {report[0]}")
    for side in ("left", "right"):
        if not check_faithful(bimodule, side):
            raise FaithfulnessError(side)

    da, dm, db = part_a.dim, bimodule.dim_m, part_b.dim
    d = da + dm + db

    def a_idx(i):
        return i

    def m_idx(j):
        return da + j

    def b_idx(k):
        return da + dm + k

    consts = [[zero_vector(d) for _ in range(d)] for _ in range(d)]

    def place(row, col, block_coords, offset):
        out = [ZERO] * d
        out[offset:offset + len(block_coords)] = block_coords
        consts[row][col] = tuple(out)

    for i in range(da):
        for j in range(da):
            place(a_idx(i), a_idx(j), part_a.struct_consts[i][j], 0)
        for j in range(dm):
            place(a_idx(i), m_idx(j), bimodule.left_action[i][j], da)
    for j in range(dm):
        for k in range(db):
            place(m_idx(j), b_idx(k), bimodule.right_action[j][k], da)
    for i in range(db):
        for j in range(db):
            place(b_idx(i), b_idx(j), part_b.struct_consts[i][j], da + dm)

    unit = tuple(part_a.unit) + zero_vector(dm) + tuple(part_b.unit)
    total = Algebra(d, tuple(tuple(row) for row in consts), unit,
                    name or f"Tri({part_a.name},M,{part_b.name})")
    assert validate_algebra(total) == (), \
        "assembled triangular algebra failed validation despite valid constituents"
    tri = TriangularAlgebra(total, part_a, bimodule, part_b)

    e, f = tri.e, tri.f
    assert tri.multiply(e, e) == e and tri.multiply(f, f) == f
    assert vec_is_zero(tri.multiply(e, f)) and vec_is_zero(tri.multiply(f, e))
    assert vec_add(e, f) == unit
    return tri


@lru_cache(maxsize=None)
def _center_pairs(tri: TriangularAlgebra) -> SubspaceBasis:
    """Canonical basis of {(a, b) : a·m = m·b for every m}, in ℚ^(da+db).

    Faithfulness makes this the exact center condition: commutation with the
    embedded copies of A and B follows automatically from these equations.
    """
    da, dm, db = tri.dim_a, tri.dim_m, tri.dim_b
    bm = tri.bimodule
    rows = []
    for j in range(dm):
        for k in range(dm):
            row = [bm.left_action[i][j][k] for i in range(da)]
            row += [-bm.right_action[j][l][k] for l in range(db)]
            rows.append(row)
    return nullspace(Matrix.from_rows(rows, da + db))


@lru_cache(maxsize=None)
def center_subspace(tri: TriangularAlgebra) -> SubspaceBasis:
    """Center of the assembled algebra, in total coordinates.

    Computed from the pair description and cross-checked for exact equality
    against the generic structure-constant center; the two must agree.
    """
    da, db = tri.dim_a, tri.dim_b
    embedded = []
    for pair in _center_pairs(tri).vectors:
        a_part, b_part = pair[:da], pair[da:]
        embedded.append(tri.assemble(a_part, zero_vector(tri.dim_m), b_part))
    from_pairs = SubspaceBasis.span(tri.dim, embedded)
    generic = center(tri.algebra)
    assert from_pairs == generic, \
        "pair description of the center disagrees with the generic center"
    return from_pairs


def center_triangular(tri: TriangularAlgebra) -> tuple:
    """Basis of the center as (a_part, b_part) pairs; M parts are zero."""
    da = tri.dim_a
    center_subspace(tri)  # force the cross-check
    out = []
    for pair in _center_pairs(tri).vectors:
        out.append(CenterElement(tuple(pair[:da]), tuple(pair[da:])))
    return tuple(out)


@dataclass(frozen=True)
class CenterTransfer:
    """The transfer isomorphism between the center's A-side and B-side.

    domain is the A-part projection of the center, codomain the B-part
    projection; matrix columns give images of the canonical domain basis in
    codomain coordinates.  For every a in the domain, a·m = m·apply(a) holds
    for all m, and this pins apply(a) uniquely by right faithfulness.
    """

    domain: SubspaceBasis
    codomain: SubspaceBasis
    matrix: Matrix

    def apply(self, a):
        coords = self.domain.coordinates(a)
        if coords is None:
            raise ValueError("element is not in the center's A-part projection")
        out = zero_vector(self.codomain.ambient_dim)
        for c, basis_vec in zip(self.matrix.apply(coords), self.codomain.vectors):
            out = vec_add(out, vec_scale(c, basis_vec))
        return out

    def apply_inverse(self, b):
        coords = self.codomain.coordinates(b)
        if coords is None:
            raise ValueError("element is not in the center's B-part projection")
        sol = solve_affine(self.matrix, coords)
        assert not sol.is_empty and sol.homogeneous.dim == 0, \
            "center transfer must be invertible"
        out = zero_vector(self.domain.ambient_dim)
        for c, basis_vec in zip(sol.particular, self.domain.vectors):
            out = vec_add(out, vec_scale(c, basis_vec))
        return out


def _solve_right_partner(tri: TriangularAlgebra, a):
    """The unique b with a·m_j = m_j·b for all j (exists for central a-parts)."""
    bm = tri.bimodule
    dm, db = tri.dim_m, tri.dim_b
    rows = []
    rhs = []
    for j in range(dm):
        image = bm.act_left(a, unit_vector(dm, j))
        for k in range(dm):
            rows.append([bm.right_action[j][l][k] for l in range(db)])
            rhs.append(image[k])
    sol = solve_affine(Matrix.from_rows(rows, db), tuple(rhs))
    assert not sol.is_empty, "transfer partner must exist for central A-parts"
    assert sol.homogeneous.dim == 0, "faithfulness must pin the partner uniquely"
    return sol.particular


@lru_cache(maxsize=None)
def center_transfer(tri: TriangularAlgebra) -> CenterTransfer:
    """Materialize the A-side → B-side center isomorphism on canonical bases."""
    da = tri.dim_a
    pairs = _center_pairs(tri).vectors
    domain = SubspaceBasis.span(da, [p[:da] for p in pairs])
    codomain = SubspaceBasis.span(tri.dim_b, [p[da:] for p in pairs])
    assert domain.dim == len(pairs) == codomain.dim, \
        "center projections must be faithful to the pair count"
    image_coords = []
    for a in domain.vectors:
        b = _solve_right_partner(tri, a)
        coords = codomain.coordinates(b)
        assert coords is not None, "transfer image must land in the B-part projection"
        image_coords.append(coords)
    matrix = Matrix.from_columns(image_coords, codomain.dim)
    return CenterTransfer(domain, codomain, matrix)



def format_block(tri: TriangularAlgebra, x) -> str:
    """Render an element as its 2×2 block display."""
    a, m, b = tri.split(x)

    def fmt(vec):
        return "(" + ", ".join(str(c) for c in vec) + ")"

    return f"[[{fmt(a)}, {fmt(m)}], [0, {fmt(b)}]]"
