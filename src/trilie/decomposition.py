"""Canonical components and properness decompositions on triangular algebras.

Any sequence member L_n of a Lie higher derivation on Tri(A, M, B) acts
blockwise in a rigid pattern: the corners A and B map into themselves plus a
central sliver of the opposite corner, M maps into itself, and the mixed
A→M / B→M behaviour is generated by a single module element per level.  The
per-level data

    diag_a   f_n : A → A          corner action on A
    cross_ab q_n : A → center(B)  opposite-corner sliver of A's image
    cross_ba p_n : B → center(A)  opposite-corner sliver of B's image
    diag_b   g_n : B → B          corner action on B
    mod      h_n : M → M          module action
    offsets  m_n ∈ M  (n ≥ 1)     the element generating the mixed terms

assembles back to L_n via the display

    L_n(a, m, b) = ( f_n(a) + p_n(b),
                     Σ_{j=1..n} [(f_{n−j}(a) + p_{n−j}(b))·m_j
                                 − m_j·(q_{n−j}(a) + g_{n−j}(b))] + h_n(m),
                     q_n(a) + g_n(b) )

The properness decomposition moves the central slivers out of the way inside
the operator extension Tri(A0, M, B0): with the transfers τ (central right
multiplications realized in A0, central left multiplications in B0), the maps

    d_n  = ι_A∘f_n − τ_r⁻¹∘q_n : A → A0
    d'_n = ι_B∘g_n − τ_ℓ∘p_n  : B → B0

define Δ_n(a, m, b) = (d_n(a); Σ_{j=1..n}[d_{n−j}(a)·m_j − m_j·d'_{n−j}(b)]
+ h_n(m); d'_n(b)) and χ_n(a, m, b) = (τ_r⁻¹(q_n(a)) + ι_A(p_n(b)); 0;
ι_B(q_n(a)) + τ_ℓ(p_n(b))).  Then ι∘L_n = Δ_n + χ_n identically, {Δ_n} obeys
the higher-derivation law in the extension, every χ_n value is central
there, and χ_n vanishes on commutators — verify_properness rechecks all of
it exactly.
"""

from dataclasses import dataclass
from functools import lru_cache

from .algebra import LinearMap, Violation, center, commutator_subspace
from .derivations import LIE_HIGHER, HigherMapSequence, _Law
from .extension import ExtendedTriangular, build_operator_extension
from .linalg import (
    FactoredSolver,
    Matrix,
    SubspaceBasis,
    ZERO,
    matrix_from_flat,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from .triangular import (
    SLOT_A,
    SLOT_B,
    SLOT_M,
    TriangularAlgebra,
    center_subspace,
)


class StructureError(ValueError):
    """A canonical-form post-check failed; names the identity and a witness.

    Raised when the input was not a Lie higher derivation on a genuine
    triangular algebra (or an upstream component is faulty)."""

    def __init__(self, law: str, where: tuple, message: str):
        self.law = law
        self.where = where
        super().__init__(f"{law} at {where}: {message}")


@dataclass(frozen=True)
class CanonicalComponents:
    """Per-level block data of a Lie higher derivation; index = level."""

    diag_a: tuple
    cross_ab: tuple
    cross_ba: tuple
    diag_b: tuple
    mod: tuple
    offsets: tuple

    @property
    def top_level(self) -> int:
        return len(self.diag_a) - 1


@dataclass(frozen=True)
class ProperDecomposition:
    """Δ and χ sequences into the operator extension, with the diagonal maps."""

    extension: ExtendedTriangular
    components: CanonicalComponents
    delta: tuple
    chi: tuple
    diag_a0: tuple
    diag_b0: tuple


def extract_canonical(tri: TriangularAlgebra, seq: HigherMapSequence) -> CanonicalComponents:
    """Read the block components off a verified Lie higher derivation.

    Every post-check failure raises StructureError naming the violated
    identity with its witnessing basis tuple."""
    da, dm, db = tri.dim_a, tri.dim_m, tri.dim_b
    zb = center(tri.part_b)
    za = center(tri.part_a)
    comm_a = commutator_subspace(tri.part_a)
    comm_b = commutator_subspace(tri.part_b)

    diag_a, cross_ab, cross_ba, diag_b, mod, offsets = [], [], [], [], [], []
    for n, lm in enumerate(seq.levels):
        f_cols, q_cols = [], []
        for i in range(da):
            image = lm.apply(tri.embed(tri.part_a.basis_vector(i), SLOT_A))
            f_cols.append(tri.project(image, SLOT_A))
            q_cols.append(tri.project(image, SLOT_B))
            if not zb.contains(q_cols[-1]):
                raise StructureError(
                    "opposite-corner-centrality", (n, "A", i),
                    "the B-corner image of an A element must be central in B")
        p_cols, g_cols = [], []
        for i in range(db):
            image = lm.apply(tri.embed(tri.part_b.basis_vector(i), SLOT_B))
            p_cols.append(tri.project(image, SLOT_A))
            g_cols.append(tri.project(image, SLOT_B))
            if not za.contains(p_cols[-1]):
                raise StructureError(
                    "opposite-corner-centrality", (n, "B", i),
                    "the A-corner image of a B element must be central in A")
        h_cols = []
        for j in range(dm):
            image = lm.apply(tri.embed(unit_vector(dm, j), SLOT_M))
            for slot in (SLOT_A, SLOT_B):
                if not vec_is_zero(tri.project(image, slot)):
                    raise StructureError(
                        "module-image-confinement", (n, j, slot),
                        "images of module elements must stay in the module block")
            h_cols.append(tri.project(image, SLOT_M))

        f_n = LinearMap.from_columns(f_cols, da)
        q_n = LinearMap.from_columns(q_cols, db)
        p_n = LinearMap.from_columns(p_cols, da)
        g_n = LinearMap.from_columns(g_cols, db)
        h_n = LinearMap.from_columns(h_cols, dm)

        for v in comm_a.vectors:
            if not vec_is_zero(q_n.apply(v)):
                raise StructureError(
                    "commutator-annihilation", (n, "A"),
                    "the B-corner sliver must vanish on commutators of A")
        for v in comm_b.vectors:
            if not vec_is_zero(p_n.apply(v)):
                raise StructureError(
                    "commutator-annihilation", (n, "B"),
                    "the A-corner sliver must vanish on commutators of B")

        if n == 0:
            offset = zero_vector(dm)
        else:
            offset = tri.project(lm.apply(tri.e), SLOT_M)
            for i in range(1, n):
                fi_unit = diag_a[i].apply(tri.part_a.unit)
                qi_unit = cross_ab[i].apply(tri.part_a.unit)
                offset = vec_sub(offset, tri.bimodule.act_left(fi_unit, offsets[n - i]))
                offset = vec_add(offset, tri.bimodule.act_right(offsets[n - i], qi_unit))

        diag_a.append(f_n)
        cross_ab.append(q_n)
        cross_ba.append(p_n)
        diag_b.append(g_n)
        mod.append(h_n)
        offsets.append(offset)

    comps = CanonicalComponents(tuple(diag_a), tuple(cross_ab), tuple(cross_ba),
                                tuple(diag_b), tuple(mod), tuple(offsets))
    rebuilt = reconstruct(tri, comps)
    for n, (got, want) in enumerate(zip(rebuilt.levels, seq.levels)):
        if got.matrix != want.matrix:
            raise StructureError(
                "display-reconstruction", (n,),
                "the block display does not reassemble the input map; the "
                "input is not a Lie higher derivation of this triangular algebra")
    return comps


def reconstruct(tri: TriangularAlgebra, comps: CanonicalComponents) -> HigherMapSequence:
    """Assemble the map sequence from block components via the display."""
    alg_dim = tri.dim
    da, dm, db = tri.dim_a, tri.dim_m, tri.dim_b
    bm = tri.bimodule
    levels = []
    for n in range(comps.top_level + 1):
        cols = []
        for i in range(da):
            a = tri.part_a.basis_vector(i)
            m_part = zero_vector(dm)
            for j in range(1, n + 1):
                m_part = vec_add(m_part, bm.act_left(comps.diag_a[n - j].apply(a),
                                                     comps.offsets[j]))
                m_part = vec_sub(m_part, bm.act_right(comps.offsets[j],
                                                      comps.cross_ab[n - j].apply(a)))
            cols.append(tri.assemble(comps.diag_a[n].apply(a), m_part,
                                     comps.cross_ab[n].apply(a)))
        for j_m in range(dm):
            m = unit_vector(dm, j_m)
            cols.append(tri.assemble(zero_vector(da), comps.mod[n].apply(m),
                                     zero_vector(db)))
        for i in range(db):
            b = tri.part_b.basis_vector(i)
            m_part = zero_vector(dm)
            for j in range(1, n + 1):
                m_part = vec_add(m_part, bm.act_left(comps.cross_ba[n - j].apply(b),
                                                     comps.offsets[j]))
                m_part = vec_sub(m_part, bm.act_right(comps.offsets[j],
                                                      comps.diag_b[n - j].apply(b)))
            cols.append(tri.assemble(comps.cross_ba[n].apply(b), m_part,
                                     comps.diag_b[n].apply(b)))
        levels.append(LinearMap.from_columns(cols, alg_dim))
    return HigherMapSequence(LIE_HIGHER, tuple(levels))


def decompose(tri: TriangularAlgebra, seq: HigherMapSequence) -> ProperDecomposition:
    """Split a verified Lie higher derivation as ι∘L_n = Δ_n + χ_n."""
    ext = build_operator_extension(tri)
    comps = extract_canonical(tri, seq)
    da, dm, db = tri.dim_a, tri.dim_m, tri.dim_b
    d0 = ext.extended.dim

    diag_a0 = []
    diag_b0 = []
    for n in range(comps.top_level + 1):
        d_cols = []
        for i in range(da):
            a = tri.part_a.basis_vector(i)
            col = vec_sub(ext.iota_a.apply(comps.diag_a[n].apply(a)),
                          ext.tau_right_inv(comps.cross_ab[n].apply(a)))
            d_cols.append(col)
        diag_a0.append(LinearMap.from_columns(d_cols, ext.dim_a0))
        dp_cols = []
        for i in range(db):
            b = tri.part_b.basis_vector(i)
            col = vec_sub(ext.iota_b.apply(comps.diag_b[n].apply(b)),
                          ext.tau_left(comps.cross_ba[n].apply(b)))
            dp_cols.append(col)
        diag_b0.append(LinearMap.from_columns(dp_cols, ext.dim_b0))

    delta = []
    chi = []
    for n in range(comps.top_level + 1):
        delta_cols = []
        chi_cols = []
        for i in range(da):
            a = tri.part_a.basis_vector(i)
            m_part = zero_vector(dm)
            for j in range(1, n + 1):
                op = ext.a0_matrix(diag_a0[n - j].apply(a))
                m_part = vec_add(m_part, op.apply(comps.offsets[j]))
            delta_cols.append(ext.extended.assemble(
                diag_a0[n].apply(a), m_part, zero_vector(ext.dim_b0)))
            q_val = comps.cross_ab[n].apply(a)
            chi_cols.append(ext.extended.assemble(
                ext.tau_right_inv(q_val), zero_vector(dm), ext.iota_b.apply(q_val)))
        for j_m in range(dm):
            delta_cols.append(ext.extended.assemble(
                zero_vector(ext.dim_a0), comps.mod[n].apply(unit_vector(dm, j_m)),
                zero_vector(ext.dim_b0)))
            chi_cols.append(zero_vector(d0))
        for i in range(db):
            b = tri.part_b.basis_vector(i)
            m_part = zero_vector(dm)
            for j in range(1, n + 1):
                op = ext.b0_matrix(diag_b0[n - j].apply(b))
                m_part = vec_sub(m_part, op.apply(comps.offsets[j]))
            delta_cols.append(ext.extended.assemble(
                zero_vector(ext.dim_a0), m_part, diag_b0[n].apply(b)))
            p_val = comps.cross_ba[n].apply(b)
            chi_cols.append(ext.extended.assemble(
                ext.iota_a.apply(p_val), zero_vector(dm), ext.tau_left(p_val)))
        delta.append(LinearMap.from_columns(delta_cols, d0))
        chi.append(LinearMap.from_columns(chi_cols, d0))

    dec = ProperDecomposition(ext, comps, tuple(delta), tuple(chi),
                              tuple(diag_a0), tuple(diag_b0))
    emb = ext.embedding_map()
    for n in range(comps.top_level + 1):
        total = dec.delta[n].matrix + dec.chi[n].matrix
        if total != emb.matrix.mul(seq.levels[n].matrix):
            raise StructureError(
                "split-reassembly", (n,),
                "the split must reassemble to the embedded input exactly")
    return dec


def _products(alg) -> dict:
    """b_p·b_q for every ordered basis pair, in witness order."""
    return {(p, q): alg.struct_consts[p][q]
            for p in range(alg.dim) for q in range(alg.dim)}


@lru_cache(maxsize=None)
def _center_annihilator(tri: TriangularAlgebra) -> Matrix:
    return center_subspace(tri).annihilator()


def verify_properness(tri: TriangularAlgebra, seq: HigherMapSequence,
                      dec: ProperDecomposition) -> tuple:
    """Exact recheck of every property the decomposition promises.

    Checks, per level n: (1) ι∘L_n = Δ_n + χ_n; (2) the higher-derivation law
    for {Δ_n} on all basis pairs of the base algebra; (3) centrality of every
    χ_n value in the extension — decided independently via membership in the
    computed center and via the module-commutation criterion, which must
    agree; (4) χ_n vanishes on all basis commutators; (5) the module
    compatibility laws h_n(a·m) = Σ d_i(a)·h_j(m) and h_n(m·b) = Σ
    h_i(m)·d'_j(b); and the corner laws: {d_n} and {d'_n} each satisfy the
    higher-derivation law inside A0 and B0.  Failures are collected (first
    witness per law and level), never raised; only a disagreement between
    the two reads of the computed center, an internal fault, raises
    ArithmeticError."""
    ext = dec.extension
    big = ext.extended.algebra
    base = tri.algebra
    top = dec.components.top_level
    violations = []

    def flag(law, where, message):
        violations.append(Violation(law, where, message))

    def check(law, n, name, message):
        failure = law.failure(n)
        if failure:
            flag(name, (n,) + failure[0], message)

    emb = ext.embedding_map()
    for n in range(top + 1):
        if dec.delta[n].matrix + dec.chi[n].matrix != \
                emb.matrix.mul(seq.levels[n].matrix):
            flag("sum-residual", (n,),
                 "Δ + χ differs from the embedded input map")
            break

    higher = _Law(big.multiply, _products(base), dec.delta)
    for n in range(top + 1):
        check(higher, n, "higher-law",
              "Δ violates the higher-derivation law at this pair")

    zcenter = center_subspace(ext.extended)
    annihilator = _center_annihilator(ext.extended)
    me_lo = ext.dim_a0
    me_hi = ext.dim_a0 + tri.dim_m
    for n in range(top + 1):
        for c in range(base.dim):
            value = dec.chi[n].matrix.column(c)
            in_center = vec_is_zero(annihilator.apply(value))
            if in_center != zcenter.contains(value):  # same subspace, two reads
                raise ArithmeticError(
                    "the center annihilator and the center basis disagree "
                    f"on a χ value at level {n}, column {c}")
            # module-commutation criterion: no M block, and commutes with M
            sandwich = vec_is_zero(value[me_lo:me_hi])
            if sandwich:
                for j in range(tri.dim_m):
                    m_hat = ext.extended.embed(unit_vector(tri.dim_m, j), SLOT_M)
                    if big.multiply(value, m_hat) != big.multiply(m_hat, value):
                        sandwich = False
                        break
            if in_center != sandwich:
                flag("centrality-criteria-disagreement", (n, c),
                     "center membership and the module-commutation criterion "
                     "disagree; faithfulness of the extension is broken")
            if not in_center:
                flag("centrality", (n, c),
                     "a χ value lies outside the center of the extension")
                break

    for n in range(top + 1):
        done = False
        for p in range(base.dim):
            if done:
                break
            for q in range(p + 1, base.dim):
                w = base.bracket(base.basis_vector(p), base.basis_vector(q))
                if not vec_is_zero(dec.chi[n].apply(w)):
                    flag("commutator-annihilation", (n, p, q),
                         "χ does not vanish on a basis commutator")
                    done = True
                    break

    bm = tri.bimodule
    units_m = [unit_vector(tri.dim_m, j) for j in range(tri.dim_m)]
    # the mixed op a0_matrix(d_s(a))·h_{n−s}(m): each operator matrix built once
    d_ops = [[ext.a0_matrix(d.matrix.column(i)) for i in range(tri.dim_a)]
             for d in dec.diag_a0]
    dp_ops = [[ext.b0_matrix(d.matrix.column(i)) for i in range(tri.dim_b)]
              for d in dec.diag_b0]
    compat_left = _Law(
        Matrix.apply,
        {(i, j): bm.act_left(tri.part_a.basis_vector(i), units_m[j])
         for i in range(tri.dim_a) for j in range(tri.dim_m)},
        dec.components.mod, left=d_ops)
    compat_right = _Law(
        lambda m, op: op.apply(m),
        {(j, i): bm.act_right(units_m[j], tri.part_b.basis_vector(i))
         for j in range(tri.dim_m) for i in range(tri.dim_b)},
        dec.components.mod, right=dp_ops)
    for n in range(top + 1):
        check(compat_left, n, "module-compat-left",
              "h(a·m) differs from the d/h convolution")
        check(compat_right, n, "module-compat-right",
              "h(m·b) differs from the h/d' convolution")

    corner_a = _Law(ext.extended.part_a.multiply, _products(tri.part_a), dec.diag_a0)
    corner_b = _Law(ext.extended.part_b.multiply, _products(tri.part_b), dec.diag_b0)
    for n in range(top + 1):
        check(corner_a, n, "diagonal-higher-law-a",
              "{d_n} violates the higher law inside A0")
        check(corner_b, n, "diagonal-higher-law-b",
              "{d'_n} violates the higher law inside B0")

    return tuple(violations)


@dataclass(frozen=True)
class ProbeLevel:
    """Outcome of the split search at one level.

    status: "found", "not-found", or "skipped" (an earlier level failed).
    method: "definition" (level 0), "display" (canonical block formulas
    applied and rechecked), or "affine" (general linear solve); None unless
    found.  freedom: dimension of the homogeneous solution space of the
    level system — the non-uniqueness of the split, reported, never asserted
    to be zero."""

    level: int
    status: str
    method: str | None
    freedom: int | None


@dataclass(frozen=True)
class ProbeReport:
    """Per-level outcomes of the weakened-split search.

    complete is True iff every level was found.  A False value is a pipeline
    outcome for this particular search, not a counterexample claim."""

    levels: tuple
    complete: bool


@lru_cache(maxsize=None)
def _double_commutator_span(tri: TriangularAlgebra) -> SubspaceBasis:
    """Span of [[x, y], z] over all basis triples of the algebra."""
    alg = tri.algebra
    vecs = []
    for p in range(alg.dim):
        for q in range(p + 1, alg.dim):
            inner = alg.bracket(alg.basis_vector(p), alg.basis_vector(q))
            for r in range(alg.dim):
                vecs.append(alg.bracket(inner, alg.basis_vector(r)))
    return SubspaceBasis.span(alg.dim, vecs)


@lru_cache(maxsize=None)
def _probe_system(tri: TriangularAlgebra):
    """Level-independent coefficient data for the weakened split search.

    The unknown is the matrix X of Δ_n (target = extension, source = base),
    flattened row-major.  Row blocks, in order:
      (1) for every ordered basis pair (p, q): the linear part of
          Δ_n(b_p·b_q) − Δ_n(b_p)·ι(b_q) − ι(b_p)·Δ_n(b_q);
      (2) for every base column c and every center-annihilator row:
          the condition (ι∘L_n − Δ_n)(b_c) ∈ center, linear part −... folded
          so that rows read K·X·e_c (right-hand sides are K·ι(L_n(b_c)));
      (3) for every basis vector w of span{[[x,y],z]}: Δ_n(w) (right-hand
          sides are ι(L_n(w)), making χ_n vanish there).
    Returns (solver, products, left_ops, right_ops, annihilator, w_basis)."""
    ext = build_operator_extension(tri)
    base = tri.algebra
    big = ext.extended.algebra
    emb = ext.embedding_map()
    d = base.dim
    d0 = big.dim
    unknowns = d0 * d

    products = []
    left_ops = []
    right_ops = []
    for p in range(d):
        image = emb.apply(base.basis_vector(p))
        left_ops.append(big.left_mult_matrix(image))
        right_ops.append(big.right_mult_matrix(image))
    rows = []
    for p in range(d):
        for q in range(d):
            w = base.multiply(base.basis_vector(p), base.basis_vector(q))
            products.append(w)
            for s in range(d0):
                row = [ZERO] * unknowns
                for c in range(d):
                    if w[c]:
                        row[s * d + c] += w[c]
                for r in range(d0):
                    coeff = right_ops[q].entries[s][r]
                    if coeff:
                        row[r * d + p] -= coeff
                    coeff = left_ops[p].entries[s][r]
                    if coeff:
                        row[r * d + q] -= coeff
                rows.append(tuple(row))
    annihilator = _center_annihilator(ext.extended)
    for c in range(d):
        for k in range(annihilator.rows):
            row = [ZERO] * unknowns
            for r in range(d0):
                if annihilator.entries[k][r]:
                    row[r * d + c] += annihilator.entries[k][r]
            rows.append(tuple(row))
    w_basis = _double_commutator_span(tri)
    for w in w_basis.vectors:
        for s in range(d0):
            row = [ZERO] * unknowns
            for c in range(d):
                if w[c]:
                    row[s * d + c] += w[c]
            rows.append(tuple(row))
    solver = FactoredSolver(Matrix.from_rows(rows, unknowns))
    return solver, tuple(products), tuple(left_ops), tuple(right_ops), \
        annihilator, w_basis


def _probe_rhs(tri, ext, emb, level_map, chosen, n):
    """Right-hand sides matching the _probe_system row order at level n."""
    base = tri.algebra
    big = ext.extended.algebra
    d = base.dim
    _, products, _, _, annihilator, w_basis = _probe_system(tri)
    chosen_cols = [[m.matrix.column(c) for c in range(d)] for m in chosen]
    rhs = []
    idx = 0
    for p in range(d):
        for q in range(d):
            acc = zero_vector(big.dim)
            for i in range(1, n):
                acc = vec_add(acc, big.multiply(chosen_cols[i][p],
                                                chosen_cols[n - i][q]))
            rhs.extend(acc)
            idx += 1
    embedded = emb.matrix.mul(level_map.matrix)
    for c in range(d):
        rhs.extend(annihilator.apply(embedded.column(c)))
    for w in w_basis.vectors:
        rhs.extend(embedded.apply(w))
    return tuple(rhs)


def _probe_candidate_ok(tri, ext, emb, level_map, chosen, candidate, n) -> bool:
    """Recheck a display-derived Δ_n against the weakened requirements."""
    base = tri.algebra
    big = ext.extended.algebra
    d = base.dim
    maps = list(chosen) + [candidate]
    if _Law(big.multiply, _products(base), maps).failure(n):
        return False
    annihilator = _center_annihilator(ext.extended)
    embedded = emb.matrix.mul(level_map.matrix)
    residual = embedded - candidate.matrix
    for c in range(d):
        if not vec_is_zero(annihilator.apply(residual.column(c))):
            return False
    for w in _double_commutator_span(tri).vectors:
        if not vec_is_zero(residual.apply(w)):
            return False
    return True


def probe_conjecture(tri: TriangularAlgebra, seq: HigherMapSequence) -> ProbeReport:
    """Search for a split ι∘L_n = Δ_n + χ_n with weakened χ requirements.

    {Δ_n} must obey the higher-derivation law into the extension, every χ_n
    value must be central there, and χ_n must vanish on double commutators
    [[x, y], z] (but is allowed to survive on plain commutators).  Levels are
    processed greedily: the canonical block formulas are tried first when
    they apply; otherwise the level is posed as an exact affine system.  A
    not-found level stops the search; later levels report "skipped"."""
    ext = build_operator_extension(tri)
    emb = ext.embedding_map()
    big = ext.extended.algebra
    d = tri.dim
    try:
        dec = decompose(tri, seq)
    except ValueError as exc:
        # a split that does not reassemble is a fault of decompose, not of
        # the input, so it must not turn into a fallback to the affine route
        if isinstance(exc, StructureError) and exc.law == "split-reassembly":
            raise
        dec = None

    solver, *_ = _probe_system(tri)
    freedom = solver.nullspace.dim
    chosen = [LinearMap(d, big.dim, emb.matrix)]
    report = [ProbeLevel(0, "found", "definition", 0)]
    canonical_live = dec is not None
    dead = False
    for n in range(1, seq.top_level + 1):
        if dead:
            report.append(ProbeLevel(n, "skipped", None, None))
            continue
        if canonical_live and _probe_candidate_ok(tri, ext, emb, seq.levels[n],
                                                  chosen, dec.delta[n], n):
            chosen.append(dec.delta[n])
            report.append(ProbeLevel(n, "found", "display", freedom))
            continue
        canonical_live = False
        rhs = _probe_rhs(tri, ext, emb, seq.levels[n], chosen, n)
        solution = solver.solve(rhs)
        if solution.is_empty:
            report.append(ProbeLevel(n, "not-found", None, None))
            dead = True
            continue
        delta_n = LinearMap.from_matrix(
            matrix_from_flat(solution.particular, big.dim, d))
        chosen.append(delta_n)
        report.append(ProbeLevel(n, "found", "affine", freedom))
    complete = all(lv.status == "found" for lv in report)
    return ProbeReport(tuple(report), complete)
