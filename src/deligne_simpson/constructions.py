"""Exact witness tuples and their certified verification.

The generators here produce the closed-form matrix tuples the theory is
anchored on: the small irreducible families ex0..ex7 (two sparse shapes,
one with characteristic polynomial x^n + a, one with x^n + b x, both
size-parameterized), superdiagonal merging of two minimal nilpotent
orbits, and the two block-glued families (block-diagonal irreducibles
joined through coboundary blocks, either against an extra rank-m0 matrix
or against a corner-unit column that performs the (l+1, l-1) block
surgery on one form).

Everything returned is exact, and verify_tuple re-derives every claimed
property from the matrices alone: zero sum, nilpotency and Jordan types,
irreducibility via the generated-algebra dimension, centralizer dimension,
the characteristic polynomial of the weighted sum B with a certified count
of its simple nonzero roots, and the vanishing condition on the designated
block when an extra matrix is present.  Analytic deformation steps are
out of scope; only exact instances are built and certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmat import (
    Mat,
    NotNilpotentError,
    Poly,
    algebra_closure_dim,
    centralizer_dim,
    charpoly,
    jordan_nilpotent_matrix,
    jordan_type_nilpotent,
    mat_sum,
    nilpotent_jordan_basis,
    poly_gcd,
    rank,
    rational_rank,
    solve_coboundary_sum,
)
from .jnf import (
    CaseLabel,
    JnfTuple,
    JordanForm,
    Partition,
    PreconditionViolation,
    classify_family,
    omega0,
    r_of,
)

F = Fraction


class SizeUnsupportedError(ValueError):
    """The example family does not exist at the requested size."""


class EquivalentBlocksError(ValueError):
    """Diagonal blocks define equivalent representations."""


class UnavoidableError(ValueError):
    """Every normalization schedule lands in an exceptional profile."""

    def __init__(self, label: CaseLabel):
        super().__init__("profile is forced into %s" % label.name)
        self.label = label


class ScalingExhaustedError(RuntimeError):
    """The bounded block-scaling search found no admissible constants."""


@dataclass(frozen=True)
class MatrixTuple:
    """Square matrices with pole weights; the carrier of witnesses.

    When one more matrix than weights is present, the last matrix is the
    extra one attached to the designated apparent singularity.
    """

    mats: tuple[Mat, ...]
    alphas: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.mats[0].n

    @property
    def has_extra(self) -> bool:
        return len(self.mats) == len(self.alphas) + 1

    @property
    def zero_sum(self) -> bool:
        return mat_sum(list(self.mats)).is_zero()

    def weighted_sum(self) -> Mat:
        """B = sum of alpha_j * A_j over the weighted matrices."""
        out = Mat.zero(self.n)
        for a, m in zip(self.alphas, self.mats):
            out = out + m.scale(a)
        return out

    def to_dict(self) -> dict:
        return {
            "alphas": [str(a) for a in self.alphas],
            "mats": [m.to_dict() for m in self.mats],
            "zero_sum": self.zero_sum,
        }

    @staticmethod
    def from_dict(d: dict) -> "MatrixTuple":
        return MatrixTuple(
            tuple(Mat.from_dict(m) for m in d["mats"]),
            tuple(Fraction(a) for a in d["alphas"]),
        )


def default_alphas(count: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(j) for j in range(1, count + 1))


@dataclass(frozen=True)
class VerificationReport:
    zero_sum: bool
    nilpotent_flags: tuple[bool, ...]
    jordan_types: tuple[Optional[Partition], ...]
    types_match: Optional[bool]
    irreducible: bool
    algebra_dim: int
    centralizer_dim: int
    centralizer_trivial: bool
    b_charpoly: Poly
    simple_nonzero_count: int
    zero_root_multiplicity: int
    apparent_condition: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "zero_sum": self.zero_sum,
            "nilpotent_flags": list(self.nilpotent_flags),
            "jordan_types": [list(t) if t is not None else None
                             for t in self.jordan_types],
            "types_match": self.types_match,
            "irreducible": self.irreducible,
            "algebra_dim": self.algebra_dim,
            "centralizer_dim": self.centralizer_dim,
            "centralizer_trivial": self.centralizer_trivial,
            "b_charpoly": self.b_charpoly.to_list(),
            "simple_nonzero_count": self.simple_nonzero_count,
            "zero_root_multiplicity": self.zero_root_multiplicity,
            "apparent_condition": self.apparent_condition,
        }

    @property
    def passed(self) -> bool:
        """Zero sum, nilpotency, trivial centralizer, and the expected types
        when given.  The vanishing-block condition is reported but not
        required: it asks for a rational eigenvector of the weighted sum,
        which the exact block constructions do not always admit."""
        return (self.zero_sum and all(self.nilpotent_flags)
                and self.centralizer_trivial
                and self.types_match is not False)


# ---------------------------------------------------------------------------
# The example gallery


def _first_method(n: int, superdiag: Sequence, corner) -> Mat:
    entries = {(k, k + 1): F(v) for k, v in enumerate(superdiag) if v}
    if corner:
        entries[(n - 1, 0)] = F(corner)
    return Mat.from_entries(n, entries)


def _second_method(n: int, superdiag: Sequence, t1, t2) -> Mat:
    """Entries on (k, k+1), plus (n-1, 1) and (n, 2) in 1-based terms."""
    entries = {(k, k + 1): F(v) for k, v in enumerate(superdiag) if v}
    if t1:
        entries[(n - 2, 0)] = F(t1)
    if t2:
        entries[(n - 1, 1)] = F(t2)
    return Mat.from_entries(n, entries)


_EX3_BASE = {
    "A1": ([1, 1, 1, 1, 1], 1, -1),
    "A2": ([-1, -1, 0, -1, -1], 0, 0),
    "A3": ([0, 0, -1, 0, 0], -1, 1),
}
_EX7_BASE = {
    "A1": ([1, 1, 1, 1], 1, -1),
    "A2": ([-1, -1, 0, -1], 0, 0),
    "A3": ([0, 0, -1, 0], -1, 1),
}
_EX456 = {
    "ex4": (9, [([1, 1, 1, 0, 1, 1, 1, 1], 1, -1),
                ([-1, -1, 0, -1, -1, 0, -1, -1], 0, 0),
                ([0, 0, -1, 1, 0, -1, 0, 0], -1, 1)]),
    "ex5": (10, [([1, 1, 1, 1, 0, 1, 1, 1, 1], 1, -1),
                 ([-1, -1, 0, -1, -1, -1, 0, -1, -1], 0, 0),
                 ([0, 0, -1, 0, 1, 0, -1, 0, 0], -1, 1)]),
    "ex6": (12, [([1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1], 1, -1),
                 ([-1, -1, 0, -1, -1, 0, -1, -1, 0, -1, -1], 0, 0),
                 ([0, 0, -1, 1, 0, -1, 0, 1, -1, 0, 0], -1, 1)]),
}

def expected_example_types(example: str, n: int) -> list[Partition]:
    """Jordan types each example is documented to have."""
    if example == "ex0":
        return [(2,), (2,), (2,), (2,)]
    if example == "ex1":
        return [(n,), (n,), tuple([2, 2] + [1] * (n - 4))]
    if example == "ex2":
        return [(3,), (3,), (3,)]
    if example == "ex3":
        return [(n,), tuple([3, 3] + [2] * ((n - 6) // 2)), (2,) * (n // 2)]
    if example == "ex4":
        return [(5, 4), (3, 3, 3), (3, 2, 2, 2)]
    if example == "ex5":
        return [(5, 5), (4, 3, 3), (2, 2, 2, 2, 2)]
    if example == "ex6":
        return [(4, 4, 4), (3, 3, 3, 3), (3, 3, 2, 2, 2)]
    if example == "ex7":
        tail = tuple([3] + [2] * ((n - 3) // 2))
        return [(n,), tail, tail]
    raise SizeUnsupportedError("unknown example %r" % example)


def make_example(example: str, n: Optional[int] = None,
                 alphas: Optional[Sequence] = None) -> MatrixTuple:
    """One of the closed-form irreducible families, at a supported size."""
    fixed = {"ex0": 2, "ex2": 3, "ex4": 9, "ex5": 10, "ex6": 12}
    if example in fixed:
        if n is not None and n != fixed[example]:
            raise SizeUnsupportedError("%s exists only at n=%d" % (example, fixed[example]))
        n = fixed[example]
    elif n is None:
        raise SizeUnsupportedError("%s needs an explicit size" % example)

    if example == "ex0":
        a1 = Mat.from_entries(2, {(0, 1): F(1)})
        a3 = Mat.from_entries(2, {(1, 0): F(1)})
        mats = (a1, -a1, a3, -a3)
    elif example == "ex1":
        if n < 4:
            raise SizeUnsupportedError("ex1 needs n >= 4")
        a1 = _first_method(n, [1] * (n - 1), 0)
        sd2 = [-1, 0] + [-1] * (n - 3)
        a2 = _first_method(n, sd2, -1)
        mats = (a1, a2, -a1 - a2)
    elif example == "ex2":
        a1 = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        a2 = Mat([[0, -1, 0], [0, 0, 0], [1, 0, 0]])
        a3 = Mat([[0, 0, 0], [0, 0, -1], [-1, 0, 0]])
        mats = (a1, a2, a3)
    elif example in ("ex3", "ex7"):
        even = example == "ex3"
        if even and (n < 6 or n % 2):
            raise SizeUnsupportedError("ex3 needs even n >= 6")
        if not even and (n < 5 or n % 2 == 0):
            raise SizeUnsupportedError("ex7 needs odd n >= 5")
        base = _EX3_BASE if even else _EX7_BASE
        extra = (n - 6) // 2 if even else (n - 5) // 2
        packs = {"A1": [1, 1], "A2": [0, -1], "A3": [-1, 0]}
        rows = []
        for key in ("A1", "A2", "A3"):
            sd, t1, t2 = base[key]
            if even:
                # widen after the fourth superdiagonal slot
                sd = list(sd[:4]) + packs[key] * extra + list(sd[4:])
            else:
                # widen just before the two tail entries
                sd = list(sd) + packs[key] * extra
            rows.append((sd, t1, t2))
        mats = tuple(_second_method(n, sd, t1, t2) for sd, t1, t2 in rows)
    elif example in _EX456:
        size, rows = _EX456[example]
        mats = tuple(_second_method(size, sd, t1, t2) for sd, t1, t2 in rows)
    else:
        raise SizeUnsupportedError("unknown example %r" % example)

    alphas = (default_alphas(len(mats)) if alphas is None
              else tuple(Fraction(a) for a in alphas))
    if len(alphas) != len(mats):
        raise ValueError("need one weight per matrix")
    return MatrixTuple(mats, alphas)


# ---------------------------------------------------------------------------
# Merging


def make_merged(n: int, r1: int, r2: int) -> tuple[Mat, Mat, Mat]:
    """Superdiagonal interleaving of the minimal orbits of ranks r1 >= r2.

    Units of the second matrix go into the boundary slots between the
    Jordan blocks of the first; the sum is nilpotent of rank r1 + r2.
    """
    if not (r1 >= r2 >= 0 and r1 + r2 <= n - 1):
        raise PreconditionViolation("need r1 >= r2 and r1 + r2 <= n - 1")
    parts = omega0(n, r1)
    a = jordan_nilpotent_matrix(parts)
    gap_slots = []
    pos = 0
    for b in parts[:-1]:
        pos += b
        gap_slots.append(pos - 1)
    if r2 > len(gap_slots):
        raise PreconditionViolation("not enough block boundaries to fill")
    aprime = Mat.from_entries(n, {(s, s + 1): F(1) for s in gap_slots[:r2]})
    return a, aprime, a + aprime


# ---------------------------------------------------------------------------
# Block-glued constructions


def _coboundary_map_rank(tuple_a: Sequence[Mat], tuple_b: Sequence[Mat]) -> int:
    """Rank of (D_j) -> sum A_j D_j - D_j B_j on tuples of square blocks."""
    b = tuple_a[0].n
    rows = []
    for u in range(b):
        for v in range(b):
            row = []
            for aj, bj in zip(tuple_a, tuple_b):
                block = [F(0)] * (b * b)
                for k in range(b):
                    block[k * b + v] += aj.rows[u][k]
                    block[u * b + k] -= bj.rows[k][v]
                row.extend(block)
            rows.append(row)
    return rational_rank(rows)


def blocks_equivalent(tuple_a: Sequence[Mat], tuple_b: Sequence[Mat]) -> bool:
    """Equivalence probe: the pair coboundary map of two inequivalent
    irreducible tuples is onto, so a rank defect certifies equivalence."""
    b = tuple_a[0].n
    return _coboundary_map_rank(tuple_a, tuple_b) < b * b


def _nonzero_roots_simple(cp: Poly) -> tuple[bool, int, int]:
    """(all nonzero roots simple?, count of simple nonzero roots, mult of 0)."""
    e = cp.valuation()
    psi = cp
    for _ in range(e):
        psi = psi // Poly([0, 1])
    g = poly_gcd(psi, psi.derivative())
    all_simple = g.degree <= 0
    m2 = poly_gcd(cp, cp.derivative())
    m1 = cp // m2
    simple = m1 // poly_gcd(m1, m2)
    count = simple.degree - (1 if simple.eval(0) == 0 else 0)
    return all_simple, count, e


def _scaling_search(block_mats: list[list[Mat]], alphas: Sequence[Fraction],
                    max_base: int = 8) -> list[int]:
    """Find integer constants making the scaled blocks pairwise inequivalent
    with every nonzero eigenvalue of the block-diagonal weighted sum simple."""
    k = len(block_mats)

    def admissible(gs: Sequence[int]) -> bool:
        scaled = [[m.scale(g) for m in mats] for g, mats in zip(gs, block_mats)]
        for i in range(k):
            for j in range(i + 1, k):
                if blocks_equivalent(scaled[i], scaled[j]):
                    return False
        prod = Poly([1])
        for mats in scaled:
            b = Mat.zero(mats[0].n)
            for a, m in zip(alphas, mats):
                b = b + m.scale(a)
            prod = prod * charpoly(b)
        ok, _, _ = _nonzero_roots_simple(prod)
        return ok

    candidates = [[1] * k, list(range(1, k + 1))]
    candidates += [[base ** i for i in range(k)] for base in range(2, max_base + 1)]
    for gs in candidates:
        if admissible(gs):
            return gs
    raise ScalingExhaustedError("no admissible scaling constants up to base %d"
                                % max_base)


def _embed(big: list[list[Fraction]], block: Mat, row0: int, col0: int):
    for i, row in enumerate(block.rows):
        for j, v in enumerate(row):
            if v:
                big[row0 + i][col0 + j] = big[row0 + i][col0 + j] + v


def build_nice(blocks: Sequence[MatrixTuple], m0: int,
               alphas: Optional[Sequence] = None) -> MatrixTuple:
    """Glue inequivalent irreducible blocks into a tuple with one extra
    rank-m0 matrix supported in the top-right corner.

    The diagonal carries the (scaled) input blocks; the extra matrix has
    maximal rank on its support block with every crossed sub-block nonzero;
    the gluing blocks solve the coboundary equations so that the whole
    (p+2)-tuple sums to zero and its centralizer is trivial.
    """
    if len(blocks) < 2:
        raise PreconditionViolation("need at least two diagonal blocks")
    chi = blocks[0].n
    if chi not in (2, 3, 4, 6):
        raise PreconditionViolation("block size must be one of 2, 3, 4, 6")
    p1 = len(blocks[0].mats)
    for b in blocks:
        if b.n != chi or len(b.mats) != p1:
            raise PreconditionViolation("blocks must share size and arity")
        if not b.zero_sum:
            raise PreconditionViolation("every block tuple must sum to zero")
    k = len(blocks)
    ns = k * chi
    if not 1 <= m0 < Fraction(ns, 2):
        raise PreconditionViolation("need 1 <= m0 < n/2")
    alphas = (default_alphas(p1) if alphas is None
              else tuple(Fraction(a) for a in alphas))
    if len(alphas) != p1:
        raise ValueError("need one weight per glued matrix")

    for i in range(k):
        for j in range(i + 1, k):
            if blocks_equivalent(list(blocks[i].mats), list(blocks[j].mats)):
                raise EquivalentBlocksError(
                    "diagonal blocks %d and %d are equivalent" % (i, j))

    block_mats = [list(b.mats) for b in blocks]
    gs = _scaling_search(block_mats, alphas)
    scaled = [[m.scale(g) for m in mats] for g, mats in zip(gs, block_mats)]

    # support of the extra matrix: last n' columns of the first m0 rows
    psi = m0 % chi
    nprime = ns - m0 - (0 if psi == 0 else chi - psi)
    if nprime < m0:
        raise PreconditionViolation("support block too narrow for rank m0")
    col0 = ns - nprime
    extra_rows = [[F(0)] * ns for _ in range(ns)]
    for i in range(m0):
        for t in range(nprime):
            extra_rows[i][col0 + t] = F(t + 1) ** i
    extra = Mat(extra_rows)

    mats_rows = [[[F(0)] * ns for _ in range(ns)] for _ in range(p1)]
    for kk in range(k):
        for j in range(p1):
            _embed(mats_rows[j], scaled[kk][j], kk * chi, kk * chi)
    mu_max = (m0 + chi - 1) // chi  # block rows meeting the support
    nu0 = col0 // chi
    for mu in range(mu_max):
        for nu in range(nu0, k):
            target = -Mat([[extra.rows[mu * chi + i][nu * chi + j]
                            for j in range(chi)] for i in range(chi)])
            pairs = [(scaled[mu][j], scaled[nu][j]) for j in range(p1)]
            ds = solve_coboundary_sum(pairs, target)
            for j in range(p1):
                h = scaled[mu][j] @ ds[j] - ds[j] @ scaled[nu][j]
                _embed(mats_rows[j], h, mu * chi, nu * chi)
    mats = tuple(Mat(rows) for rows in mats_rows) + (extra,)
    return MatrixTuple(mats, alphas)


_ALMOST_SPECIAL = {
    # case: (base example, base size, changed form index)
    "a1": ("ex0", 2, 0),
    "b1": ("ex2", 3, 0),
    "c1": ("ex1", 4, 2),
    "c2": ("ex1", 4, 0),
    "d1": ("ex3", 6, 2),
    "d2": ("ex3", 6, 1),
    "d3": ("ex3", 6, 0),
}


def almost_special_types(case: str, g: int) -> list[Partition]:
    """Jordan types the glued tuple must have, by case."""
    base_types = {
        "a1": [(2,), (2,), (2,), (2,)],
        "b1": [(3,), (3,), (3,)],
        "c1": [(4,), (4,), (2, 2)],
        "c2": [(4,), (4,), (2, 2)],
        "d1": [(6,), (3, 3), (2, 2, 2)],
        "d2": [(6,), (3, 3), (2, 2, 2)],
        "d3": [(6,), (3, 3), (2, 2, 2)],
    }[case]
    changed = _ALMOST_SPECIAL[case][2]
    out = []
    for idx, t in enumerate(base_types):
        stacked = tuple(sorted(t * g, reverse=True))
        if idx == changed:
            l = max(t)
            lst = list(stacked)
            lst.remove(l)
            lst.remove(l)
            lst += [l + 1, l - 1]
            stacked = tuple(sorted(lst, reverse=True))
        out.append(stacked)
    return out


def build_almost_special(case: str, g: int,
                         alphas: Optional[Sequence] = None) -> MatrixTuple:
    """Block-glued tuple realizing an almost-special block profile.

    g copies of the base example sit on the diagonal (scaled to be pairwise
    inequivalent, then conjugated so the changed form is a plain Jordan
    matrix); the changed form gets corner-unit blocks in the last block
    column, which replaces two of its equal blocks by one larger and one
    smaller; the other forms get coboundary blocks so the sum stays zero.
    """
    if case not in _ALMOST_SPECIAL:
        raise ValueError("unknown almost-special case %r" % case)
    if g < 2:
        raise PreconditionViolation("the construction needs g > 1")
    ex, base_n, changed = _ALMOST_SPECIAL[case]
    base = make_example(ex, base_n)
    chi = base_n
    p1 = len(base.mats)
    alphas = (default_alphas(p1) if alphas is None
              else tuple(Fraction(a) for a in alphas))
    if len(alphas) != p1:
        raise ValueError("need one weight per matrix")

    # put the changed form into Jordan shape once and for all
    pbasis, jtype = nilpotent_jordan_basis(base.mats[changed])
    base_mats = [m.conjugate_by(pbasis) for m in base.mats]

    gs = _scaling_search([base_mats] * g, alphas)
    block_sets = []
    for gk in gs:
        scaled = [m.scale(gk) for m in base_mats]
        # conjugate back so the changed matrix is again the 1-pattern Jordan
        tvals = []
        for b in jtype:
            tvals.extend(Fraction(gk) ** i for i in range(b))
        t = Mat([[tvals[i] if i == j else F(0) for j in range(chi)]
                 for i in range(chi)])
        block_sets.append([m.conjugate_by(t) for m in scaled])
    for i in range(g):
        for j in range(i + 1, g):
            if blocks_equivalent(block_sets[i], block_sets[j]):
                raise EquivalentBlocksError("scaled copies %d and %d equivalent"
                                            % (i, j))

    n = g * chi
    mats_rows = [[[F(0)] * n for _ in range(n)] for _ in range(p1)]
    for kk in range(g):
        for j in range(p1):
            _embed(mats_rows[j], block_sets[kk][j], kk * chi, kk * chi)
    corner = Mat.from_entries(chi, {(chi - 1, chi - 1): F(1)})
    for kk in range(g - 1):
        _embed(mats_rows[changed], corner, kk * chi, (g - 1) * chi)
        pairs = [(block_sets[kk][j], block_sets[g - 1][j])
                 for j in range(p1) if j != changed]
        ds = solve_coboundary_sum(pairs, -corner)
        di = 0
        for j in range(p1):
            if j == changed:
                continue
            h = block_sets[kk][j] @ ds[di] - ds[di] @ block_sets[g - 1][j]
            _embed(mats_rows[j], h, kk * chi, (g - 1) * chi)
            di += 1
    return MatrixTuple(tuple(Mat(rows) for rows in mats_rows), alphas)


# ---------------------------------------------------------------------------
# Construction planning


@dataclass(frozen=True)
class ConstructionPlan:
    original_ranks: tuple[int, ...]
    target_ranks: tuple[int, ...]
    merges: tuple[tuple[int, int], ...]
    final_ranks: tuple[int, ...]
    profiles: tuple[Partition, ...]
    case: CaseLabel

    def to_dict(self) -> dict:
        return {
            "original_ranks": list(self.original_ranks),
            "target_ranks": list(self.target_ranks),
            "merges": [list(m) for m in self.merges],
            "final_ranks": list(self.final_ranks),
            "profiles": [list(p) for p in self.profiles],
            "case": self.case.to_dict(),
        }


def _rank_vectors(limits: Sequence[int], total: int):
    """All vectors 0 <= v_i <= limits[i] with the given sum, lexicographically
    from the largest first component."""
    if len(limits) == 1:
        if 0 <= total <= limits[0]:
            yield (total,)
        return
    for first in range(min(limits[0], total), -1, -1):
        for rest in _rank_vectors(limits[1:], total - first):
            yield (first,) + rest


def _classify_ranks(n: int, ranks: Sequence[int]) -> CaseLabel:
    t = JnfTuple([JordanForm.nilpotent(omega0(n, r)) for r in ranks])
    return classify_family(t)


def prepare_construction(t: JnfTuple) -> ConstructionPlan:
    """Combinatorial schedule turning a nilpotent profile into a buildable one.

    Lowers ranks to make them sum to 2n, replaces every class by the
    minimal orbit of its rank, and merges classes down to a triple or
    quadruple while avoiding the special and almost-special profiles.
    Raises UnavoidableError when every schedule lands in one of them.
    """
    if not all(f.is_single_label() for f in t.forms):
        raise PreconditionViolation("planning needs single-eigenvalue forms")
    n = t.n
    ranks0 = tuple(r_of(f) for f in t.forms)
    if sum(ranks0) < 2 * n:
        raise PreconditionViolation("total rank below 2n has no plan")

    def bad(label: CaseLabel) -> bool:
        return label.name.startswith("special") or label.name.startswith("almost")

    forced: list[CaseLabel] = []

    def finish(target: tuple[int, ...], merges, current: tuple[int, ...]):
        label = _classify_ranks(n, current)
        if bad(label):
            forced.append(label)
            return None
        return ConstructionPlan(
            original_ranks=ranks0,
            target_ranks=target,
            merges=tuple(merges),
            final_ranks=current,
            profiles=tuple(omega0(n, r) for r in current),
            case=label,
        )

    def merge_down(target, merges, current):
        if len(current) <= 4:
            if len(current) == 4:
                # try to reach a triple first, then settle for the quadruple
                for i in range(4):
                    for j in range(i + 1, 4):
                        if current[i] + current[j] <= n - 1:
                            nxt = tuple(sorted(
                                [current[k] for k in range(4) if k not in (i, j)]
                                + [current[i] + current[j]], reverse=True))
                            plan = merge_down(target, merges + [(i, j)], nxt)
                            if plan:
                                return plan
            if len(current) in (3, 4):
                return finish(target, merges, current)
            return None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                if current[i] + current[j] <= n - 1:
                    nxt = tuple(sorted(
                        [current[k] for k in range(len(current)) if k not in (i, j)]
                        + [current[i] + current[j]], reverse=True))
                    plan = merge_down(target, merges + [(i, j)], nxt)
                    if plan:
                        return plan
        return None

    for target in _rank_vectors([min(r, n - 1) for r in ranks0], 2 * n):
        plan = merge_down(target, [], tuple(sorted(target, reverse=True)))
        if plan:
            return plan
    raise UnavoidableError(forced[0] if forced else CaseLabel("other"))


# ---------------------------------------------------------------------------
# Verification


def verify_tuple(t: MatrixTuple, expected: Optional[JnfTuple] = None
                 ) -> VerificationReport:
    """Re-derive every claimed property of a tuple from its matrices."""
    n = t.n
    mats = list(t.mats)
    zero_sum = t.zero_sum
    flags = []
    types: list[Optional[Partition]] = []
    for m in mats:
        try:
            types.append(jordan_type_nilpotent(m))
            flags.append(True)
        except NotNilpotentError:
            types.append(None)
            flags.append(False)
    types_match: Optional[bool] = None
    if expected is not None:
        if len(expected.forms) != len(mats):
            types_match = False
        else:
            types_match = all(
                f.is_single_label() and types[i] == f.single_partition()
                for i, f in enumerate(expected.forms))
    algebra_dim = algebra_closure_dim(mats)
    cent = centralizer_dim(mats)
    b = t.weighted_sum()
    cp = charpoly(b)
    _, simple_count, zero_mult = _nonzero_roots_simple(cp)
    apparent: Optional[bool] = None
    if t.has_extra:
        m0 = rank(mats[-1])
        apparent = all(b.rows[i][j] == 0
                       for i in range(m0, n) for j in range(m0))
    return VerificationReport(
        zero_sum=zero_sum,
        nilpotent_flags=tuple(flags),
        jordan_types=tuple(types),
        types_match=types_match,
        irreducible=algebra_dim == n * n,
        algebra_dim=algebra_dim,
        centralizer_dim=cent,
        centralizer_trivial=cent == 1,
        b_charpoly=cp,
        simple_nonzero_count=simple_count,
        zero_root_multiplicity=zero_mult,
        apparent_condition=apparent,
    )
