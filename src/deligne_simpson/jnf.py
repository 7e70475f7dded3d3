"""Jordan-normal-form combinatorics.

A Jordan normal form is a labeled family of block-size partitions, one
partition per eigenvalue label.  Labels are opaque strings at this layer;
the decision criterion depends only on the block structure, never on the
eigenvalue values, which live in the spectra module.

Implements the two conjugacy-class invariants (rank defect r and orbit
dimension d), the corresponding diagonal / single-eigenvalue forms via dual
partitions, the closure (dominance) order together with the block surgery
(s, l), the minimal nilpotent orbits of given rank, and the taxonomy of
exceptional block-size profiles used by the witness constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Partition = tuple[int, ...]


class ProfileMismatchError(ValueError):
    """Dominance comparison across different eigenvalue profiles."""


class BlocksAbsentError(ValueError):
    """Operation (s, l) requested on blocks that are not present."""


class BadRankError(ValueError):
    """Rank out of range for a nilpotent orbit of the given size."""


class PreconditionViolation(ValueError):
    """A documented precondition of an operation does not hold."""


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a partition (non-increasing positive parts)."""
    p = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x <= 0 for x in p):
        raise ValueError("partition parts must be positive")
    return p


def json_int(x) -> int:
    """x if it is a JSON integer (a bool or a float is not).  Sizes,
    multiplicities and offsets are checked so at the input boundary only."""
    if type(x) is not int:
        raise ValueError("expected a JSON integer, got %.40r" % (x,))
    return x


def dual_partition(p: Partition) -> Partition:
    """Conjugate partition: k-th part counts parts of p that are >= k."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1))


def power_rank(p: Partition, i: int) -> int:
    """Rank of the i-th power of a nilpotent matrix of Jordan type p."""
    return sum(max(b - i, 0) for b in p)


class JordanForm:
    """Labeled family of block-size partitions; one entry per eigenvalue."""

    __slots__ = ("_items", "n")

    def __init__(self, blocks: dict[str, Iterable[int]]):
        items = tuple(sorted((str(k), as_partition(v)) for k, v in blocks.items()))
        if not items:
            raise ValueError("a Jordan form needs at least one eigenvalue")
        if any(not p for _, p in items):
            raise ValueError("per-label partitions must be non-empty")
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "n", sum(sum(p) for _, p in items))

    def __setattr__(self, *args):
        raise AttributeError("JordanForm is immutable")

    @property
    def blocks(self) -> dict[str, Partition]:
        return dict(self._items)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._items)

    def partition(self, label: str) -> Partition:
        return dict(self._items)[label]

    def multiplicity(self, label: str) -> int:
        return sum(self.partition(label))

    def multiplicities(self) -> dict[str, int]:
        return {k: sum(p) for k, p in self._items}

    def is_single_label(self) -> bool:
        return len(self._items) == 1

    def single_partition(self) -> Partition:
        if not self.is_single_label():
            raise ValueError("form has several eigenvalues")
        return self._items[0][1]

    def mv(self) -> Partition:
        """Multiplicity vector as a partition (sorted multiplicities)."""
        return tuple(sorted((sum(p) for _, p in self._items), reverse=True))

    def canonical(self) -> tuple:
        """Label-free canonical key: sorted multiset of partitions."""
        return tuple(sorted((p for _, p in self._items), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, JordanForm) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return "JordanForm(%r)" % (self.blocks,)

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": {k: list(p) for k, p in self._items}}

    @staticmethod
    def from_dict(d: dict) -> "JordanForm":
        j = JordanForm({k: [json_int(b) for b in v] for k, v in d["blocks"].items()})
        if "n" in d and j.n != json_int(d["n"]):
            raise ValueError("size field disagrees with blocks")
        return j

    @staticmethod
    def nilpotent(parts: Iterable[int], label: str = "0") -> "JordanForm":
        """Single-eigenvalue form of the given Jordan type."""
        return JordanForm({label: as_partition(parts)})

    @staticmethod
    def diagonal(mults: Iterable[int], prefix: str = "e") -> "JordanForm":
        """Diagonal form with the given eigenvalue multiplicities."""
        return JordanForm({"%s%d" % (prefix, i): [1] * m
                           for i, m in enumerate(mults, 1) if m > 0})


class JnfTuple:
    """Tuple of Jordan normal forms sharing one matrix size."""

    __slots__ = ("forms", "n")

    def __init__(self, forms: Sequence[JordanForm]):
        forms = tuple(forms)
        if len(forms) < 2:
            raise ValueError("need at least two forms")
        n = forms[0].n
        if any(f.n != n for f in forms):
            raise ValueError("all forms must share one size")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *args):
        raise AttributeError("JnfTuple is immutable")

    @property
    def p(self) -> int:
        return len(self.forms) - 1

    def canonical(self) -> tuple:
        return tuple(sorted((f.canonical() for f in self.forms), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, JnfTuple) and self.forms == other.forms

    def __hash__(self) -> int:
        return hash(self.forms)

    def __repr__(self) -> str:
        return "JnfTuple(%r)" % (list(self.forms),)

    def to_dict(self) -> dict:
        return {"forms": [f.to_dict() for f in self.forms]}

    @staticmethod
    def from_dict(d: dict) -> "JnfTuple":
        return JnfTuple([JordanForm.from_dict(f) for f in d["forms"]])


# ---------------------------------------------------------------------------
# Invariants


def r_of(j: JordanForm) -> int:
    """n minus the maximal number of Jordan blocks with one eigenvalue."""
    return j.n - max(len(p) for p in j.blocks.values())


def d_of(j: JordanForm) -> int:
    """Dimension of the conjugacy class: n^2 minus its centralizer dimension.

    The centralizer of a Jordan matrix has dimension
    sum over labels of sum_{i,i'} min(b_i, b_{i'}), which equals the sum of
    the squared parts of the dual partitions.
    """
    return j.n * j.n - sum(k * k for p in j.blocks.values() for k in dual_partition(p))


# ---------------------------------------------------------------------------
# Corresponding forms


def corresponding_diagonal(j: JordanForm) -> JordanForm:
    """Diagonal form whose multiplicities are the dual partitions of j.

    Each label contributes the dual of its block partition as the
    multiplicities of fresh labels.
    """
    blocks: dict[str, list[int]] = {}
    for label, p in sorted(j.blocks.items()):
        for k, mult in enumerate(dual_partition(p), 1):
            blocks["%s#%d" % (label, k)] = [1] * mult
    return JordanForm(blocks)


def corresponding_single(j: JordanForm) -> JordanForm:
    """Single-eigenvalue form: k-th block is the sum of k-th largest blocks."""
    parts_by_label = list(j.blocks.values())
    depth = max(len(p) for p in parts_by_label)
    sizes = []
    for k in range(depth):
        sizes.append(sum(p[k] if k < len(p) else 0 for p in parts_by_label))
    return JordanForm.nilpotent(sizes)


def correspond(j1: JordanForm, j2: JordanForm) -> bool:
    """True iff the two forms define the same corresponding diagonal form."""
    return (corresponding_diagonal(j1).canonical()
            == corresponding_diagonal(j2).canonical())


# ---------------------------------------------------------------------------
# Closure order and block surgery


def dominates(j1: JordanForm, j2: JordanForm) -> bool:
    """True iff j2 lies in the closure of j1, label by label.

    Both forms must have the same size and matched labels with equal
    multiplicities; the test compares power ranks per label.
    """
    if j1.n != j2.n or j1.labels != j2.labels:
        raise ProfileMismatchError("forms have different eigenvalue profiles")
    for label in j1.labels:
        p1, p2 = j1.partition(label), j2.partition(label)
        if sum(p1) != sum(p2):
            raise ProfileMismatchError("multiplicity differs at label %r" % label)
        for i in range(1, max(p1[0], p2[0]) + 1):
            if power_rank(p2, i) > power_rank(p1, i):
                return False
    return True


def apply_op_sl(j: JordanForm, label: str, s: int, l: int) -> JordanForm:
    """Replace blocks of sizes s >= l >= 1 at the label by s+1 and l-1."""
    if s < l or l < 1:
        raise ValueError("require s >= l >= 1")
    blocks = {k: list(p) for k, p in j.blocks.items()}
    if label not in blocks:
        raise BlocksAbsentError("no such eigenvalue label: %r" % label)
    p = blocks[label]
    try:
        p.remove(s)
        p.remove(l)
    except ValueError:
        raise BlocksAbsentError("blocks %d and %d not both present" % (s, l))
    p.append(s + 1)
    if l > 1:
        p.append(l - 1)
    if not p:
        raise ValueError("operation would empty the label")
    return JordanForm(blocks)


def op_successors(p: Partition) -> set[Partition]:
    """All partitions reachable from p by a single operation (s, l)."""
    out = set()
    distinct = sorted(set(p), reverse=True)
    for si, s in enumerate(distinct):
        for l in distinct[si:]:
            if s == l and p.count(s) < 2:
                continue
            q = list(p)
            q.remove(s)
            q.remove(l)
            q.append(s + 1)
            if l > 1:
                q.append(l - 1)
            if q:
                out.add(as_partition(q))
    return out


def omega0(n: int, r: int) -> Partition:
    """Least-dimension nilpotent Jordan type of size n and rank r.

    n - r blocks whose sizes take one value or two consecutive values.
    """
    if not 0 <= r < n:
        raise BadRankError("need 0 <= r < n")
    k = n - r
    small, extra = divmod(n, k)
    return as_partition([small + 1] * extra + [small] * (k - extra))


def is_omega0_shaped(p: Partition) -> bool:
    """True iff the sizes take one value or two consecutive values."""
    sizes = sorted(set(p))
    return len(sizes) == 1 or (len(sizes) == 2 and sizes[1] == sizes[0] + 1)


# ---------------------------------------------------------------------------
# Taxonomy of exceptional profiles


@dataclass(frozen=True)
class CaseLabel:
    name: str
    g: Optional[int] = None

    def to_dict(self) -> dict:
        d = {"name": self.name}
        if self.g is not None:
            d["g"] = self.g
        return d


def _special_profiles(n: int, p: int) -> list[tuple[str, int, tuple[Partition, ...]]]:
    """Special block-size profiles of size n for p+1 nilpotent forms."""
    out = []
    if p == 3 and n % 2 == 0 and n // 2 > 1:
        g = n // 2
        out.append(("a", g, ((2,) * g,) * 4))
    if p == 2 and n % 3 == 0 and n // 3 > 1:
        g = n // 3
        out.append(("b", g, ((3,) * g,) * 3))
    if p == 2 and n % 4 == 0 and n // 4 > 1:
        g = n // 4
        out.append(("c", g, ((4,) * g, (4,) * g, (2,) * (2 * g))))
    if p == 2 and n % 6 == 0 and n // 6 > 1:
        g = n // 6
        out.append(("d", g, ((6,) * g, (3,) * (2 * g), (2,) * (3 * g))))
    return out


def _almost_special_profiles(n: int, p: int) -> list[tuple[str, int, tuple[Partition, ...]]]:
    out = []
    if p == 3 and n % 2 == 0 and n // 2 > 1:
        g = n // 2
        j1 = as_partition([3, 1] + [2] * (g - 2))
        out.append(("a1", g, (j1, (2,) * g, (2,) * g, (2,) * g)))
    if p == 2 and n % 3 == 0 and n // 3 > 1:
        g = n // 3
        j1 = as_partition([4, 2] + [3] * (g - 2))
        out.append(("b1", g, (j1, (3,) * g, (3,) * g)))
    if p == 2 and n % 4 == 0 and n // 4 > 1:
        g = n // 4
        j3 = as_partition([3, 1] + [2] * (2 * g - 2))
        out.append(("c1", g, ((4,) * g, (4,) * g, j3)))
        j1 = as_partition([5, 3] + [4] * (g - 2))
        out.append(("c2", g, (j1, (4,) * g, (2,) * (2 * g))))
    if p == 2 and n % 6 == 0 and n // 6 > 1:
        g = n // 6
        j3 = as_partition([3, 1] + [2] * (3 * g - 2))
        out.append(("d1", g, ((6,) * g, (3,) * (2 * g), j3)))
        j2 = as_partition([4, 2] + [3] * (2 * g - 2))
        out.append(("d2", g, ((6,) * g, j2, (2,) * (3 * g))))
        j1 = as_partition([7, 5] + [6] * (g - 2))
        out.append(("d3", g, (j1, (3,) * (2 * g), (2,) * (3 * g))))
    return out


# size-set templates of the case list for triples of minimal orbits;
# None means any minimal-orbit shape
_CASE_TEMPLATES: list[tuple[str, tuple]] = [
    ("A", (({1, 2},), None, None)),
    ("B", (({2}, {2, 3}), ({2, 3},), None)),
    ("C", (({2, 3},), ({3},), ({3, 4},))),
    ("D", (({2, 3},), ({3},), ({4},))),
    ("E", (({2, 3},), ({3},), ({4, 5},))),
    ("F", (({2, 3},), ({3},), ({5},))),
    ("G", (({2, 3},), ({3},), ({5, 6},))),
    ("H", (({2}, {2, 3}), ({3, 4},), ({4},))),
    ("I", (({2}, {2, 3}), ({3, 4},), ({4, 5},))),
    ("J", (({2}, {2, 3}), ({3, 4},), ({5},))),
    ("K", (({2}, {2, 3}), ({3, 4},), ({5, 6},))),
]


def _matches_template(profile: Sequence[Partition], template) -> bool:
    from itertools import permutations

    for perm in permutations(profile):
        ok = True
        for part, slot in zip(perm, template):
            if slot is None:
                if not is_omega0_shaped(part):
                    ok = False
                    break
            elif set(part) not in slot:
                ok = False
                break
        if ok:
            return True
    return False


def classify_family(t: JnfTuple) -> CaseLabel:
    """Taxonomy label of a nilpotent-shaped tuple with sum of ranks 2n.

    Matches, in this order: the special profiles, the almost-special
    profiles, single-surgery neighbours of almost-special profiles, the
    minimal-orbit case list (A)-(K) for triples, and otherwise ``other``.
    """
    if t.p not in (2, 3):
        raise PreconditionViolation("classification needs p = 2 or 3")
    if not all(f.is_single_label() for f in t.forms):
        raise PreconditionViolation("classification needs single-eigenvalue forms")
    n = t.n
    if sum(r_of(f) for f in t.forms) != 2 * n:
        raise PreconditionViolation("classification needs sum of ranks = 2n")
    profile = tuple(sorted((f.single_partition() for f in t.forms), reverse=True))

    for name, g, spec_profile in _special_profiles(n, t.p):
        if profile == tuple(sorted(spec_profile, reverse=True)):
            return CaseLabel("special-%s" % name, g)
    for name, g, almost_profile in _almost_special_profiles(n, t.p):
        if profile == tuple(sorted(almost_profile, reverse=True)):
            return CaseLabel("almost-%s" % name, g)
    for name, g, almost_profile in _almost_special_profiles(n, t.p):
        base = list(almost_profile)
        for idx, part in enumerate(base):
            for succ in op_successors(part):
                cand = base[:idx] + [succ] + base[idx + 1:]
                if profile == tuple(sorted(cand, reverse=True)):
                    return CaseLabel("neighbouring-of-%s" % name, g)
    if t.p == 2 and all(is_omega0_shaped(q) for q in profile):
        for name, template in _CASE_TEMPLATES:
            if _matches_template(profile, template):
                return CaseLabel("case-(%s)" % name)
    return CaseLabel("other")
