"""Exact eigenvalue data and genericity analysis.

Eigenvalues are carried as rational exponents: a multiplicative eigenvalue
is exp(2 pi i lambda) with lambda in Q, an additive one is lambda itself.
Everything the engine needs about eigenvalues then becomes exact integer
arithmetic: the invariants q, d, m0 and the unity root xi, the genericity
relations (fixed-cardinality sub-multisets with zero or integer total), the
distance of an exponent set to the non-generic locus, and the constructive
integer-shift search producing exponents of prescribed distance.

A relation picks the same number kappa of eigenvalue slots from every form;
it is recorded by its per-label counts.  Slots of one label may differ by
the integer offsets allowed on the last form, so one count profile can
realize several integer values; the scan keeps track of that.

Scan order is kappa, then the count vectors of the forms in lexicographic
order, then the values of a count profile in increasing order;
``iter_relations`` enumerates it in full and is kept as the reference.
The queries (first violated relation, distance, relative genericity, the
violated profiles below a bound) run instead on one split scan, the
meet-in-the-middle of Horowitz and Sahni's subset-sum algorithm: per kappa,
the options of the trailing half of the forms are indexed once by their
scaled integer value mod the common denominator, and the leading half is
streamed in scan order against that index.  A scan then visits the
leading and the trailing option combinations once each, not their product,
and holds only the trailing index in memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .jnf import JnfTuple, PreconditionViolation

ZERO = Fraction(0)


class ConstraintViolation(ValueError):
    """Global determinant/trace constraint on the eigenvalues fails."""


class SearchExhausted(RuntimeError):
    """The bounded shift sweep ran out of candidates (bound reported)."""

    def __init__(self, u_max: int):
        super().__init__("shift sweep exhausted with u <= %d" % u_max)
        self.u_max = u_max


@dataclass(frozen=True)
class SpectraInvariants:
    q: int
    d: int
    m0: int
    xi_primitive: bool

    def to_dict(self) -> dict:
        return {"q": self.q, "d": self.d, "m0": self.m0,
                "xi_primitive": self.xi_primitive}


@dataclass(frozen=True)
class Relation:
    """A violated genericity relation: counts per form, and its value."""

    kappa: int
    counts: tuple[tuple[tuple[str, int], ...], ...]
    value: Fraction

    @property
    def defect(self) -> Optional[int]:
        return int(self.value) if self.value.denominator == 1 else None

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "counts": [dict(c) for c in self.counts],
            "value": str(self.value),
            "defect": self.defect,
        }


class ExponentAssignment:
    """Rational exponents attached to the eigenvalue labels of a tuple.

    ``values[j][label]`` is the exponent of that label in form j and
    ``mults[j][label]`` its multiplicity.  The last form may carry integer
    per-slot offsets (one per slot of a label) so that slots of one label
    differ by integers; all other slots of a label share its value.
    """

    def __init__(self, version: str,
                 values: Sequence[dict[str, Fraction]],
                 mults: Sequence[dict[str, int]],
                 last_offsets: Optional[dict[str, Sequence[int]]] = None):
        if version not in ("additive", "multiplicative"):
            raise ValueError("version must be additive or multiplicative")
        if len(values) != len(mults) or len(values) < 2:
            raise ValueError("values and multiplicities must align")
        self.version = version
        self.values = [dict((k, Fraction(v)) for k, v in vj.items()) for vj in values]
        self.mults = [dict(mj) for mj in mults]
        for vj, mj in zip(self.values, self.mults):
            if set(vj) != set(mj):
                raise ValueError("labels of values and multiplicities differ")
            if any(m < 1 for m in mj.values()):
                raise ValueError("multiplicities must be positive")
        self.last_offsets = {}
        if last_offsets:
            last = self.mults[-1]
            for lab, offs in last_offsets.items():
                offs = tuple(int(o) for o in offs)
                if lab not in last or len(offs) != last[lab]:
                    raise ValueError("offsets must list one integer per slot")
                self.last_offsets[lab] = offs
        self._validate()

    def _validate(self):
        for j, vj in enumerate(self.values):
            seen = set()
            for lab, v in vj.items():
                key = v % 1 if self.version == "multiplicative" else v
                if key in seen:
                    raise ConstraintViolation(
                        "distinct labels of form %d share a value" % j)
                seen.add(key)
        total = self.total_sum()
        if self.version == "additive" and total != 0:
            raise ConstraintViolation("total exponent sum %s is not 0" % total)
        if self.version == "multiplicative" and total.denominator != 1:
            raise ConstraintViolation("total exponent sum %s is not integer" % total)

    @property
    def n_forms(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return sum(self.mults[0].values())

    def slots(self, j: int) -> list[tuple[str, Fraction]]:
        """All eigenvalue slots of form j as (label, value) with offsets applied."""
        out = []
        for lab in sorted(self.values[j]):
            base = self.values[j][lab]
            offs = self.last_offsets.get(lab, ()) if j == self.n_forms - 1 else ()
            for i in range(self.mults[j][lab]):
                o = offs[i] if i < len(offs) else 0
                out.append((lab, base + o))
        return out

    def total_sum(self) -> Fraction:
        return sum((v for j in range(self.n_forms) for _, v in self.slots(j)), ZERO)

    def shifted(self, j: int, deltas: dict[str, int]) -> "ExponentAssignment":
        """Copy with integer shifts added to the given labels of form j."""
        values = [dict(vj) for vj in self.values]
        for lab, dv in deltas.items():
            values[j][lab] = values[j][lab] + dv
        return ExponentAssignment(self.version, values, self.mults, self.last_offsets)

    @staticmethod
    def from_tuple(t: JnfTuple, values: Sequence[dict[str, Fraction]],
                   version: str = "multiplicative",
                   last_offsets: Optional[dict[str, Sequence[int]]] = None
                   ) -> "ExponentAssignment":
        mults = [f.multiplicities() for f in t.forms]
        return ExponentAssignment(version, values, mults, last_offsets)

    def to_dict(self) -> dict:
        d = {
            "version": self.version,
            "values": [{k: str(v) for k, v in sorted(vj.items())}
                       for vj in self.values],
            "mults": [dict(sorted(mj.items())) for mj in self.mults],
        }
        if self.last_offsets:
            d["offsets"] = {k: list(v) for k, v in sorted(self.last_offsets.items())}
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExponentAssignment":
        return ExponentAssignment(
            d["version"],
            [{k: Fraction(v) for k, v in vj.items()} for vj in d["values"]],
            [dict(mj) for mj in d["mults"]],
            d.get("offsets"),
        )


# ---------------------------------------------------------------------------
# Invariants


def spectra_invariants(t: JnfTuple, a: ExponentAssignment) -> SpectraInvariants:
    """The gcd invariants q and d, the residue m0 and primitivity of xi.

    q is the gcd of all eigenvalue multiplicities, d the gcd of all Jordan
    block counts per (form, eigenvalue, size); xi = exp(2 pi i m0 / q) is
    the product of the eigenvalues with multiplicities reduced q times.
    """
    if [f.multiplicities() for f in t.forms] != a.mults:
        raise ValueError("assignment does not match the tuple")
    q = 0
    for f in t.forms:
        for m in f.multiplicities().values():
            q = gcd(q, m)
    d = 0
    for f in t.forms:
        for p in f.blocks.values():
            for size in set(p):
                d = gcd(d, p.count(size))
    total = a.total_sum()
    if total.denominator != 1:
        raise ConstraintViolation("eigenvalue product constraint fails")
    m0 = int(total) % q if q else 0
    return SpectraInvariants(q=q, d=d, m0=m0, xi_primitive=gcd(m0, q) == 1)


# ---------------------------------------------------------------------------
# Relation scan


def _count_vectors(sizes: Sequence[int], kappa: int) -> Iterable[tuple[int, ...]]:
    """All ways to pick kappa slots from groups of the given sizes."""
    if not sizes:
        if kappa == 0:
            yield ()
        return
    first = sizes[0]
    for c in range(min(first, kappa), -1, -1):
        for rest in _count_vectors(sizes[1:], kappa - c):
            yield (c,) + rest


def _label_data(a: ExponentAssignment, j: int):
    """Per label of form j: (label, base value, multiplicity, offsets)."""
    out = []
    for lab in sorted(a.values[j]):
        offs = a.last_offsets.get(lab, ()) if j == a.n_forms - 1 else ()
        mult = a.mults[j][lab]
        offs = tuple(offs) + (0,) * (mult - len(offs))
        out.append((lab, a.values[j][lab], mult, offs))
    return out


def _offset_sums(offsets: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Distinct sums of c of the offsets."""
    if all(o == 0 for o in offsets):
        return (0,)
    return tuple(sorted({sum(comb) for comb in combinations(offsets, c)}))


def iter_relations(a: ExponentAssignment, kappa_min: int = 1,
                   kappa_max: Optional[int] = None):
    """Yield every slot-selection relation as (kappa, counts, value).

    counts is a tuple over forms of ((label, count), ...) with the same
    total kappa in every form, 1 <= kappa < n; all distinct achievable
    values of a count profile are yielded.
    """
    n = a.n
    hi = n - 1 if kappa_max is None else min(kappa_max, n - 1)
    forms = [_label_data(a, j) for j in range(a.n_forms)]
    for kappa in range(max(1, kappa_min), hi + 1):
        per_form = []
        for data in forms:
            options = []
            sizes = [m for _, _, m, _ in data]
            for cvec in _count_vectors(sizes, kappa):
                base = sum((c * v for c, (_, v, _, _) in zip(cvec, data) if c), ZERO)
                osets = [(0,)]
                for c, (_, _, _, offs) in zip(cvec, data):
                    if c and any(offs):
                        osets.append(_offset_sums(offs, c))
                extras = {0}
                for oset in osets:
                    extras = {e + o for e in extras for o in oset}
                counts = tuple((lab, c) for c, (lab, _, _, _) in zip(cvec, data) if c)
                options.append((counts, base, tuple(sorted(extras))))
            if not options:
                per_form = None
                break
            per_form.append(options)
        if per_form is None:
            continue

        def rec(idx, counts_acc, values_acc):
            if idx == len(per_form):
                for v in values_acc:
                    yield kappa, tuple(counts_acc), v
                return
            for counts, base, extras in per_form[idx]:
                vals = tuple(sorted({v + base + e for v in values_acc for e in extras}))
                yield from rec(idx + 1, counts_acc + [counts], vals)

        yield from rec(0, [], (ZERO,))


# ---------------------------------------------------------------------------
# Split relation scan


def _int_options(data, kappa: int, scale: int) -> list[tuple]:
    """Options of one form for kappa, in iter_relations order, scaled to ints.

    Each option is (counts, base, extras): the base value times ``scale``
    and the sorted distinct offset sums times ``scale``.
    """
    options = []
    for cvec in _count_vectors([m for _, _, m, _ in data], kappa):
        counts, base, extras = [], 0, {0}
        for c, (lab, v, _, offs) in zip(cvec, data):
            if c:
                counts.append((lab, c))
                base += c * v.numerator * (scale // v.denominator)
                if any(offs):
                    extras = {e + scale * o
                              for e in extras for o in _offset_sums(offs, c)}
        options.append((tuple(counts), base, sorted(extras)))
    return options


class _SplitScan:
    """The relations of one kappa, met in the middle.

    All values are scaled by D, the lcm of the value denominators, so a
    relation is integer-valued iff its scaled value is 0 mod D.  The leading
    half of the forms is streamed in scan order; the trailing half (which
    holds the last form, the only one with offsets) is built once into
    buckets keyed by value mod D, or by exact value for the zero test.  A
    bucket holds the sorted (value, trailing index) pairs, the trailing
    index being the position of the trailing option combination in
    lexicographic order.  Scan order is then (kappa, leading index,
    trailing index, value).
    """

    def __init__(self, kappa: int, options: list, scale: int, exact: bool):
        self.kappa, self.scale, self.exact = kappa, scale, exact
        half = (len(options) + 1) // 2
        self.lead, self.trail = options[:half], options[half:]
        buckets: dict[int, list] = {}
        for tidx, combo in enumerate(product(*self.trail)):
            values = {0}
            for _, base, extras in combo:
                values = {v + base + e for v in values for e in extras}
            for v in values:
                buckets.setdefault(v if exact else v % scale, []).append((v, tidx))
        for bucket in buckets.values():
            bucket.sort()
        self.buckets = buckets

    def hits(self):
        """(leading index, leading sum, bucket) for every leading prefix,
        in scan order, whose bucket of violating trailing values is not empty."""
        *outer, inner = self.lead
        inner_bases = [base for _, base, _ in inner]
        buckets, scale, exact = self.buckets, self.scale, self.exact
        for idx in product(*(range(len(opts)) for opts in outer)):
            s0 = sum(outer[j][i][1] for j, i in enumerate(idx))
            for i, b in enumerate(inner_bases):
                s = s0 + b
                bucket = buckets.get(-s if exact else -s % scale)
                if bucket:
                    yield idx + (i,), s, bucket

    def profile(self, lidx: tuple, tidx: int) -> tuple:
        """Count profile of the relation at these leading and trailing indices."""
        tail = []
        for opts in reversed(self.trail):
            tidx, i = divmod(tidx, len(opts))
            tail.append(opts[i][0])
        return tuple([self.lead[j][i][0] for j, i in enumerate(lidx)] + tail[::-1])


def _split_scans(a: ExponentAssignment, exact: bool = False,
                 kappa_min: int = 1):
    """One _SplitScan per kappa, kappa_min <= kappa < n, built lazily."""
    scale = 1
    for vj in a.values:
        for v in vj.values():
            scale = lcm(scale, v.denominator)
    forms = [_label_data(a, j) for j in range(a.n_forms)]
    for kappa in range(max(1, kappa_min), a.n):
        options = [_int_options(data, kappa, scale) for data in forms]
        if all(options):
            yield _SplitScan(kappa, options, scale, exact)


def find_relation(a: ExponentAssignment, mode: str = "strongly-generic",
                  kappa_min: int = 1) -> Optional[Relation]:
    """First violated relation in scan order, or None when generic.

    mode ``generic`` tests exact zero sums on additive data; for
    multiplicative data and in mode ``strongly-generic`` a relation is
    violated when its value is an integer.
    """
    if mode not in ("generic", "strongly-generic"):
        raise ValueError("unknown mode %r" % mode)
    integer_test = mode == "strongly-generic" or a.version == "multiplicative"
    for scan in _split_scans(a, exact=not integer_test, kappa_min=kappa_min):
        for lidx, s, bucket in scan.hits():
            # the first entry of least trailing index has its least value
            v, tidx = min(bucket, key=itemgetter(1))
            return Relation(scan.kappa, scan.profile(lidx, tidx),
                            Fraction(s + v, scan.scale))
    return None


def _gamma_star_profiles(a: ExponentAssignment, e: int):
    """Count profiles of the reduced-product relation and its multiples."""
    out = []
    for s in range(1, e):
        profile = []
        for j in range(a.n_forms):
            row = []
            for lab in sorted(a.values[j]):
                m = a.mults[j][lab]
                if m % e:
                    return []
                row.append((lab, s * m // e))
            profile.append(tuple(row))
        out.append(tuple(profile))
    return out


def is_relatively_generic(a: ExponentAssignment, inv: SpectraInvariants) -> bool:
    """True iff every violated relation is the reduced-product one or a multiple.

    Defined for q > 1 with non-primitive xi; raises PreconditionViolation
    otherwise.
    """
    e = gcd(inv.m0, inv.q)
    if inv.q <= 1 or e <= 1:
        raise PreconditionViolation("needs q > 1 and non-primitive xi")
    allowed = set(_gamma_star_profiles(a, e))
    for scan in _split_scans(a):
        for lidx, _, bucket in scan.hits():
            if any(scan.profile(lidx, tidx) not in allowed for _, tidx in bucket):
                return False
    return True


def distance(a: ExponentAssignment, exclude_gamma_star: bool = False
             ) -> Optional[int]:
    """Minimal |m| over integer-valued relations; None when there are none.

    With the flag set, count profiles that are multiples of the
    reduced-product relation are ignored.
    """
    if a.version != "additive":
        raise PreconditionViolation("distance is defined for additive exponents")
    excluded = set()
    if exclude_gamma_star:
        q = 0
        for mj in a.mults:
            for m in mj.values():
                q = gcd(q, m)
        total = a.total_sum()
        m0 = int(total) % q if q else 0
        e = gcd(m0, q)
        if e > 1:
            excluded = set(_gamma_star_profiles(a, e))
    best: Optional[int] = None
    for scan in _split_scans(a):
        for lidx, s, bucket in scan.hits():
            # nearest admissible value to -s on either side of it
            pos = bisect_left(bucket, (-s,))
            for side in (range(pos - 1, -1, -1), range(pos, len(bucket))):
                for i in side:
                    v, tidx = bucket[i]
                    if excluded and scan.profile(lidx, tidx) in excluded:
                        continue
                    m = abs(s + v) // scan.scale
                    if best is None or m < best:
                        best = m
                        if best == 0:
                            return 0
                    break
    return best


def _violated_profiles_below(a: ExponentAssignment, h: int,
                             excluded: set) -> list[tuple]:
    """Distinct count profiles with an integer value of magnitude < h,
    in order of first appearance in the scan."""
    seen = []
    for scan in _split_scans(a):
        bound = h * scan.scale
        for lidx, s, bucket in scan.hits():
            lo = bisect_left(bucket, (1 - bound - s,))
            hi = bisect_left(bucket, (bound - s,))
            for tidx in sorted({tidx for _, tidx in bucket[lo:hi]}):
                counts = scan.profile(lidx, tidx)
                if counts not in excluded:
                    seen.append(counts)
    return seen


def _profile_values(a: ExponentAssignment, profile: tuple) -> set[Fraction]:
    """All values the count profile can take over its slot variants."""
    values = {ZERO}
    for j, row in enumerate(profile):
        counts = dict(row)
        for lab, base, mult, offs in _label_data(a, j):
            c = counts.get(lab, 0)
            if not c:
                continue
            extras = _offset_sums(offs, c) if any(offs) else (0,)
            values = {v + c * base + e for v in values for e in extras}
    return values


def _profile_safe(a: ExponentAssignment, profile: tuple, h: int) -> bool:
    """True iff no slot variant of the profile has an integer value < h."""
    return all(v.denominator != 1 or abs(int(v)) >= h
               for v in _profile_values(a, profile))


# ---------------------------------------------------------------------------
# Constructive generic lift


def genericize(sigma_residues: Sequence[dict[str, Fraction]], t: JnfTuple,
               h: int, mode: str = "A", u_max: int = 64) -> ExponentAssignment:
    """Integer-shifted exponent lift of the given residues with distance >= h.

    The lift keeps exp(2 pi i lambda) equal to the input eigenvalues, is
    canonical for every form but the last, allows only 0 or -1 splits on the
    last form, and has zero total sum.  Mode A pushes every relation to
    distance at least h and requires a simple multiplicity profile or a
    primitive xi; mode B leaves the reduced-product relation and its
    multiples alone and pushes all other relations.

    The search shifts pairs of distinct eigenvalues inside one form by
    u * (m'', -m') as u sweeps 1..u_max, accepting a shift only when the
    exhaustive rescan shows strict progress; SearchExhausted reports a too
    small bound, not impossibility.
    """
    if mode not in ("A", "B"):
        raise ValueError("mode must be A or B")
    residues = [{k: Fraction(v) % 1 for k, v in vj.items()} for vj in sigma_residues]
    base = ExponentAssignment.from_tuple(t, residues, "multiplicative")
    inv = spectra_invariants(t, base)
    e = gcd(inv.m0, inv.q)
    if mode == "A" and inv.q > 1 and e > 1:
        raise PreconditionViolation(
            "mode A needs a simple multiplicity profile or primitive xi")
    if mode == "B" and inv.q <= 1:
        raise PreconditionViolation("mode B needs a non-simple multiplicity profile")

    n = t.n
    total = int(base.total_sum())
    l = total % n
    # subtract 1 from the first l slots of the last form (deterministic order)
    offsets: dict[str, list[int]] = {}
    left = l
    for lab in sorted(residues[-1]):
        m = base.mults[-1][lab]
        take = min(left, m)
        if take:
            offsets[lab] = [-1] * take + [0] * (m - take)
            left -= take
        if not left:
            break
    # uniform integer shift of the first form makes the total zero
    shift = -(total - l) // n
    values = [dict(vj) for vj in residues]
    for lab in values[0]:
        values[0][lab] += shift
    a = ExponentAssignment("additive", values, base.mults, offsets)

    excluded: set = set()
    if mode == "B" and e > 1:
        excluded = set(_gamma_star_profiles(a, e))

    pairs = []
    for j in range(a.n_forms):
        labs = sorted(a.values[j])
        for la, lb in combinations(labs, 2):
            pairs.append((j, la, lb))

    violated = _violated_profiles_below(a, h, excluded)
    while violated:
        target = violated[0]
        accepted = None
        for j, la, lb in pairs:
            ma, mb = a.mults[j][la], a.mults[j][lb]
            for u in range(1, u_max + 1):
                cand = a.shifted(j, {la: u * mb, lb: -u * ma})
                if not _profile_safe(cand, target, h):
                    continue
                new_violated = _violated_profiles_below(cand, h, excluded)
                if set(new_violated) < set(violated):
                    accepted = (cand, new_violated)
                    break
            if accepted:
                break
        if accepted is None:
            raise SearchExhausted(u_max)
        a, violated = accepted
    return a
