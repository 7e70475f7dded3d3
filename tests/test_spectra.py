"""Eigenvalue invariants, relation scan, distance, generic lifts."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, gcd

import pytest

from deligne_simpson import spectra
from deligne_simpson.jnf import JnfTuple, JordanForm, PreconditionViolation
from deligne_simpson.spectra import (
    ConstraintViolation,
    ExponentAssignment,
    Relation,
    SearchExhausted,
    _gamma_star_profiles,
    _violated_profiles_below,
    distance,
    find_relation,
    genericize,
    is_relatively_generic,
    iter_relations,
    spectra_invariants,
)

F = Fraction


def intro_tuple():
    return JnfTuple([JordanForm.nilpotent([2], label="s")] * 3)


def intro_assignment(minus_one=True):
    lam = F(1, 2) if minus_one else F(0)
    values = [{"s": F(0)}, {"s": F(0)}, {"s": lam}]
    if not minus_one:
        values = [{"s": F(0)}, {"s": F(1, 2)}, {"s": F(1, 2)}]
    return ExponentAssignment.from_tuple(intro_tuple(), values)


def second_example():
    t = JnfTuple([JordanForm.diagonal([2, 2])] * 4)
    values = [
        {"e1": F(0), "e2": F(1, 8)},
        {"e1": F(0), "e2": F(1, 8)},
        {"e1": F(0), "e2": F(15, 16)},
        {"e1": F(1, 4), "e2": F(1, 16)},
    ]
    return t, ExponentAssignment.from_tuple(t, values)


# ---------------------------------------------------------------------------
# Independent oracle: raw slot enumeration with itertools


def brute_relations(a, integer_only=True):
    """Every (kappa, value) over raw slot index subsets."""
    n = a.n
    slot_lists = [a.slots(j) for j in range(a.n_forms)]
    for kappa in range(1, n):
        choices = [list(combinations(range(len(slots)), kappa))
                   for slots in slot_lists]
        for combo in product(*choices):
            value = sum(
                (slot_lists[j][i][1] for j, idx in enumerate(combo) for i in idx),
                F(0))
            if not integer_only or value.denominator == 1:
                yield kappa, combo, value


def brute_distance(a):
    best = None
    for _, _, value in brute_relations(a, integer_only=True):
        m = abs(int(value))
        if best is None or m < best:
            best = m
    return best


class TestAssignment:
    def test_product_constraint_enforced(self):
        t = intro_tuple()
        with pytest.raises(ConstraintViolation):
            ExponentAssignment.from_tuple(t, [{"s": F(0)}, {"s": F(0)}, {"s": F(1, 3)}])

    def test_additive_zero_sum_enforced(self):
        t = intro_tuple()
        with pytest.raises(ConstraintViolation):
            ExponentAssignment.from_tuple(
                t, [{"s": F(1, 3)}, {"s": F(0)}, {"s": F(0)}], version="additive")

    def test_duplicate_residues_rejected(self):
        t = JnfTuple([JordanForm.diagonal([1, 1])] * 3)
        with pytest.raises(ConstraintViolation):
            ExponentAssignment.from_tuple(
                t, [{"e1": F(0), "e2": F(1)},
                    {"e1": F(0), "e2": F(1, 2)},
                    {"e1": F(0), "e2": F(1, 2)}])

    def test_round_trip(self):
        _, a = second_example()
        again = ExponentAssignment.from_dict(a.to_dict())
        assert again.values == a.values and again.mults == a.mults


class TestInvariants:
    def test_intro_example(self):
        inv = spectra_invariants(intro_tuple(), intro_assignment(minus_one=True))
        assert (inv.q, inv.d, inv.m0) == (2, 1, 1)
        assert inv.xi_primitive

    def test_intro_example_plus_one(self):
        inv = spectra_invariants(intro_tuple(), intro_assignment(minus_one=False))
        assert (inv.q, inv.d, inv.m0) == (2, 1, 0)
        assert not inv.xi_primitive

    def test_second_example(self):
        t, a = second_example()
        inv = spectra_invariants(t, a)
        assert inv.q == 2 and inv.d == 2
        # xi = exp(2 pi i m0 / q) = -1
        assert inv.m0 == 1 and inv.xi_primitive

    def test_all_scalar(self):
        for n in (2, 3, 4):
            t = JnfTuple([JordanForm.diagonal([n])] * 3)
            a = ExponentAssignment.from_tuple(t, [{"e1": F(0)}] * 3)
            inv = spectra_invariants(t, a)
            assert (inv.q, inv.d, inv.m0) == (n, n, 0)
            assert not inv.xi_primitive

    def test_non_primitive_xi_implies_non_generic(self):
        # the reduced-product relation is always violated when xi is not
        # a primitive root
        a = intro_assignment(minus_one=False)
        inv = spectra_invariants(intro_tuple(), a)
        assert not inv.xi_primitive
        assert find_relation(a) is not None

    def test_d_divides_q_divides_n(self):
        rng = random.Random(51)
        for _ in range(40):
            n = rng.randint(1, 10)
            from conftest import random_jnf_tuple
            t = random_jnf_tuple(rng, n, rng.randint(2, 3))
            values = []
            running = F(0)
            for j, f in enumerate(t.forms):
                vj = {}
                for lab in f.labels:
                    vj[lab] = F(rng.randint(0, 30), 31)
                values.append(vj)
            # fix the last label of the last form to meet the constraint
            last_form = t.forms[-1]
            lab = last_form.labels[-1]
            m_last = last_form.multiplicity(lab)
            partial = sum(
                (f.multiplicity(l) * values[j][l]
                 for j, f in enumerate(t.forms) for l in f.labels
                 if not (j == len(t.forms) - 1 and l == lab)), F(0))
            values[-1][lab] = (-partial) / m_last
            try:
                a = ExponentAssignment.from_tuple(t, values)
            except ConstraintViolation:
                continue
            inv = spectra_invariants(t, a)
            assert n % inv.q == 0
            assert inv.q % inv.d == 0


class TestFindRelation:
    def test_intro_minus_one_generic(self):
        a = intro_assignment(minus_one=True)
        assert find_relation(a) is None

    def test_intro_plus_one_violation(self):
        a = intro_assignment(minus_one=False)
        rel = find_relation(a)
        assert rel is not None
        assert rel.kappa == 1
        assert rel.defect is not None

    def test_second_example_violation(self):
        _, a = second_example()
        rel = find_relation(a)
        assert rel is not None and rel.defect is not None
        # with the strict lower bound on kappa the duplicated-slot version
        # of the same relation is found at kappa = 2
        rel2 = find_relation(a, kappa_min=2)
        assert rel2 is not None and rel2.kappa == 2

    def test_all_zero_lambda(self):
        t = JnfTuple([JordanForm.diagonal([2])] * 3)
        a = ExponentAssignment.from_tuple(t, [{"e1": F(0)}] * 3)
        rel = find_relation(a)
        assert rel is not None and rel.kappa == 1 and rel.value == 0

    def test_symmetry_under_form_permutation(self):
        t, a = second_example()
        perm = [2, 0, 3, 1]
        values = [a.values[i] for i in perm]
        forms = [t.forms[i] for i in perm]
        b = ExponentAssignment.from_tuple(JnfTuple(forms), values)
        assert (find_relation(a) is None) == (find_relation(b) is None)

    def test_symmetry_under_relabeling(self):
        t, a = second_example()
        values = [{"x" + k: v for k, v in vj.items()} for vj in a.values]
        mults = [{"x" + k: m for k, m in mj.items()} for mj in a.mults]
        b = ExponentAssignment("multiplicative", values, mults)
        ra, rb = find_relation(a), find_relation(b)
        assert (ra is None) == (rb is None)
        assert ra.kappa == rb.kappa and ra.value == rb.value

    def test_agrees_with_brute_force(self):
        rng = random.Random(53)
        for _ in range(15):
            n = rng.randint(2, 5)
            mv = [1] * n if rng.random() < 0.5 else [2] * (n // 2) + [1] * (n % 2)
            mv = [m for m in mv if m]
            t = JnfTuple([JordanForm.diagonal(mv)] * 3)
            values = []
            for f in t.forms:
                values.append({lab: F(rng.randint(0, 11), 12) for lab in f.labels})
            # repair the constraint on the last label
            lab = t.forms[-1].labels[-1]
            m_last = t.forms[-1].multiplicity(lab)
            partial = sum(
                (f.multiplicity(l) * values[j][l]
                 for j, f in enumerate(t.forms) for l in f.labels
                 if not (j == 2 and l == lab)), F(0))
            target = -(partial) + int(partial) + 1  # make total an integer
            values[-1][lab] = target / m_last
            try:
                a = ExponentAssignment.from_tuple(t, values)
            except ConstraintViolation:
                continue
            found = find_relation(a)
            brute = [v for _, _, v in brute_relations(a)]
            assert (found is None) == (len(brute) == 0)


class TestRelativeGenericity:
    def test_only_reduced_product_relation(self):
        # intro profile with eigenvalue product +1: the only violated
        # relation is the reduced-product one
        a = intro_assignment(minus_one=False)
        inv = spectra_invariants(intro_tuple(), a)
        assert not inv.xi_primitive
        assert is_relatively_generic(a, inv)

    def test_extra_relation_detected(self):
        t = JnfTuple([JordanForm.diagonal([2, 2])] * 3)
        values = [
            {"e1": F(0), "e2": F(1, 2)},
            {"e1": F(0), "e2": F(1, 2)},
            {"e1": F(1, 4), "e2": F(3, 4)},
        ]
        a = ExponentAssignment.from_tuple(t, values)
        inv = spectra_invariants(t, a)
        assert inv.q == 2 and not inv.xi_primitive
        assert not is_relatively_generic(a, inv)

    def test_primitive_xi_rejected(self):
        a = intro_assignment(minus_one=True)
        inv = spectra_invariants(intro_tuple(), a)
        with pytest.raises(PreconditionViolation):
            is_relatively_generic(a, inv)


class TestDistance:
    def test_strongly_generic_infinite(self):
        t = JnfTuple([JordanForm.diagonal([1, 1])] * 3)
        values = [
            {"e1": F(1, 11), "e2": F(2, 11)},
            {"e1": F(3, 11), "e2": F(5, 11)},
            {"e1": F(-2, 11), "e2": F(-9, 11)},
        ]
        a = ExponentAssignment.from_tuple(t, values, version="additive")
        assert distance(a) is None
        assert brute_distance(a) is None

    def test_planted_relation_value_three(self):
        t = JnfTuple([JordanForm.diagonal([1, 1])] * 3)
        values = [
            {"e1": F(1, 7), "e2": F(-1, 7)},
            {"e1": F(2, 7), "e2": F(-2, 7)},
            {"e1": F(18, 7), "e2": F(-18, 7)},
        ]
        a = ExponentAssignment(
            "additive", values, [{"e1": 1, "e2": 1}] * 3)
        assert distance(a) == 3
        assert brute_distance(a) == 3

    def test_global_constraint_alone_is_no_relation(self):
        # the full-index selection is outside the kappa < n range
        t = JnfTuple([JordanForm.diagonal([1, 1])] * 2)
        values = [
            {"e1": F(1, 5), "e2": F(-3, 5)},
            {"e1": F(2, 5), "e2": F(0)},
        ]
        a = ExponentAssignment("additive", values, [{"e1": 1, "e2": 1}] * 2)
        assert a.total_sum() == 0
        assert distance(a) is None


class TestGenericize:
    def test_intro_mode_a(self):
        out = genericize([{"s": F(0)}, {"s": F(0)}, {"s": F(1, 2)}],
                         intro_tuple(), h=5, mode="A")
        assert out.version == "additive"
        assert out.total_sum() == 0
        d = brute_distance(out)
        assert d is None or d >= 5

    def test_mode_a_rejects_non_primitive(self):
        with pytest.raises(PreconditionViolation):
            genericize([{"s": F(0)}, {"s": F(1, 2)}, {"s": F(1, 2)}],
                       intro_tuple(), h=5, mode="A")

    def test_second_example_mode_b(self):
        t, a = second_example()
        residues = a.values
        out = genericize(residues, t, h=4, mode="B")
        assert out.total_sum() == 0
        # residues preserved
        for j in range(4):
            for lab, v in residues[j].items():
                assert (out.values[j][lab] - v).denominator == 1
        # last-form splits only 0 or -1
        for offs in out.last_offsets.values():
            assert set(offs) <= {0, -1}
        # all non-excluded relations at distance >= 4 (here nothing is
        # excluded since xi is primitive)
        for _, _, value in brute_relations(out):
            assert abs(int(value)) >= 4

    def test_preserves_canonicity(self):
        t, a = second_example()
        out = genericize(a.values, t, h=3, mode="B")
        for j in range(3):  # all forms but the last
            slots = out.slots(j)
            for (l1, v1), (l2, v2) in combinations(slots, 2):
                if l1 != l2:
                    assert (v1 - v2).denominator != 1

    def test_search_exhausted_with_zero_budget(self):
        # a planted violation with no sweep budget reports the bound
        t = JnfTuple([JordanForm.diagonal([1, 1])] * 3)
        values = [
            {"e1": F(0), "e2": F(1, 3)},
            {"e1": F(0), "e2": F(1, 3)},
            {"e1": F(0), "e2": F(1, 3)},
        ]
        with pytest.raises(SearchExhausted) as exc:
            genericize(values, t, h=2, mode="A", u_max=0)
        assert exc.value.u_max == 0

    def test_offsets_json_round_trip(self):
        t, a = second_example()
        out = genericize(a.values, t, h=3, mode="B")
        again = ExponentAssignment.from_dict(out.to_dict())
        assert again.values == out.values
        assert again.last_offsets == out.last_offsets
        assert again.total_sum() == 0

    def test_random_sets_verified_by_oracle(self):
        rng = random.Random(57)
        done = 0
        while done < 8:
            n = rng.randint(2, 5)
            mv = [2, n - 2] if n > 3 and rng.random() < 0.5 else [1] * n
            mv = [m for m in mv if m > 0]
            t = JnfTuple([JordanForm.diagonal(mv)] * 3)
            values = []
            for f in t.forms:
                values.append({lab: F(rng.randint(0, 12), 13) for lab in f.labels})
            lab = t.forms[-1].labels[-1]
            m_last = t.forms[-1].multiplicity(lab)
            partial = sum(
                (f.multiplicity(l) * values[j][l]
                 for j, f in enumerate(t.forms) for l in f.labels
                 if not (j == 2 and l == lab)), F(0))
            values[-1][lab] = (int(partial) + 1 - partial) / m_last
            try:
                a = ExponentAssignment.from_tuple(t, values)
                inv = spectra_invariants(t, a)
            except ConstraintViolation:
                continue
            if inv.q > 1 and not inv.xi_primitive:
                continue
            out = genericize(values, t, h=4, mode="A")
            d = brute_distance(out)
            assert d is None or d >= 4
            done += 1


# ---------------------------------------------------------------------------
# Differential oracles: the exhaustive scans over iter_relations that the
# split scan replaces, compared for exact equality of their results


def oracle_find_relation(a, mode="strongly-generic", kappa_min=1):
    integer_test = mode == "strongly-generic" or a.version == "multiplicative"
    for kappa, counts, value in iter_relations(a, kappa_min=kappa_min):
        if value.denominator == 1 if integer_test else value == 0:
            return Relation(kappa, counts, value)
    return None


def oracle_is_relatively_generic(a, inv):
    allowed = set(_gamma_star_profiles(a, gcd(inv.m0, inv.q)))
    return all(value.denominator != 1 or counts in allowed
               for _, counts, value in iter_relations(a))


def mult_gcd(a):
    q = 0
    for mj in a.mults:
        for m in mj.values():
            q = gcd(q, m)
    return q


def oracle_distance(a, exclude_gamma_star=False):
    excluded = set()
    if exclude_gamma_star:
        q = mult_gcd(a)
        e = gcd(int(a.total_sum()) % q, q)
        if e > 1:
            excluded = set(_gamma_star_profiles(a, e))
    dists = [abs(int(value)) for _, counts, value in iter_relations(a)
             if value.denominator == 1 and counts not in excluded]
    return min(dists, default=None)


def oracle_profiles_below(a, h, excluded):
    seen = []
    for _, counts, value in iter_relations(a):
        if value.denominator != 1 or abs(int(value)) >= h:
            continue
        if counts not in excluded and counts not in seen:
            seen.append(counts)
    return seen


def random_mults(rng, n, q=1):
    """Random label multiplicities summing to n, all divisible by q."""
    parts = []
    left = n // q
    while left:
        m = rng.randint(1, min(left, 3))
        parts.append(m * q)
        left -= m
    rng.shuffle(parts)
    return {"e%d" % (i + 1): m for i, m in enumerate(parts)}


def random_assignment(rng, n, n_forms, version, den, q=1, offsets=False,
                      even_total=False):
    """Seeded exponent assignment meeting the total constraint.

    The last label of the last form absorbs the constraint: total 0
    (additive), an integer total, or an even one with even_total.  The
    last form may carry integer offsets on labels of multiplicity >= 2.
    """
    while True:
        mults = [random_mults(rng, n, q) for _ in range(n_forms)]
        # distinct residues per form (den must be at least the label count)
        values = [{lab: F(k + den * rng.randint(-2, 1), den)
                   for lab, k in zip(mj, rng.sample(range(den), len(mj)))}
                  for mj in mults]
        offs = {}
        if offsets:
            for lab, m in mults[-1].items():
                if m > 1 and rng.random() < 0.6:
                    offs[lab] = [rng.randint(-2, 1) for _ in range(m)]
        fix = sorted(mults[-1])[-1]
        partial = sum((mults[j][lab] * v for j, vj in enumerate(values)
                       for lab, v in vj.items()
                       if (j, lab) != (n_forms - 1, fix)), F(0))
        partial += sum(sum(o) for o in offs.values())
        target = 0 if version == "additive" else ceil(partial)
        if even_total:
            target += target % 2
        values[-1][fix] = (target - partial) / mults[-1][fix]
        try:
            return ExponentAssignment(version, values, mults, offs)
        except ConstraintViolation:
            continue


def random_cases(seed, count, **kwargs):
    """Assignments of p + 1 forms, p = 1..3, with n <= 7 (n <= 5 for p = 3)."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 3)
        n = rng.randint(2, (7, 7, 5)[p - 1])
        den = rng.choice([d for d in (2, 3, 4, 6, 12, 101) if d >= n])
        yield random_assignment(rng, n, p + 1, den=den, **kwargs)


def decide_residues(rng, mvs, den=11):
    """Residues shaped like the lifts of the decide benchmark: distinct per
    form, with the last label (multiplicity 1) of the last form fixing an
    integer total."""
    while True:
        values = [{"e%d" % (i + 1): F(k, den)
                   for i, k in enumerate(rng.sample(range(1, den), len(mv)))}
                  for mv in mvs]
        total = sum(m * v for mv, vj in zip(mvs, values)
                    for m, v in zip(mv, vj.values()))
        fix = "e%d" % len(mvs[-1])
        values[-1][fix] = (values[-1][fix] - total) % 1
        mults = [{"e%d" % (i + 1): m for i, m in enumerate(mv)} for mv in mvs]
        try:
            ExponentAssignment("multiplicative", values, mults)
        except ConstraintViolation:
            continue
        return values


class TestSplitScanAgainstOracle:
    def test_find_relation(self):
        for version in ("multiplicative", "additive"):
            for a in random_cases(61, 40, version=version, offsets=True):
                for mode in ("generic", "strongly-generic"):
                    assert find_relation(a, mode) == oracle_find_relation(a, mode)

    def test_find_relation_kappa_min(self):
        for a in random_cases(62, 30, version="multiplicative", offsets=True):
            kmin = random.Random(a.n).randint(2, max(2, a.n - 1))
            assert find_relation(a, kappa_min=kmin) == \
                oracle_find_relation(a, kappa_min=kmin)

    def test_distance(self):
        for a in random_cases(63, 40, version="additive", offsets=True):
            assert distance(a) == oracle_distance(a)

    def test_distance_exclude_gamma_star(self):
        rng = random.Random(64)
        for _ in range(30):
            q = rng.choice((2, 3))
            n = q * rng.randint(1, 3)
            a = random_assignment(rng, n, rng.randint(2, 4), "additive",
                                  den=rng.choice((3, 4, 6)), q=q,
                                  offsets=rng.random() < 0.5)
            for flag in (False, True):
                assert distance(a, flag) == oracle_distance(a, flag)

    def test_profiles_below(self):
        for a in random_cases(65, 40, version="additive", offsets=True):
            for h in (0, 1, 3):
                # exclude the first profile the oracle meets, if any
                excluded = set(oracle_profiles_below(a, h, set())[:1])
                assert _violated_profiles_below(a, h, excluded) == \
                    oracle_profiles_below(a, h, excluded)

    def test_relatively_generic(self):
        rng = random.Random(66)
        checked = 0
        while checked < 30:
            q = rng.choice((2, 3))
            n = q * rng.randint(1, 3)
            a = random_assignment(rng, n, rng.randint(2, 4), "multiplicative",
                                  den=rng.choice((3, 4, 6, 12)), q=q,
                                  offsets=rng.random() < 0.5, even_total=q == 2)
            q = mult_gcd(a)
            m0 = int(a.total_sum()) % q
            if gcd(m0, q) <= 1:
                continue
            # d plays no part in relative genericity
            inv = spectra.SpectraInvariants(q=q, d=1, m0=m0, xi_primitive=False)
            assert is_relatively_generic(a, inv) == oracle_is_relatively_generic(a, inv)
            checked += 1

    def test_genericize_matches_oracle_search(self, monkeypatch):
        rng = random.Random(67)
        cases = []
        for n, p in [(4, 2), (5, 2), (4, 3), (4, 1)]:
            mvs = [[1] * n] * p + [[2] + [1] * (n - 2)]
            t = JnfTuple([JordanForm.diagonal(mv) for mv in mvs])
            cases.append((decide_residues(rng, mvs), t, "A"))
        t, a = second_example()
        cases.append((a.values, t, "B"))
        lifts = [genericize(values, t, h=3, mode=mode) for values, t, mode in cases]
        monkeypatch.setattr(spectra, "_violated_profiles_below",
                            oracle_profiles_below)
        for (values, t, mode), lift in zip(cases, lifts):
            want = genericize(values, t, h=3, mode=mode)
            assert lift.to_dict() == want.to_dict()
