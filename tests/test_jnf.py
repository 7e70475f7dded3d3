"""Jordan form combinatorics: invariants, correspondence, closure order."""

import random

import pytest

from conftest import random_jordan_form, random_partition
from deligne_simpson.jnf import (
    BadRankError,
    BlocksAbsentError,
    CaseLabel,
    JnfTuple,
    JordanForm,
    PreconditionViolation,
    ProfileMismatchError,
    apply_op_sl,
    classify_family,
    correspond,
    corresponding_diagonal,
    corresponding_single,
    d_of,
    dominates,
    dual_partition,
    is_omega0_shaped,
    omega0,
    op_successors,
    r_of,
)


def all_partitions(n):
    def gen(left, maxpart):
        if left == 0:
            yield ()
            return
        for first in range(min(left, maxpart), 0, -1):
            for rest in gen(left - first, first):
                yield (first,) + rest

    return list(gen(n, n))


class TestInvariants:
    def test_r_single_block(self):
        for n in range(1, 8):
            assert r_of(JordanForm.nilpotent([n])) == n - 1

    def test_r_ex1_third_form(self):
        assert r_of(JordanForm.nilpotent([2, 2, 1, 1])) == 2

    def test_r_special_d_first_form(self):
        for g in (2, 3, 4):
            j = JordanForm.nilpotent([6] * g)
            assert j.n == 6 * g and r_of(j) == 5 * g

    def test_d_scalar_form(self):
        assert d_of(JordanForm.diagonal([4])) == 0

    def test_d_diagonal_1_1(self):
        assert d_of(JordanForm.diagonal([1, 1])) == 2

    def test_d_single_2_block(self):
        assert d_of(JordanForm.nilpotent([2])) == 2

    def test_d_against_pairwise_min_oracle(self):
        def oracle(j):
            cent = sum(min(a, b) for p in j.blocks.values() for a in p for b in p)
            return j.n * j.n - cent

        forms = [JordanForm.nilpotent(p) for n in range(1, 9)
                 for p in all_partitions(n)]
        forms += [JordanForm({"a": p, "b": q})
                  for n in range(2, 9) for k in range(1, n)
                  for p in all_partitions(k) for q in all_partitions(n - k)]
        assert len(forms) == 66 + 301
        for j in forms:
            assert d_of(j) == oracle(j)


class TestDualAndCorrespondence:
    def test_dual_examples(self):
        assert dual_partition((2, 2)) == (2, 2)
        assert dual_partition((3, 1)) == (2, 1, 1)
        assert dual_partition((4,)) == (1, 1, 1, 1)

    def test_dual_involution(self):
        rng = random.Random(1)
        for _ in range(50):
            p = random_partition(rng, rng.randint(1, 12))
            assert dual_partition(dual_partition(p)) == p

    def test_corresponding_diagonal_of_2_2(self):
        j = JordanForm.nilpotent([2, 2])
        d = corresponding_diagonal(j)
        assert all(set(p) == {1} for p in d.blocks.values())
        assert d.mv() == (2, 2)

    def test_corresponding_diagonal_of_3_1(self):
        d = corresponding_diagonal(JordanForm.nilpotent([3, 1]))
        assert d.mv() == (2, 1, 1)

    def test_diagonal_fixed_up_to_relabeling(self):
        j = JordanForm.diagonal([3, 2, 2])
        assert corresponding_diagonal(j).mv() == j.mv()

    def test_corresponding_single_two_labels(self):
        j = JordanForm({"a": [2, 1], "b": [2, 1]})
        assert corresponding_single(j).single_partition() == (4, 2)

    def test_corresponding_single_uneven(self):
        j = JordanForm({"a": [3], "b": [2, 2]})
        assert corresponding_single(j).single_partition() == (5, 2)

    def test_single_label_fixed(self):
        j = JordanForm.nilpotent([3, 2])
        assert corresponding_single(j).single_partition() == (3, 2)

    def test_r_d_preserved(self):
        rng = random.Random(2)
        for _ in range(100):
            j = random_jordan_form(rng, rng.randint(1, 12))
            for image in (corresponding_diagonal(j), corresponding_single(j)):
                assert r_of(image) == r_of(j)
                assert d_of(image) == d_of(j)

    def test_single_after_diagonal_idempotent(self):
        rng = random.Random(3)
        for _ in range(60):
            j = random_jordan_form(rng, rng.randint(1, 10))
            via_diag = corresponding_single(corresponding_diagonal(j))
            direct = corresponding_single(j)
            assert via_diag.canonical() == direct.canonical()

    def test_correspond_relation(self):
        j = JordanForm.nilpotent([2, 2])
        assert correspond(j, corresponding_diagonal(j))
        assert correspond(j, corresponding_single(j))


class TestDominanceAndOps:
    def test_examples(self):
        j4 = JordanForm.nilpotent([4])
        j22 = JordanForm.nilpotent([2, 2])
        j31 = JordanForm.nilpotent([3, 1])
        assert dominates(j4, j22) and not dominates(j22, j4)
        assert dominates(j31, j22) and not dominates(j22, j31)
        assert dominates(j31, j31)

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            dominates(JordanForm({"a": [2]}), JordanForm({"b": [2]}))
        with pytest.raises(ProfileMismatchError):
            dominates(JordanForm({"a": [2], "b": [1]}),
                      JordanForm({"a": [2, 1], "b": [1, 1]}))

    def test_op_examples(self):
        j = JordanForm.nilpotent([2, 2])
        assert apply_op_sl(j, "0", 2, 2).single_partition() == (3, 1)
        j = JordanForm.nilpotent([3, 1])
        assert apply_op_sl(j, "0", 3, 1).single_partition() == (4,)

    def test_op_missing_blocks(self):
        with pytest.raises(BlocksAbsentError):
            apply_op_sl(JordanForm.nilpotent([3, 1]), "0", 2, 1)

    def test_op_chain_2_2_2_to_6(self):
        steps = [(2, 2), (3, 1), (4, 2), (5, 1)]
        j = JordanForm.nilpotent([2, 2, 2])
        seen = [j]
        for s, l in steps:
            j = apply_op_sl(j, "0", s, l)
            seen.append(j)
        assert j.single_partition() == (6,)
        for a, b in zip(seen, seen[1:]):
            assert dominates(b, a)

    def test_op_strictly_increases_d(self):
        rng = random.Random(4)
        for _ in range(80):
            p = random_partition(rng, rng.randint(2, 10))
            j = JordanForm.nilpotent(p)
            for q in op_successors(p):
                assert d_of(JordanForm.nilpotent(q)) > d_of(j)

    def test_dominance_equals_reachability_exhaustive(self):
        # dominance agrees with (s, l)-surgery reachability for all n <= 8
        for n in range(1, 9):
            parts = all_partitions(n)
            reach = {p: {p} for p in parts}
            for p in parts:
                frontier = [p]
                while frontier:
                    q = frontier.pop()
                    for nxt in op_successors(q):
                        if nxt not in reach[p]:
                            reach[p].add(nxt)
                            frontier.append(nxt)
            for p in parts:
                for q in parts:
                    dom = dominates(JordanForm.nilpotent(p), JordanForm.nilpotent(q))
                    assert dom == (p in reach[q])


class TestOmega0:
    def test_examples(self):
        assert omega0(9, 6) == (3, 3, 3)
        assert omega0(5, 3) == (3, 2)
        assert omega0(4, 0) == (1, 1, 1, 1)

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            omega0(4, 4)

    def test_minimal_dimension_brute_force(self):
        for n in range(1, 11):
            for r in range(n):
                best = omega0(n, r)
                assert is_omega0_shaped(best)
                d_best = d_of(JordanForm.nilpotent(best))
                rivals = [p for p in all_partitions(n) if n - len(p) == r]
                assert best in rivals
                for p in rivals:
                    d_p = d_of(JordanForm.nilpotent(p))
                    assert d_p >= d_best
                    if d_p == d_best:
                        assert p == best


def nilpotent_tuple(*parts_lists):
    return JnfTuple([JordanForm.nilpotent(p) for p in parts_lists])


class TestClassify:
    def test_special_a(self):
        t = nilpotent_tuple([2, 2], [2, 2], [2, 2], [2, 2])
        assert classify_family(t) == CaseLabel("special-a", 2)

    def test_special_b_c_d(self):
        assert classify_family(nilpotent_tuple([3, 3], [3, 3], [3, 3])) == \
            CaseLabel("special-b", 2)
        assert classify_family(
            nilpotent_tuple([4, 4], [4, 4], [2, 2, 2, 2])) == CaseLabel("special-c", 2)
        assert classify_family(
            nilpotent_tuple([6, 6], [3, 3, 3, 3], [2] * 6)) == CaseLabel("special-d", 2)

    def test_almost_b1(self):
        t = nilpotent_tuple([4, 2], [3, 3], [3, 3])
        assert classify_family(t) == CaseLabel("almost-b1", 2)

    def test_almost_a1_c1_c2_d1_d2_d3(self):
        assert classify_family(
            nilpotent_tuple([3, 1], [2, 2], [2, 2], [2, 2])) == CaseLabel("almost-a1", 2)
        assert classify_family(
            nilpotent_tuple([4, 4], [4, 4], [3, 1, 2, 2])) == CaseLabel("almost-c1", 2)
        assert classify_family(
            nilpotent_tuple([5, 3], [4, 4], [2, 2, 2, 2])) == CaseLabel("almost-c2", 2)
        assert classify_family(
            nilpotent_tuple([6, 6], [3, 3, 3, 3], [3, 1, 2, 2, 2, 2])) == \
            CaseLabel("almost-d1", 2)
        assert classify_family(
            nilpotent_tuple([6, 6], [4, 2, 3, 3], [2] * 6)) == CaseLabel("almost-d2", 2)
        assert classify_family(
            nilpotent_tuple([7, 5], [3, 3, 3, 3], [2] * 6)) == CaseLabel("almost-d3", 2)

    def test_case_f(self):
        # block sizes {2,3} / {3} / {5} with ranks summing to 2n, n = 15
        t = nilpotent_tuple([3, 2, 2, 2, 2, 2, 2], [3, 3, 3, 3, 3], [5, 5, 5])
        assert classify_family(t) == CaseLabel("case-(F)")

    def test_case_a(self):
        t = nilpotent_tuple([2, 2, 1], [5], [5])
        assert classify_family(t) == CaseLabel("case-(A)")

    def test_case_b(self):
        t = nilpotent_tuple([3, 2, 2], [3, 2, 2], [7])
        assert classify_family(t) == CaseLabel("case-(B)")

    def test_neighbouring_of_b1(self):
        # one extra surgery on the second form of the almost-b1 profile
        t = nilpotent_tuple([4, 2], [4, 2], [3, 3])
        assert classify_family(t) == CaseLabel("neighbouring-of-b1", 2)

    def test_precondition_violations(self):
        with pytest.raises(PreconditionViolation):
            classify_family(nilpotent_tuple([2, 2], [2, 2], [2, 2]))  # sum r != 2n
        with pytest.raises(PreconditionViolation):
            classify_family(JnfTuple([JordanForm.diagonal([2, 2])] * 3))

    def test_other(self):
        t = nilpotent_tuple([4], [2, 2], [2, 2], [2, 1, 1])
        assert classify_family(t) == CaseLabel("other")
