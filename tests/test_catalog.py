"""Rigid enumeration by inverse reduction steps; base lists."""

from itertools import combinations_with_replacement

import pytest

from deligne_simpson.catalog import (
    MvTuple,
    UnsupportedIndexError,
    base_list,
    enumerate_rigid,
    inverse_psi_extensions,
)
from deligne_simpson.jnf import JnfTuple, JordanForm
from deligne_simpson.reduction import condition_report, is_good, psi_step, reduce_chain

# (p, n_max) of the catalogs the differential tests walk record by record
CATALOGS = ((2, 9), (3, 7), (4, 6))


def all_partitions(n):
    def gen(left, maxpart):
        if left == 0:
            yield ()
            return
        for first in range(min(left, maxpart), 0, -1):
            for rest in gen(left - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def brute_rigid(n_max, p):
    """Independent oracle: filter all diagonal tuples by the goodness
    criterion with terminal size one."""
    out = []
    for n in range(1, n_max + 1):
        parts = all_partitions(n)
        for mvs in combinations_with_replacement(parts, p + 1):
            t = JnfTuple([JordanForm.diagonal(mv) for mv in mvs])
            if not is_good(t):
                continue
            chain = reduce_chain(t)
            if chain.final[0].n == 1:
                out.append(MvTuple(tuple(sorted(mvs, reverse=True))))
    return sorted(set(m.mvs for m in out))


class TestInversePsi:
    def test_from_trivial(self):
        t = MvTuple.of([1], [1], [1])
        exts = inverse_psi_extensions(t)
        assert MvTuple.of([1, 1], [1, 1], [1, 1]).mvs in [e.mvs for e in exts]
        for e in exts:
            assert e.n == 2

    def test_round_trip_property(self):
        # the forward check the closure does not need, kept as an oracle:
        # one reduction step of every extension gives back its source
        for p, n_max in CATALOGS:
            for src in enumerate_rigid(n_max, p):
                for ext in inverse_psi_extensions(src):
                    smaller, n1 = psi_step(ext.to_jnf_tuple())
                    got = tuple(sorted((f.mv() for f in smaller.forms), reverse=True))
                    assert (n1, got) == (src.n, src.mvs)

    def test_n3_extension_present(self):
        t = MvTuple.of([1, 1], [1, 1], [1, 1])
        exts = [e.mvs for e in inverse_psi_extensions(t)]
        assert MvTuple.of([2, 1], [1, 1, 1], [1, 1, 1]).mvs in exts


class TestEnumerateRigid:
    def test_n2_p2(self):
        out = enumerate_rigid(2, 2)
        mvs = [m.mvs for m in out if m.n == 2]
        assert mvs == [((1, 1), (1, 1), (1, 1))]

    def test_n1(self):
        out = enumerate_rigid(1, 2)
        assert len(out) == 1 and out[0].n == 1

    def test_soundness(self):
        for p in (2, 3):
            for m in enumerate_rigid(6, p):
                t = m.to_jnf_tuple()
                assert is_good(t)
                chain = reduce_chain(t)
                assert chain.final[0].n == 1
                assert m.report().kappa == 0

    def test_completeness_against_brute_force(self):
        for p in (2, 3, 4):
            ours = sorted(m.mvs for m in enumerate_rigid(6, p))
            brute = brute_rigid(6, p)
            assert ours == brute

    def test_report_matches_general_engine(self):
        for p, n_max in CATALOGS:
            for m in enumerate_rigid(n_max, p):
                assert m.report() == condition_report(m.to_jnf_tuple())

    def test_alpha_equality_on_outputs(self):
        for m in enumerate_rigid(5, 2):
            assert m.report().alpha_equality


class TestBaseList:
    def test_l0_exact(self):
        out = base_list(0)
        assert len(out) == 4
        assert out[0].mvs == ((1, 1), (1, 1), (1, 1), (1, 1))
        assert out[1].mvs == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        assert out[2].mvs == ((1, 1, 1, 1), (1, 1, 1, 1), (2, 2))
        assert out[3].mvs == ((1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 3))

    def test_l0_omega_equality_and_kappa(self):
        for m in base_list(0):
            rep = m.report()
            assert rep.omega_holds
            assert rep.sum_d == 2 * m.n * m.n
            assert rep.kappa == 2

    def test_series_instances(self):
        out = base_list(-2, n_max=12)
        assert all(m.report().omega_holds for m in out)
        assert all(m.report().kappa == 2 for m in out)
        sizes = sorted({m.n for m in out})
        assert sizes[0] == 2
        assert any(m.mvs == ((2, 2), (2, 2), (2, 2), (2, 2)) for m in out)

    def test_unsupported(self):
        with pytest.raises(UnsupportedIndexError):
            base_list(-1)
        with pytest.raises(UnsupportedIndexError):
            base_list(1)
        with pytest.raises(ValueError):
            base_list(-2)
