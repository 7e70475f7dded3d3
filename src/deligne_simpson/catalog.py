"""Enumeration of diagonal Jordan form tuples by index of rigidity.

Everything here works on integer multiplicity vectors.  For a diagonal
tuple of size n every quantity is a closed form in the multiplicities m:
the class dimension is n^2 - sum m^2, the rank defect is n - max m, and a
reduction step to size n1 subtracts n - n1 from a largest multiplicity.

Rigid tuples (index 2, terminal size one) are generated bottom-up from the
size-one tuple, the combinatorial counterpart of Katz's algorithm for rigid
local systems: every tuple is extended by all inverse reduction steps.  Per
form one picks the multiplicity mu that the shrunk eigenvalue keeps (an
existing one or a fresh zero); the extension has size n = p n1 - sum mu,
and that eigenvalue regains grow = n - n1 > 0, which must leave it largest.
No forward check is needed: the extension has sum r = n + n1 < 2n, each
largest multiplicity mu + grow >= grow makes the deleted-form inequalities
hold, and the forward step to size sum r - n = n1 takes grow back off a
largest multiplicity, returning mu.  The base lists for index zero and the
scaled series behind the negative-index machinery are spelled out
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .jnf import JnfTuple, JordanForm, Partition, as_partition
from .reduction import ConditionReport


class UnsupportedIndexError(ValueError):
    """Base lists exist for index zero and negative even indices only."""


@dataclass(frozen=True)
class MvTuple:
    """Tuple of multiplicity vectors (one partition of n per form)."""

    mvs: tuple[Partition, ...]

    @property
    def n(self) -> int:
        return sum(self.mvs[0])

    @property
    def p(self) -> int:
        return len(self.mvs) - 1

    def to_jnf_tuple(self) -> JnfTuple:
        return JnfTuple([JordanForm.diagonal(mv) for mv in self.mvs])

    def report(self) -> ConditionReport:
        n = self.n
        ds = [n * n - sum(m * m for m in mv) for mv in self.mvs]
        return ConditionReport.of(n, ds, [n - mv[0] for mv in self.mvs])

    def to_dict(self) -> dict:
        return {"n": self.n, "mvs": [list(mv) for mv in self.mvs],
                "report": self.report().to_dict()}

    @staticmethod
    def of(*mvs: Iterable[int]) -> "MvTuple":
        return MvTuple(tuple(as_partition(mv) for mv in mvs))


def _without(mv: Partition, mu: int) -> Partition:
    """mv with one part equal to mu removed; mv itself for mu = 0."""
    if not mu:
        return mv
    i = mv.index(mu)
    return mv[:i] + mv[i + 1:]


def inverse_psi_extensions(t: MvTuple) -> list[MvTuple]:
    """All one-step predecessors of t under the reduction map, canonical
    (forms sorted) and ordered by (n, mvs); see the module docstring."""
    n1, p = t.n, t.p
    out = set()
    for mus in product(*(sorted(set(mv)) + [0] for mv in t.mvs)):
        grow = (p - 1) * n1 - sum(mus)
        if grow <= 0:
            continue
        forms = []
        for mv, mu in zip(t.mvs, mus):
            rest = _without(mv, mu)
            if rest and rest[0] > mu + grow:
                break
            forms.append((mu + grow,) + rest)
        else:
            out.add(tuple(sorted(forms, reverse=True)))
    return [MvTuple(mvs) for mvs in sorted(out, key=lambda mvs: (sum(mvs[0]), mvs))]


def enumerate_rigid(n_max: int, p: int) -> list[MvTuple]:
    """All diagonal tuples of p + 1 forms and size <= n_max whose chain
    ends at size one.

    Generated as the closure of the inverse reduction steps from the
    size-one tuple, deduplicated up to reordering of eigenvalues and forms.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if p < 1:
        raise ValueError("p must be at least 1 (a tuple has p + 1 >= 2 forms)")
    seed = MvTuple(((1,),) * (p + 1))
    seen = {seed.mvs: seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for item in frontier:
            for ext in inverse_psi_extensions(item):
                if ext.n > n_max or ext.mvs in seen:
                    continue
                seen[ext.mvs] = ext
                nxt.append(ext)
        frontier = nxt
    return sorted(seen.values(), key=lambda m: (m.n, m.mvs))


def _series(d: int) -> list[MvTuple]:
    return [
        MvTuple.of([d, d], [d, d], [d, d], [d, d]),
        MvTuple.of([d] * 3, [d] * 3, [d] * 3),
        MvTuple.of([d] * 4, [d] * 4, [2 * d, 2 * d]),
        MvTuple.of([d] * 6, [2 * d] * 3, [3 * d] * 2),
    ]


def base_list(h: int, n_max: Optional[int] = None) -> list[MvTuple]:
    """Starting tuples of the rigidity-index machinery.

    h = 0 returns the four base tuples (the series at scale one); negative
    even h returns the four scaled series over all scale factors with size
    at most n_max.  Every returned tuple satisfies the rank inequality with
    equality.
    """
    if h == 0:
        return _series(1)
    if h > 0 or h % 2:
        raise UnsupportedIndexError("base lists exist for h = 0 or even h < 0")
    if n_max is None:
        raise ValueError("n_max is required for the scaled series")
    out = []
    d = 1
    while 2 * d <= n_max:
        for item in _series(d):
            if item.n <= n_max:
                out.append(item)
        d += 1
    return sorted(out, key=lambda m: (m.n, m.mvs))
