"""Size-reduction of Jordan form tuples and the solvability verdict engine.

The reduction map sends a tuple of Jordan forms of size n to one of size
n1 = r_1 + ... + r_{p+1} - n by shrinking, in every form, the smallest
blocks of an eigenvalue with the maximal block count.  Iterating it yields
a strictly decreasing chain of sizes whose terminal behaviour (the smallest
size satisfies the rank inequality, or equals one) decides solvability for
generic eigenvalues.  The quantity kappa with
sum of class dimensions = 2 n^2 - 2 + kappa is invariant along the chain;
2 - kappa is the index of rigidity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .jnf import JnfTuple, JordanForm, d_of, r_of


class NotReducibleError(ValueError):
    """Reduction step requested where its preconditions fail."""


@dataclass(frozen=True)
class ConditionReport:
    """Numeric conditions of a tuple at one size."""

    n: int
    sum_d: int
    sum_r: int
    alpha_holds: bool
    alpha_equality: bool
    beta_holds: bool
    omega_holds: bool
    kappa: int
    rigidity_index: int

    @staticmethod
    def of(n: int, ds: Sequence[int], rs: Sequence[int]) -> "ConditionReport":
        """Report of a tuple of size n from its class dimensions ds and
        rank defects rs, one per form."""
        sum_d, sum_r = sum(ds), sum(rs)
        kappa = sum_d - (2 * n * n - 2)
        return ConditionReport(
            n=n,
            sum_d=sum_d,
            sum_r=sum_r,
            alpha_holds=kappa >= 0,
            alpha_equality=kappa == 0,
            beta_holds=all(sum_r - rj >= n for rj in rs),
            omega_holds=sum_r >= 2 * n,
            kappa=kappa,
            rigidity_index=2 - kappa,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sum_d": self.sum_d,
            "sum_r": self.sum_r,
            "alpha_holds": self.alpha_holds,
            "alpha_equality": self.alpha_equality,
            "beta_holds": self.beta_holds,
            "omega_holds": self.omega_holds,
            "kappa": self.kappa,
            "rigidity_index": self.rigidity_index,
        }


@dataclass(frozen=True)
class ReductionChain:
    stages: tuple[tuple[JnfTuple, ConditionReport], ...]
    stop_reason: str  # omega-holds | beta-fails | size-one

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(t.n for t, _ in self.stages)

    @property
    def final(self) -> tuple[JnfTuple, ConditionReport]:
        return self.stages[-1]

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "stop_reason": self.stop_reason,
            "stages": [{"tuple": t.to_dict(), "report": r.to_dict()}
                       for t, r in self.stages],
        }


@dataclass(frozen=True)
class SpectraSummary:
    """Eigenvalue facts the verdict engine consumes.

    Unknown facts are None; the engine then only draws conclusions that do
    not need them.
    """

    version: str = "multiplicative"
    generic: Optional[bool] = None
    relatively_generic: Optional[bool] = None
    q: Optional[int] = None
    d: Optional[int] = None
    m0: Optional[int] = None
    xi_primitive: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "generic": self.generic,
            "relatively_generic": self.relatively_generic,
            "q": self.q,
            "d": self.d,
            "m0": self.m0,
            "xi_primitive": self.xi_primitive,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # SolvableIrreducible | SolvableTrivialCentralizer | NotSolvable | OpenCase
    theorem: Optional[str]
    notes: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "theorem": self.theorem, "notes": self.notes}


def condition_report(t: JnfTuple) -> ConditionReport:
    return ConditionReport.of(t.n, [d_of(f) for f in t.forms],
                              [r_of(f) for f in t.forms])


def _choose_label(form: JordanForm) -> str:
    """Eigenvalue with maximal block count; lexicographically least on ties."""
    best = None
    best_count = -1
    for label in form.labels:
        count = len(form.partition(label))
        if count > best_count or (count == best_count and label < best):
            best, best_count = label, count
    return best


def _shrink_form(form: JordanForm, label: str, k: int) -> JordanForm:
    """Decrease by one the k smallest blocks at the label; drop empty blocks."""
    blocks = {lab: list(p) for lab, p in form.blocks.items()}
    p = sorted(blocks[label])  # increasing: smallest first
    if k > len(p):
        raise NotReducibleError("not enough blocks to shrink")
    newp = [b - 1 for b in p[:k] if b - 1 > 0] + p[k:]
    if newp:
        blocks[label] = newp
    else:
        del blocks[label]
    if not blocks:
        raise NotReducibleError("form would vanish")
    return JordanForm(blocks)


def psi_step(t: JnfTuple, choices: Optional[Sequence[str]] = None) -> tuple[JnfTuple, int]:
    """One reduction step; returns the smaller tuple and its size n1.

    Preconditions: the rank inequality fails (sum r < 2n), the deleted-form
    inequalities hold (beta), and n > 1.  ``choices`` may force the chosen
    eigenvalue per form (used by the tie-independence tests); each must
    realize the maximal block count of its form.
    """
    rep = condition_report(t)
    if rep.omega_holds or not rep.beta_holds or t.n <= 1:
        raise NotReducibleError("reduction step preconditions fail")
    n = t.n
    n1 = rep.sum_r - n
    new_forms = []
    for idx, form in enumerate(t.forms):
        if choices is None:
            label = _choose_label(form)
        else:
            label = choices[idx]
            want = max(len(p) for p in form.blocks.values())
            if len(form.partition(label)) != want:
                raise NotReducibleError("choice does not have maximal block count")
        new_forms.append(_shrink_form(form, label, n - n1))
    return JnfTuple(new_forms), n1


def reduce_chain(t: JnfTuple) -> ReductionChain:
    """Full reduction chain with stop reason; kappa is constant along it."""
    stages = [(t, condition_report(t))]
    while True:
        cur, rep = stages[-1]
        if rep.omega_holds:
            return ReductionChain(tuple(stages), "omega-holds")
        if cur.n == 1:
            return ReductionChain(tuple(stages), "size-one")
        if not rep.beta_holds:
            return ReductionChain(tuple(stages), "beta-fails")
        nxt, _ = psi_step(cur)
        stages.append((nxt, condition_report(nxt)))


def chain_is_good(chain: ReductionChain) -> bool:
    """Solvability criterion for generic eigenvalues, read off the full
    reduction chain of the tuple.

    True iff the top-level alpha and beta inequalities hold and the chain
    ends in a stage satisfying the rank inequality or of size one.  Tuples
    of size one are good outright (deleted-form inequalities are vacuous
    there even though the formula reads 0 >= 1).
    """
    t, top = chain.stages[0]
    if t.n == 1:
        return True
    if not (top.alpha_holds and top.beta_holds):
        return False
    final_t, final_rep = chain.final
    return final_rep.omega_holds or final_t.n == 1


def is_good(t: JnfTuple) -> bool:
    """Solvability criterion for generic eigenvalues (see chain_is_good)."""
    return chain_is_good(reduce_chain(t))


_CONJ1 = ("open case: the dimension inequality holds with equality (kappa = 0); "
          "the criterion is conjectured necessary and sufficient when q = 1, "
          "while for q > 1 it is sometimes but not always sufficient")
_CONJ2 = ("open case: d > 1 with total class dimension exactly 2n^2 and a "
          "non-primitive unity root xi; conjecturally no tuples with trivial "
          "centralizer exist")


def verdict(t: JnfTuple, spectra: SpectraSummary) -> Verdict:
    """Decision table combining goodness with the eigenvalue facts."""
    rep = condition_report(t)
    good = is_good(t)
    if not good:
        return Verdict("NotSolvable", "Thm-necessary",
                       "the tuple is not good; no tuple with trivial centralizer exists")
    if spectra.generic:
        tag = "Thm-generic2" if (spectra.d or 0) > 1 else "Thm-generic1"
        return Verdict("SolvableIrreducible", tag,
                       "good tuple with generic eigenvalues")
    multiplicative = spectra.version == "multiplicative"
    if multiplicative and (spectra.d or 0) > 1 and spectra.xi_primitive:
        return Verdict("SolvableTrivialCentralizer", "Thm-suff",
                       "good tuple, d > 1, primitive xi")
    if multiplicative and (spectra.d or 0) > 1 and rep.sum_d >= 2 * t.n * t.n + 2:
        if spectra.relatively_generic:
            return Verdict("SolvableIrreducible", "Thm-suff1",
                           "good tuple, d > 1, dimension sum >= 2n^2 + 2, "
                           "relatively generic eigenvalues")
        return Verdict("SolvableTrivialCentralizer", "Thm-suff1",
                       "good tuple, d > 1, dimension sum >= 2n^2 + 2")
    if rep.alpha_equality:
        return Verdict("OpenCase", "Conjecture-1", _CONJ1)
    if (spectra.d or 0) > 1 and rep.sum_d == 2 * t.n * t.n and \
            multiplicative and spectra.xi_primitive is False:
        return Verdict("OpenCase", "Conjecture-2", _CONJ2)
    return Verdict("OpenCase", None,
                   "good tuple but the supplied eigenvalue facts decide nothing")
