"""Seeded input generators for the three benchmark workloads.

Every workload is a *round*: a fixed composition of strata (op kind and
size), shuffled and filled with seeded data.  The seed changes the data
inside each stratum (weights, scale factors, eigenvalue exponents, block
shapes, base-list parameters) and the order of the ops, never the
composition, so the cost of a round barely depends on the seed.  The
generators emit only valid inputs: candidates the library rejects with
ConstraintViolation (repeated residues) or whose gluing constants do not
exist are redrawn, so a failed op always means a program fault.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from deligne_simpson import constructions
from deligne_simpson.constructions import MatrixTuple
from deligne_simpson.jnf import JnfTuple, JordanForm
from deligne_simpson.spectra import ConstraintViolation, ExponentAssignment

WORKLOADS = ("certify", "decide", "catalog")


@dataclass
class Op:
    """One timed operation: one CLI call, a construct+verify pair, or a
    library call (genericize has no subcommand)."""

    kind: str
    p: int
    size: int                     # n, or n_max for enumerate / base-list
    argv: list = field(default_factory=list)
    stdin: str = ""
    verify_argv: list = field(default_factory=list)   # certify: second call
    lib_args: tuple = ()                              # genericize arguments
    meta: dict = field(default_factory=dict)          # data for the checks

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.argv, self.stdin, self.verify_argv,
                           self.meta], sort_keys=True, default=str)


def _write(outdir: str, name: str, obj) -> str:
    """Write a JSON input file atomically; returns its path."""
    path = os.path.join(outdir, name)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    os.replace(tmp, path)
    return path


def _nilpotent_tuple(types) -> dict:
    return {"forms": [{"n": sum(t), "blocks": {"0": list(t)}} for t in types]}


# --------------------------------------------------------------------------
# certify: construct a witness, then verify it against its Jordan types

# Sizes are capped so that one round stays near 4 s: every op then repeats
# often enough in a run for the median of its times to be steady.  The
# small gallery sizes run twice, with different weights.
GALLERY = ([("ex1", n) for n in (6, 8, 10, 12)]
           + [("ex3", n) for n in (6, 8, 10, 12)]
           + [("ex7", n) for n in (5, 7, 9, 11)])
GALLERY_TWICE = [("ex1", 6), ("ex1", 8), ("ex3", 6), ("ex3", 8),
                 ("ex7", 5), ("ex7", 7)]
# every almost-special case at g = 2, and a1, b1 at g = 3
ALMOST = [(c, 2) for c in ("a1", "b1", "c1", "c2", "d1", "d2", "d3")] \
    + [("a1", 3), ("b1", 3)]
NICE = [(k, m0) for k in (2, 3) for m0 in (1, 2)]


def _certify_op(outdir, tag, construct_argv, types, n, irreducible):
    path = _write(outdir, "expected-%s.json" % tag, _nilpotent_tuple(types))
    return Op("certify", len(types) - 1, n, argv=construct_argv,
              verify_argv=["verify", "-", "--expected", path],
              meta={"n": n, "types": [list(t) for t in types],
                    "irreducible": irreducible})


def _gallery_op(outdir, ex, n, alphas=None):
    argv = ["construct", "--example", ex, "--n", str(n)]
    if alphas:
        argv += ["--alphas", ",".join(str(a) for a in alphas)]
    types = constructions.expected_example_types(ex, n)
    return _certify_op(outdir, "%s-%d" % (ex, n), argv, types, n, True)


def _almost_op(outdir, case, g):
    argv = ["construct", "--almost-special", case, "--g", str(g)]
    types = constructions.almost_special_types(case, g)
    n = sum(types[0])
    return _certify_op(outdir, "%s-g%d" % (case, g), argv, types, n, False)


def _nice_op(outdir, rng, k, m0):
    """Glue k inequivalent scaled ex2 blocks with an extra rank-m0 matrix.

    The glued tuple is block upper triangular, so its algebra is proper
    (dimension below n^2); its centralizer must still be trivial.  With
    m0 < 3 only the first block row carries gluing blocks, so each glued
    matrix is conjugate to the block diagonal one: types (3,)*k, and the
    extra matrix squares to zero with rank m0.
    """
    ex2 = constructions.make_example("ex2")
    while True:
        scales = rng.sample(range(1, 10), k)
        blocks = [MatrixTuple(tuple(m.scale(c) for m in ex2.mats), ex2.alphas)
                  for c in scales]
        try:
            constructions.build_nice(blocks, m0)
        except (constructions.EquivalentBlocksError,
                constructions.ScalingExhaustedError):
            continue
        break
    tag = "nice-%s-m%d" % ("_".join(map(str, scales)), m0)
    path = _write(outdir, "blocks-%s.json" % tag,
                  {"blocks": [b.to_dict() for b in blocks]})
    n = 3 * k
    types = [(3,) * k] * 3 + [(2,) * m0 + (1,) * (n - 2 * m0)]
    return _certify_op(outdir, tag,
                       ["construct", "--nice", path, "--m0", str(m0)],
                       types, n, False)


def certify_round(rng, outdir):
    ops = [_gallery_op(outdir, ex, n, rng.sample(range(1, 10), 3))
           for ex, n in GALLERY + GALLERY_TWICE]
    ops += [_almost_op(outdir, c, g) for c, g in ALMOST]
    ops += [_nice_op(outdir, rng, k, m0) for k, m0 in NICE]
    return ops


# --------------------------------------------------------------------------
# decide: structural and eigenvalue queries on random tuples

# p = 3 stops at n = 5: one full scan at n = 6 already takes about 2 s
DECIDE_STRATA = [(4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3)]
CHECKS_PER_STRATUM = 4
GENERICIZE_STRATA = [(4, 2), (5, 2), (6, 2), (4, 3)]
# the n = 6 lift costs 0.5-1.3 s depending on its residues, about a quarter
# of a round, so its residues are the same for every seed
FIXED_LIFTS = {(6, 2)}
PRIME_DENS = (998244353, 1000000007, 1000000009)   # generic: full scans
SMALL_DENS = (8, 9, 10, 12)                         # early violations
# one residue denominator: the shift search of a lift then costs about the
# same for every seed (with 7 or 13 its spread across seeds is 3x wider)
GENERICIZE_DEN = 11
GENERICIZE_H = 3


def _profile(n, p):
    """Multiplicity vectors: labels of multiplicity 1, except the first
    label of the last form, of multiplicity 2.  The profile fixes the
    cost of a full scan, so it is the same for every seed."""
    return [[1] * n] * p + [[2] + [1] * (n - 2)]


def _labels(mv):
    return ["e%d" % (i + 1) for i in range(len(mv))]


def _jnf_tuple(rng, mvs) -> dict:
    forms = []
    for mv in mvs:
        blocks = {lab: ([1] if m == 1 else rng.choice([[2], [1, 1]]))
                  for lab, m in zip(_labels(mv), mv)}
        forms.append({"n": sum(mv), "blocks": blocks})
    return {"forms": forms}


def _exponents(rng, mvs, version, den, residue=False, zero_first=False):
    """Exponents with distinct labels per form and the total constraint.

    The last multiplicity-1 label of the last form absorbs the constraint:
    an integer total (multiplicative, residues in [0, 1) when asked) or a
    zero total (additive).  With zero_first, label e1 of every form sums to
    0, which is the first relation a scan meets.  Rejected candidates are
    redrawn.
    """
    while True:
        values = []
        for mv in mvs:
            if version == "additive":
                nums = rng.sample(range(-3 * den, 3 * den), len(mv))
            else:
                nums = rng.sample(range(1, den), len(mv))
            values.append({lab: Fraction(k, den)
                           for lab, k in zip(_labels(mv), nums)})
        if zero_first:
            values[-1]["e1"] = -sum(vj["e1"] for vj in values[:-1])
        mults = [dict(zip(_labels(mv), mv)) for mv in mvs]
        fix = [lab for lab, m in mults[-1].items() if m == 1][-1]
        partial = sum((mults[j][lab] * v for j, vj in enumerate(values)
                       for lab, v in vj.items()
                       if (j, lab) != (len(mvs) - 1, fix)), Fraction(0))
        if version == "additive":
            values[-1][fix] = -partial
        elif residue:
            values[-1][fix] = (-partial) % 1
        else:
            values[-1][fix] = ceil(partial) - partial + rng.randint(0, 2)
        try:
            ExponentAssignment(version, values, mults)
        except ConstraintViolation:
            continue
        return values, mults


def _assignment_json(version, values, mults) -> dict:
    return {"version": version,
            "values": [{k: str(v) for k, v in vj.items()} for vj in values],
            "mults": mults}


def decide_round(rng, outdir=None):
    ops = []
    for n, p in DECIDE_STRATA:
        mvs = _profile(n, p)
        for _ in range(CHECKS_PER_STRATUM):
            ops.append(Op("check", p, n, argv=["check", "-"],
                          stdin=json.dumps(_jnf_tuple(rng, mvs))))
        tup = _jnf_tuple(rng, mvs)
        for dens in (PRIME_DENS, SMALL_DENS):
            a = _assignment_json("multiplicative",
                                 *_exponents(rng, mvs, "multiplicative",
                                             rng.choice(dens)))
            ops.append(Op("verdict", p, n, argv=["verdict", "-"],
                          stdin=json.dumps({"tuple": tup, "assignment": a}),
                          meta={"assignment": a}))
            a = _assignment_json("multiplicative",
                                 *_exponents(rng, mvs, "multiplicative",
                                             rng.choice(dens)))
            ops.append(Op("generic", p, n, argv=["generic", "-"],
                          stdin=json.dumps({"assignment": a}),
                          meta={"assignment": a}))
            # a small-denominator distance stops only at a zero relation,
            # so one is planted first in scan order: otherwise the seed
            # decides between an early exit and a full scan
            a = _assignment_json("additive",
                                 *_exponents(rng, mvs, "additive",
                                             rng.choice(dens),
                                             zero_first=dens is SMALL_DENS))
            ops.append(Op("distance", p, n, argv=["generic", "-", "--distance"],
                          stdin=json.dumps({"assignment": a}),
                          meta={"assignment": a}))
    for n, p in GENERICIZE_STRATA:
        mvs = _profile(n, p)
        lift_rng = random.Random("lift") if (n, p) in FIXED_LIFTS else rng
        values, _ = _exponents(lift_rng, mvs, "multiplicative", GENERICIZE_DEN,
                               residue=True)
        t = JnfTuple([JordanForm.diagonal(mv) for mv in mvs])
        ops.append(Op("genericize", p, n,
                      lib_args=(values, t, GENERICIZE_H),
                      meta={"residues": [{k: str(v) for k, v in vj.items()}
                                         for vj in values],
                            "mults": [dict(zip(_labels(mv), mv)) for mv in mvs],
                            "h": GENERICIZE_H}))
    return ops


# --------------------------------------------------------------------------
# catalog: rigid enumeration and base lists

# p = 3 stops at n_max = 7 and p = 4 at 5, which keeps a round near 4 s
ENUM_STRATA = ([(2, n) for n in range(6, 11)] + [(3, n) for n in range(5, 8)]
               + [(4, n) for n in range(4, 6)])
# the cheapest stratum of each p range twice more, and the base lists, give
# the round enough ops for a tail percentile with ten samples beyond it
ENUM_REPEATS = [(2, 6), (2, 7), (3, 5), (4, 4)] * 2
BASE_CALLS = 12


def _enumerate_op(p, n_max):
    return Op("enumerate", p, n_max,
              argv=["enumerate", "--rigidity", "2", "--n-max", str(n_max),
                    "--p", str(p)],
              meta={"p": p, "n_max": n_max})


def catalog_round(rng, outdir=None):
    ops = [_enumerate_op(p, n) for p, n in ENUM_STRATA + ENUM_REPEATS]
    for _ in range(BASE_CALLS):
        h = rng.choice((0, -2, -4, -6))
        n_max = rng.randint(4, 24)
        argv = ["enumerate", "--base-list", str(h)]
        if h:
            argv += ["--n-max", str(n_max)]
        ops.append(Op("base-list", 3, n_max if h else 0, argv=argv,
                      meta={"h": h, "n_max": n_max if h else None}))
    return ops


# --------------------------------------------------------------------------


def build_round(workload: str, seed: int, outdir: str):
    """The shuffled round of ops for a seed, and a seed-independent warm-up op."""
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    make = {"certify": certify_round, "decide": decide_round,
            "catalog": catalog_round}[workload]
    ops = make(rng, outdir)
    rng.shuffle(ops)
    if workload == "certify":
        warm = _gallery_op(outdir, "ex1", 6)
    elif workload == "decide":
        warm = decide_round(random.Random("warm-up"))[0]
    else:
        warm = _enumerate_op(2, 6)
    return ops, warm
