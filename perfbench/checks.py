"""Independent output checks, run outside the timed region.

Each check re-derives what it can without the library: slot-level brute
force for relations and distances (n <= 5), a forward reduction on
multiplicity vectors for catalog records, exact zero sums of witnesses.
A failed check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm

BRUTE_N_MAX = 5
KNOWN_RIGID_COUNTS = {(2, 8): 89, (2, 10): 305}
BRUTE_ENUM_N_MAX = 6


class CheckFailed(AssertionError):
    pass


def require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


def _lines(output: str) -> list:
    try:
        return [json.loads(line) for line in output.splitlines()]
    except json.JSONDecodeError as exc:
        raise CheckFailed("output is not JSON lines: %s" % exc)


def check(op, codes, output: str) -> None:
    {"certify": _check_certify, "check": _check_check,
     "verdict": _check_verdict, "generic": _check_generic,
     "distance": _check_distance, "genericize": _check_genericize,
     "enumerate": _check_enumerate, "base-list": _check_base_list,
     }[op.kind](op, codes, output)


# --------------------------------------------------------------------------
# certify


def _check_certify(op, codes, output):
    require(codes == (0, 0), "construct/verify exit codes %s", codes)
    lines = _lines(output)
    require(len(lines) == 2, "expected witness and report, got %d lines",
            len(lines))
    witness, report = lines
    n, types = op.meta["n"], op.meta["types"]
    mats = witness["mats"]
    require(len(mats) == len(types), "witness has %d matrices, want %d",
            len(mats), len(types))
    total = [[Fraction(0)] * n for _ in range(n)]
    for m in mats:
        require(m["n"] == n and len(m["entries"]) == n, "matrix size != %d", n)
        for i, row in enumerate(m["entries"]):
            for j, x in enumerate(row):
                total[i][j] += Fraction(x)
    require(all(x == 0 for row in total for x in row), "matrices do not sum to 0")
    require(report["centralizer_dim"] == 1, "centralizer_dim %s",
            report["centralizer_dim"])
    require(report["jordan_types"] == types, "jordan types %s, want %s",
            report["jordan_types"], types)
    require(report["types_match"] is True, "types_match is not true")
    dim = report["algebra_dim"]
    if op.meta["irreducible"]:
        require(dim == n * n, "algebra_dim %d, want %d", dim, n * n)
    else:
        require(dim < n * n, "algebra_dim %d, want < %d", dim, n * n)


# --------------------------------------------------------------------------
# decide: slot-level brute force


def _scaled_slots(assignment):
    """Per form, the slot values scaled to integers by a common denominator."""
    values = [{k: Fraction(v) for k, v in vj.items()}
              for vj in assignment["values"]]
    offsets = assignment.get("offsets") or {}
    den = 1
    for vj in values:
        for v in vj.values():
            den = lcm(den, v.denominator)
    slots = []
    for j, (vj, mj) in enumerate(zip(values, assignment["mults"])):
        row = []
        for lab in sorted(vj):
            offs = offsets.get(lab, []) if j == len(values) - 1 else []
            for i in range(mj[lab]):
                o = offs[i] if i < len(offs) else 0
                row.append(int((vj[lab] + o) * den))
        slots.append(row)
    return slots, den


def brute_integer_relations(assignment) -> set:
    """All integer values of relations: kappa slots from every form, 1 <= kappa < n."""
    slots, den = _scaled_slots(assignment)
    n = len(slots[0])
    out = set()
    for kappa in range(1, n):
        sums = {0}
        for row in slots:
            picks = {sum(c) for c in combinations(row, kappa)}
            sums = {s + t for s in sums for t in picks}
        out.update(s // den for s in sums if s % den == 0)
    return out


def brute_distance(assignment):
    vals = brute_integer_relations(assignment)
    return min(abs(v) for v in vals) if vals else None


def _assignment_n(assignment) -> int:
    return sum(assignment["mults"][0].values())


def _check_relation(assignment, rel):
    """Re-evaluate a returned relation against the exponents."""
    values = [{k: Fraction(v) for k, v in vj.items()}
              for vj in assignment["values"]]
    mults = assignment["mults"]
    kappa, counts = rel["kappa"], rel["counts"]
    require(1 <= kappa < _assignment_n(assignment), "kappa %d out of range", kappa)
    require(len(counts) == len(values), "relation has %d forms", len(counts))
    total = Fraction(0)
    for vj, mj, cj in zip(values, mults, counts):
        require(sum(cj.values()) == kappa, "counts %s do not sum to kappa", cj)
        for lab, c in cj.items():
            require(lab in mj and 0 < c <= mj[lab], "bad count %s=%s", lab, c)
            total += c * vj[lab]
    require(total == Fraction(rel["value"]), "relation value %s, recomputed %s",
            rel["value"], total)
    require(total.denominator == 1, "relation value %s is not violated", total)
    require(rel["defect"] == int(total), "defect %s", rel["defect"])


def _check_check(op, codes, output):
    (code,) = codes
    (out,) = _lines(output)
    require(isinstance(out["good"], bool), "good is not a bool")
    require(code == (0 if out["good"] else 1), "exit %d with good=%s",
            code, out["good"])


def _check_verdict(op, codes, output):
    (code,) = codes
    (out,) = _lines(output)
    status = out["verdict"]["status"]
    require(code == (1 if status == "NotSolvable" else 0), "exit %d for %s",
            code, status)
    generic = out["spectra"]["generic"]
    require(isinstance(generic, bool), "spectra.generic is not a bool")
    a = op.meta["assignment"]
    if _assignment_n(a) <= BRUTE_N_MAX:
        require(generic == (not brute_integer_relations(a)),
                "generic=%s disagrees with brute force", generic)


def _check_generic(op, codes, output):
    (code,) = codes
    (out,) = _lines(output)
    a = op.meta["assignment"]
    rel = out["relation"]
    require(out["generic"] == (rel is None), "generic flag and relation disagree")
    require(code == (0 if rel is None else 1), "exit %d", code)
    if rel is not None:
        _check_relation(a, rel)
    elif _assignment_n(a) <= BRUTE_N_MAX:
        require(not brute_integer_relations(a),
                "generic but brute force finds a violated relation")


def _check_distance(op, codes, output):
    (code,) = codes
    (out,) = _lines(output)
    d = out["distance"]
    require(code == (0 if d is None else 1), "exit %d for distance %s", code, d)
    a = op.meta["assignment"]
    if _assignment_n(a) <= BRUTE_N_MAX:
        want = brute_distance(a)
        require(d == want, "distance %s, brute force %s", d, want)


def _check_genericize(op, codes, output):
    require(codes == (0,), "genericize failed")
    (a,) = _lines(output)
    meta = op.meta
    require(a["version"] == "additive", "lift is not additive")
    require(a["mults"] == meta["mults"], "multiplicities changed")
    slots, den = _scaled_slots(a)
    require(sum(sum(row) for row in slots) == 0, "lift total is not 0")
    for vj, rj in zip(a["values"], meta["residues"]):
        for lab, r in rj.items():
            require((Fraction(vj[lab]) - Fraction(r)).denominator == 1,
                    "residue of %s not preserved", lab)
    for offs in (a.get("offsets") or {}).values():
        require(set(offs) <= {0, -1}, "last-form splits %s", offs)
    if _assignment_n(a) <= BRUTE_N_MAX:
        d = brute_distance(a)
        require(d is None or d >= meta["h"], "lift distance %s < h = %d",
                d, meta["h"])


# --------------------------------------------------------------------------
# catalog: forward reduction on multiplicity vectors


def report_of(mvs) -> dict:
    """The condition report of a diagonal tuple, from multiplicities alone."""
    n = sum(mvs[0])
    ds = [n * n - sum(m * m for m in mv) for mv in mvs]
    rs = [n - max(mv) for mv in mvs]
    sum_d, sum_r = sum(ds), sum(rs)
    kappa = sum_d - (2 * n * n - 2)
    return {"n": n, "sum_d": sum_d, "sum_r": sum_r,
            "alpha_holds": kappa >= 0, "alpha_equality": kappa == 0,
            "beta_holds": all(sum_r - r >= n for r in rs),
            "omega_holds": sum_r >= 2 * n, "kappa": kappa,
            "rigidity_index": 2 - kappa}


def reduces_to_one(mvs) -> bool:
    """Forward chain: shrink the largest multiplicity of every form by
    n - n1 while the rank inequality fails and the deleted-form
    inequalities hold; True iff the chain reaches size one."""
    mvs = [sorted(mv, reverse=True) for mv in mvs]
    while True:
        n = sum(mvs[0])
        if n == 1:
            return True
        rs = [n - mv[0] for mv in mvs]
        sum_r = sum(rs)
        if sum_r >= 2 * n or any(sum_r - r < n for r in rs):
            return False
        k = n - (sum_r - n)
        mvs = [sorted([m for m in [mv[0] - k] + mv[1:] if m > 0], reverse=True)
               for mv in mvs]


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


_BRUTE_COUNTS: dict = {}


def brute_rigid_count(p: int, n_max: int) -> int:
    key = (p, n_max)
    if key not in _BRUTE_COUNTS:
        _BRUTE_COUNTS[key] = sum(
            1 for n in range(1, n_max + 1)
            for mvs in combinations_with_replacement(list(_partitions(n)), p + 1)
            if reduces_to_one(mvs))
    return _BRUTE_COUNTS[key]


def _check_records(records, p=None):
    seen = set()
    for rec in records:
        mvs = rec["mvs"]
        require(p is None or len(mvs) == p + 1, "record has %d forms", len(mvs))
        require(all(sum(mv) == rec["n"] for mv in mvs), "sizes differ in %s", mvs)
        require(rec["report"] == report_of(mvs), "report of %s differs", mvs)
        key = tuple(sorted(tuple(sorted(mv)) for mv in mvs))
        require(key not in seen, "duplicate record %s", mvs)
        seen.add(key)


def _check_enumerate(op, codes, output):
    require(codes == (0,), "exit codes %s", codes)
    records = _lines(output)
    p, n_max = op.meta["p"], op.meta["n_max"]
    _check_records(records, p)
    for rec in records:
        require(rec["n"] <= n_max, "record of size %d > n_max", rec["n"])
        require(rec["report"]["rigidity_index"] == 2, "rigidity index != 2")
        require(reduces_to_one(rec["mvs"]), "%s does not reduce to size one",
                rec["mvs"])
    want = KNOWN_RIGID_COUNTS.get((p, n_max))
    if want is None and n_max <= BRUTE_ENUM_N_MAX:
        want = brute_rigid_count(p, n_max)
    if want is not None:
        require(len(records) == want, "%d rigid tuples, want %d",
                len(records), want)


def _base_list_count(h, n_max) -> int:
    if h == 0:
        return 4
    return sum(1 for d in range(1, n_max // 2 + 1)
               for size in (2 * d, 3 * d, 4 * d, 6 * d) if size <= n_max)


def _check_base_list(op, codes, output):
    require(codes == (0,), "exit codes %s", codes)
    records = _lines(output)
    _check_records(records)
    for rec in records:
        require(rec["report"]["sum_r"] == 2 * rec["n"],
                "rank inequality not an equality for %s", rec["mvs"])
    want = _base_list_count(op.meta["h"], op.meta["n_max"])
    require(len(records) == want, "%d base tuples, want %d", len(records), want)
