"""Command-line front end: JSON in, JSON out, deterministic.

Exit codes: 0 success, 1 negative decision (not good, not generic,
verification failed), 2 input error.  Every output line is valid JSON with
sorted keys, so identical inputs give byte-identical outputs.  The
environment variable DSP_MAX_N (default 12) caps the size of relation
scans, which are exponential in the worst case.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import UnsupportedIndexError, base_list, enumerate_rigid
from .constructions import (
    MatrixTuple,
    ScalingExhaustedError,
    build_almost_special,
    build_nice,
    make_example,
    make_merged,
    verify_tuple,
)
from .exactmat import json_list, rat_from_str
from .jnf import JnfTuple, PreconditionViolation, classify_family
from .reduction import SpectraSummary, chain_is_good, reduce_chain, verdict
from .spectra import (
    ConstraintViolation,
    ExponentAssignment,
    distance,
    find_relation,
    is_relatively_generic,
    spectra_invariants,
)

DEFAULT_MAX_N = 12


class InputError(ValueError):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InputError("%s must hold a JSON object"
                         % ("stdin" if path == "-" else path))
    return data


def _scan_cap() -> int:
    try:
        return int(os.environ.get("DSP_MAX_N", DEFAULT_MAX_N))
    except ValueError:
        return DEFAULT_MAX_N


def _check_scan_size(n: int) -> None:
    cap = _scan_cap()
    if n > cap:
        raise InputError(
            "relation scan needs n <= %d (DSP_MAX_N); got n = %d" % (cap, n))


def _parse(what: str, from_dict, d):
    """from_dict(d), reporting malformed input as an InputError."""
    try:
        return from_dict(d)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError("bad %s: %s" % (what, exc))


def _tuple_from(d) -> JnfTuple:
    return _parse("Jordan form tuple", JnfTuple.from_dict, d)


def _assignment_from(d) -> ExponentAssignment:
    return _parse("exponent assignment", ExponentAssignment.from_dict, d)


def _matrix_tuple_from(d) -> MatrixTuple:
    return _parse("matrix tuple", MatrixTuple.from_dict, d)


def _alphas_from(text):
    if not text:
        return None
    return [rat_from_str(x) for x in text.split(",")]


# --------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    t = _tuple_from(_load(args.input))
    chain = reduce_chain(t)
    good = chain_is_good(chain)
    _emit({"good": good, "n_s": chain.final[0].n, "chain": chain.to_dict()})
    return 0 if good else 1


def cmd_reduce(args) -> int:
    t = _tuple_from(_load(args.input))
    _emit(reduce_chain(t).to_dict())
    return 0


def cmd_spectra(args) -> int:
    data = _load(args.input)
    t = _tuple_from(data["tuple"])
    a = _assignment_from(data["assignment"])
    inv = spectra_invariants(t, a)
    _emit(inv.to_dict())
    return 0


def cmd_generic(args) -> int:
    data = _load(args.input)
    a = _assignment_from(data["assignment"] if "assignment" in data else data)
    _check_scan_size(a.n)
    if args.distance:
        d = distance(a, exclude_gamma_star=args.exclude_gamma_star)
        _emit({"distance": d})
        return 0 if d is None else 1
    rel = find_relation(a, mode=args.mode, kappa_min=args.kappa_min)
    _emit({"generic": rel is None,
           "relation": rel.to_dict() if rel else None})
    return 0 if rel is None else 1


def cmd_verdict(args) -> int:
    data = _load(args.input)
    t = _tuple_from(data["tuple"])
    summary = SpectraSummary()
    if data.get("assignment"):
        a = _assignment_from(data["assignment"])
        _check_scan_size(a.n)
        inv = spectra_invariants(t, a)
        generic = find_relation(a) is None
        rel_gen = None
        if inv.q > 1 and not inv.xi_primitive:
            rel_gen = is_relatively_generic(a, inv)
        summary = SpectraSummary(
            version=a.version, generic=generic, relatively_generic=rel_gen,
            q=inv.q, d=inv.d, m0=inv.m0, xi_primitive=inv.xi_primitive)
    v = verdict(t, summary)
    _emit({"verdict": v.to_dict(), "spectra": summary.to_dict()})
    return 1 if v.status == "NotSolvable" else 0


def cmd_classify(args) -> int:
    t = _tuple_from(_load(args.input))
    _emit(classify_family(t).to_dict())
    return 0


def cmd_construct(args) -> int:
    alphas = _alphas_from(args.alphas)
    if args.example:
        out = make_example(args.example, args.n, alphas)
    elif args.almost_special:
        out = build_almost_special(args.almost_special, args.g, alphas)
    elif args.nice:
        data = _load(args.nice)
        blocks = [_matrix_tuple_from(b) for b in json_list(data["blocks"])]
        out = build_nice(blocks, args.m0, alphas)
    else:
        raise InputError("construct needs --example, --almost-special or --nice")
    _emit(out.to_dict())
    return 0


def cmd_merge(args) -> int:
    a, ap, am = make_merged(args.n, args.r1, args.r2)
    _emit({"a": a.to_dict(), "a_prime": ap.to_dict(), "merged": am.to_dict()})
    return 0


def cmd_verify(args) -> int:
    t = _matrix_tuple_from(_load(args.input))
    expected = None
    if args.expected:
        expected = _tuple_from(_load(args.expected))
    rep = verify_tuple(t, expected)
    _emit(rep.to_dict())
    return 0 if rep.passed else 1


def cmd_enumerate(args) -> int:
    if args.base_list is not None:
        items = base_list(args.base_list, args.n_max)
    elif args.rigidity == 2:
        if args.n_max is None:
            raise InputError("enumerate needs --n-max")
        items = enumerate_rigid(args.n_max, args.p)
    else:
        raise InputError("only --rigidity 2 or --base-list are enumerable")
    for item in items:
        _emit(item.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dsp",
        description="Exact decision engine and witness constructions for "
                    "tuples of conjugacy classes with prescribed product or sum")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="goodness decision with the reduction chain")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="reduction chain only")
    p.add_argument("input")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("spectra", help="eigenvalue invariants q, d, m0, xi")
    p.add_argument("input")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("generic", help="relation scan or distance")
    p.add_argument("input")
    p.add_argument("--mode", choices=["generic", "strongly-generic"],
                   default="strongly-generic")
    p.add_argument("--kappa-min", type=int, default=1)
    p.add_argument("--distance", action="store_true")
    p.add_argument("--exclude-gamma-star", action="store_true")
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("verdict", help="solvability decision")
    p.add_argument("input")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("classify", help="taxonomy of a nilpotent profile")
    p.add_argument("input")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="build a witness tuple")
    p.add_argument("--example", choices=["ex%d" % i for i in range(8)])
    p.add_argument("--n", type=int)
    p.add_argument("--almost-special",
                   choices=["a1", "b1", "c1", "c2", "d1", "d2", "d3"])
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--nice", metavar="BLOCKS_JSON",
                   help="path to {\"blocks\": [matrix tuples]}")
    p.add_argument("--m0", type=int, default=1)
    p.add_argument("--alphas", help="comma-separated weights")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("merge", help="superdiagonal merge of two minimal orbits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("verify", help="certified verification of a tuple")
    p.add_argument("input")
    p.add_argument("--expected", help="Jordan form tuple to compare against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="catalog streams")
    p.add_argument("--rigidity", type=int, default=2)
    p.add_argument("--n-max", type=int)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--base-list", type=int, dest="base_list")
    p.set_defaults(func=cmd_enumerate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ConstraintViolation, PreconditionViolation,
            UnsupportedIndexError, ScalingExhaustedError, KeyError,
            ValueError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
