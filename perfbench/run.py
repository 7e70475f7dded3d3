#!/usr/bin/env python3
"""End-to-end benchmark of the dsp engine.

    python3 perfbench/run.py --workload {certify,decide,catalog} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from the ``src`` directory next
to this one.  Ops drive the real CLI path in-process: ``cli.main(argv)``
with stdin and stdout redirected (``genericize`` has no subcommand and is
called through the library).  The load is a closed loop: one client in
one process, no threads, each op waits for the previous one.

A workload is a seeded round of ops (see workloads.py).  The untraced run
(``--trace 0``) repeats whole rounds while another round still fits into
``--seconds`` of measured op time (at least one round), checks every
output outside the timed region, and prints the end-to-end metrics from
each op's latency corrected for the host's speed (see untraced()).  The
traced run (``--trace 1``) runs the round untraced, then once more with
the layer wrappers of spans.py installed, requires byte-identical
outputs, and prints the per-layer metrics, the tracing overhead and the
latency-vs-size curves.  The last stdout line is the result object; the
exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# host_probe() time on the reference machine (2 vCPUs, Python 3.11.7) when
# no other tenant slows it down; scaled latencies are in its milliseconds
PROBE_NOMINAL_S = 1.3e-3
TAIL_BEYOND = 10

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def _import_library():
    """Import deligne_simpson from the sources next to the benchmark, or exit 2."""
    pkg = SRC / "deligne_simpson"
    if not (pkg / "__init__.py").is_file():
        sys.stderr.write("perfbench: library sources not found at %s\n" % pkg)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import deligne_simpson
    if Path(deligne_simpson.__file__).resolve().parent != pkg.resolve():
        sys.stderr.write("perfbench: imported deligne_simpson from %s\n"
                         % deligne_simpson.__file__)
        sys.exit(2)


_import_library()

from deligne_simpson import cli, spectra  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402


def call_cli(argv, stdin: str, tracer=None):
    """Run ``dsp argv`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin), out
    try:
        code = cli.main(argv)
    except SystemExit as exc:      # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin, sys.stdout = saved
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.bytes_out"] += len(text.encode())
    return code, text


def execute(op, tracer=None):
    """One op; returns (exit codes, output text).  Exceptions propagate."""
    if op.kind == "genericize":
        residues, t, h = op.lib_args
        lift = spectra.genericize(residues, t, h, mode="A")
        return (0,), json.dumps(lift.to_dict(), sort_keys=True) + "\n"
    code, text = call_cli(op.argv, op.stdin, tracer)
    if op.kind != "certify":
        return (code,), text
    code2, report = call_cli(op.verify_argv, text, tracer)
    return (code, code2), text + report


def host_probe() -> float:
    """Time of a fixed pure-Python loop that shares no code with the library."""
    t0 = time.perf_counter()
    d = {}
    for i in range(6000):
        k = (i % 61, i % 7)
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


class Runner:
    """Times ops and checks their outputs once per distinct output."""

    def __init__(self, ops):
        self.ops = ops
        self.keys = [op.key for op in ops]
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def _fail(self, op, msg):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append("%s p=%d size=%d: %s" % (op.kind, op.p, op.size, msg))

    def run_op(self, i, tracer=None):
        """Time op i; returns (latency, digest or None on failure)."""
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            codes, text = execute(op, tracer)
        except Exception as exc:     # a crash of the program is a failed op
            dt = time.perf_counter() - t0
            self._fail(op, "raised %s: %s" % (type(exc).__name__, exc))
            return dt, None
        dt = time.perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.get(self.keys[i])
        if first is None:
            try:
                checks.check(op, codes, text)
            except checks.CheckFailed as exc:
                self._fail(op, "check failed: %s" % exc)
                return dt, None
            except (KeyError, TypeError, ValueError) as exc:
                self._fail(op, "malformed output: %r" % exc)
                return dt, None
            self.digests[self.keys[i]] = digest
        elif first != digest:
            self._fail(op, "output differs from an earlier run of the same input")
            return dt, None
        return dt, digest

    def run_round(self, tracer=None):
        """All ops once, each bracketed by host_probe() runs.

        Returns per-op raw latencies, host-corrected latencies (scaled by
        PROBE_NOMINAL_S over the mean of the two bracketing probe times),
        output digests, and the probe times.
        """
        lat, cor, digs, probes = [], [], [], []
        before = host_probe()
        for i in range(len(self.ops)):
            if tracer is not None:
                tracer.op_id = i
            dt, dig = self.run_op(i, tracer)
            after = host_probe()
            lat.append(dt)
            cor.append(dt * 2 * PROBE_NOMINAL_S / (before + after))
            digs.append(dig)
            probes.append(after)
            before = after
        return lat, cor, digs, probes


def setup_times(args, count) -> list:
    """Wall time from spawning a fresh workload process until it is ready to
    run its first timed op (interpreter start, import, input generation,
    one warm-up op), measured count times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=str(HERE.parent)) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("setup probe failed (exit %s)" % proc.returncode)
        samples.append(t1 - t0)
    return samples


def prepare(args):
    """Input generation and one untimed warm-up op."""
    ops, warm = build_round(args.workload, args.seed, str(OUT))
    warm_runner = Runner([warm])
    warm_runner.run_op(0)
    return ops, warm_runner


def size_curves(ops, latencies) -> list:
    by_key = defaultdict(list)
    for op, dt in zip(ops, latencies):
        by_key[(op.kind, op.p, op.size)].append(dt)
    return [{"kind": k, "p": p, "n": n, "count": len(v),
             "median_ms": statistics.median(v) * 1e3}
            for (k, p, n), v in sorted(by_key.items())]


def latency_metrics(per_op) -> dict:
    m = len(per_op)
    return {"ops_per_s": m / sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": sorted(per_op)[m - TAIL_BEYOND - 1] * 1e3}


def untraced(args, ops, runner):
    """Whole rounds while another one fits into --seconds of op time.

    The machine's speed drifts under contention from other tenants, by up
    to 2x within seconds.  So each op reports the median over the rounds
    of its host-corrected latency (see Runner.run_round); the raw figures
    go to the info line.
    """
    m = len(ops)
    raw, scaled, probes = [], [], []
    setup = setup_times(args, 2)
    measured = 0.0
    while True:
        lat, cor, _, probe = runner.run_round()
        probes += probe
        raw.append(lat)
        scaled.append(cor)
        measured += sum(lat)
        setup += setup_times(args, 1)
        if measured + sum(lat) > args.seconds:
            break
    metrics = latency_metrics([statistics.median(c) for c in zip(*scaled)])
    metrics.update({
        "setup_s": statistics.median(setup),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(raw),
            "ops_per_round": m, "tail_percentile": 100 * (m - TAIL_BEYOND) / m,
            "tail_samples": m, "failed_frac": runner.failed / runner.attempted,
            "measured_s": measured, "setup_samples_s": setup,
            "probe_median_ms": statistics.median(probes) * 1e3,
            "raw": latency_metrics([statistics.median(c) for c in zip(*raw)])}
    return {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()}, info


def traced(args, ops, runner):
    """A checking round, an untraced round, then the traced round; the
    overhead compares the host-corrected times of the last two."""
    runner.run_round()
    _, untraced_cor, plain, _ = runner.run_round()
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_cor, with_trace, _ = runner.run_round(tracer)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = sum(untraced_cor), sum(traced_cor)
    mismatched = sum(1 for a, b in zip(plain, with_trace) if a != b)
    if mismatched:
        runner.errors.append("%d ops gave different output under tracing"
                             % mismatched)
        runner.failed += mismatched
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = traced_s - untraced_s
    curves = size_curves(ops, untraced_cor)
    stem = OUT / ("trace-%s-seed%d" % (args.workload, args.seed))
    tracer.write(str(stem), {"workload": args.workload, "seed": args.seed,
                             "metrics": layer, "size_curves": curves,
                             "untraced_s": untraced_s, "traced_s": traced_s})
    info = {"workload": args.workload, "seed": args.seed,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "trace_file": str(stem.relative_to(HERE.parent)) + ".json",
            "size_curves": curves}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}, info


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="generate inputs, run the warm-up op, print 'ready'")
    args = ap.parse_args(argv)

    if args.setup_probe:
        _, warm = prepare(args)
        print("ready", flush=True)
        return 0 if warm.failed == 0 else 1

    ops, warm = prepare(args)
    runner = Runner(ops)
    runner.failed += warm.failed
    runner.errors += warm.errors
    if args.trace:
        metrics, info = traced(args, ops, runner)
    else:
        metrics, info = untraced(args, ops, runner)
    for err in runner.errors:
        sys.stderr.write("perfbench: %s\n" % err)
    correct = runner.failed == 0
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
