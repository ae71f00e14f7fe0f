"""critlocus benchmark: seeded command-line requests with planted answers.

    python3 perfbench/run.py --workload isolated-graded --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  One client drives ``critlocus.cli.main(argv)`` in this process
as a closed loop: the next request is sent when the previous one has
returned.  Each report is checked against the answer planted in its
request.  The loop runs whole passes over the workload's class cycle until
``--seconds`` of request time and at least ``MIN_SAMPLES`` requests are
done; the clock runs only inside ``main(argv)``, so generating a request
and checking its report are not timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes within the same time, prints per-layer metrics
per traced pass, and writes the spans to ``.bench_out/spans-<workload>.tsv``.
The last line of standard output is one JSON object.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from oracle import check  # noqa: E402
from spans import MODULES, ROOT_SPAN, Tracer  # noqa: E402
from workloads import CYCLES, stream  # noqa: E402

MIN_SAMPLES = 120  # so that at least ten samples lie beyond p90
SETUP_RUNS = 7

# Started in a fresh interpreter: import the CLI, answer one request, then
# say so.  The parent times the interval from spawn to that line.
SETUP_PROBE = """\
import contextlib, io, sys
import critlocus.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = critlocus.cli.main(sys.argv[1:])
print(status, flush=True)
"""


def call(cli, argv) -> tuple[int, str, str]:
    """Run one request in-process; an escaping exception exits with 1, as
    the console script would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            status = 1
    return status, out.getvalue(), err.getvalue()


def measure_setup(argv) -> float:
    """Median seconds from a fresh interpreter to the first answered request."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, *argv], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != b"0" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe answered {line!r}, exit {proc.returncode}")
    return statistics.median(times)


class Loop:
    """Outcome of one closed-loop run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.passes = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_pass(cli, requests, cycle_len: int, loop: Loop, tracer: Tracer | None = None) -> None:
    """Send one pass over the cycle, timing and checking each request."""
    for _ in range(cycle_len):
        req = next(requests)
        if tracer is not None:
            tracer.request_id += 1
        start = time.perf_counter()
        status, out, err = call(cli, req.argv)
        loop.latencies.append(time.perf_counter() - start)
        reason = check(req, status, out, err)
        if reason is not None:
            loop.failures.append(f"{req.label}: {reason} [{' '.join(req.argv)}]")
    loop.passes += 1


def drive(cli, requests, cycle_len: int, seconds: float) -> Loop:
    loop = Loop()
    while loop.busy_s < seconds or len(loop.latencies) < MIN_SAMPLES:
        run_pass(cli, requests, cycle_len, loop)
    return loop


def drive_traced(cli, requests, cycle_len: int, seconds: float) -> tuple[Loop, Loop, Tracer]:
    """Alternate untraced and traced passes, so that both see the same
    machine state and their difference is the tracing overhead."""
    untraced, traced, tracer = Loop(), Loop(), Tracer()
    while untraced.busy_s + traced.busy_s < seconds or len(traced.latencies) < MIN_SAMPLES:
        run_pass(cli, requests, cycle_len, untraced)
        tracer.install()
        try:
            run_pass(cli, requests, cycle_len, traced, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced, tracer


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    lat = loop.latencies
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(lat) / loop.busy_s, "1/s"),
        "request_s.p50": (statistics.median(lat), "s"),
        "request_s.p90": (statistics.quantiles(lat, n=10)[-1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Per-layer metrics read straight from the span summary: "<span>.<field>"
SPAN_METRICS = [
    "koszul.koszul_homology.calls",
    "koszul.koszul_homology.self_s",
    "koszul.koszul_homology.total_s",
    "koszul.de_rham_and_internal.calls",
    "koszul.de_rham_and_internal.self_s",
    "linalg.KernelTracker.insert.calls",
    "linalg.KernelTracker.insert.self_s",
    "linalg.EchelonAccumulator.reduce.calls",
    "linalg.EchelonAccumulator.reduce.self_s",
    "linalg.EchelonAccumulator.insert.calls",
    "linalg.EchelonAccumulator.insert.self_s",
    "linalg.invert.calls",
    "linalg.invert.self_s",
    "linalg.PolyMatrix.det.self_s",
    "groebner.buchberger.calls",
    "groebner.buchberger.self_s",
    "groebner.krull_dimension.self_s",
    "groebner.quotient_basis.calls",
    "groebner.quotient_basis.self_s",
    "groebner.hilbert_function.calls",
    "groebner.hilbert_function.self_s",
    "groebner.normal_form.calls",
    "groebner.is_unit_mod.calls",
    "critical.build_crit.calls",
    "critical.milnor_number.calls",
    "critical.lambda_equivalence_verdict.total_s",
    "critical.point_report.calls",
    "critical.point_report.self_s",
    "critical.validate_splitting.self_s",
    "critical.normal_hessian.self_s",
    "critical.phi_comparison.total_s",
    "symplectic.omega_minus_one.calls",
    "symplectic.omega_minus_one.self_s",
    "symplectic.zero_locus_one_form.self_s",
    "polynomials.parse_polynomial.calls",
    "polynomials.parse_polynomial.self_s",
    "polynomials.MultiPoly.partial.calls",
    "cli.request_from_args.self_s",
    "cli.run.self_s",
    "cli.AnalysisReport.render.self_s",
]


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop) -> dict[str, tuple[float, str]]:
    """Counts and seconds summed over the traced run, divided by its passes."""
    spans = tracer.summary()
    counts = tracer.counts
    passes = traced.passes

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        m[metric] = (span(name, field) / passes, "count" if field == "calls" else "s")
    m["koszul.slices"] = (counts["koszul.slices"] / passes, "count")
    m["koszul.nonzero_slice_ratio"] = (
        share(counts["koszul.nonzero_slices"], counts["koszul.slices"]), "ratio")
    m["koszul.filtered_calls"] = (span("koszul._filtered_homology", "calls") / passes, "count")
    m["linalg.KernelTracker.insert.independent_ratio"] = (
        share(counts["linalg.KernelTracker.insert.independent"],
              span("linalg.KernelTracker.insert", "calls")), "ratio")
    m["groebner.buchberger.basis_size"] = (  # mean generators per basis
        share(counts["groebner.buchberger.basis_size"], span("groebner.buchberger", "calls")),
        "count")
    # where the request time went, by module; these add up to trace.request_s
    for module in MODULES:
        own = sum(row["self_s"] for name, row in spans.items() if name.startswith(module + "."))
        m[f"{module}.self_s"] = (own / passes, "s")
    m["trace.request_s"] = (span(ROOT_SPAN, "total_s") / passes, "s")
    traced_rps = len(traced.latencies) / traced.busy_s
    untraced_rps = len(untraced.latencies) / untraced.busy_s
    m["trace.requests_per_s"] = (traced_rps, "1/s")
    m["trace.untraced_requests_per_s"] = (untraced_rps, "1/s")
    m["trace.overhead_ratio"] = ((untraced_rps - traced_rps) / untraced_rps, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "critlocus" / "cli.py").is_file():
        print(f"error: no engine source at {SRC}; run from a critlocus checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import critlocus.cli as cli

    cycle_len = len(CYCLES[args.workload])
    requests = stream(args.workload, args.seed)
    warm = next(requests)
    setup_s = 0.0 if args.trace else measure_setup(warm.argv)
    warm_failure = check(warm, *call(cli, warm.argv))

    if args.trace:
        loop, traced, tracer = drive_traced(cli, requests, cycle_len, args.seconds)
        metrics = per_layer(tracer, traced, loop)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}.tsv")
        runs = [loop, traced]
    else:
        loop = drive(cli, requests, cycle_len, args.seconds)
        metrics = end_to_end(loop, setup_s)
        runs = [loop]

    failures = ([f"warm-up: {warm_failure}"] if warm_failure else []) + [
        f for r in runs for f in r.failures]
    attempted = 1 + sum(len(r.latencies) for r in runs)
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)

    p90 = statistics.quantiles(loop.latencies, n=10)[-1]
    beyond = sum(1 for x in loop.latencies if x > p90)
    print(f"{args.workload} seed={args.seed}: {len(loop.latencies)} untraced requests in "
          f"{loop.passes} passes, {loop.busy_s:.2f} s of request time, {beyond} beyond p90")
    print(f"  {'failed_ratio':<48} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
