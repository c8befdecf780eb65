"""formlab benchmark: seeded workloads through the public API and the CLI.

    python3 bench/run.py --workload census --seed 0 --seconds 32 --trace 0

One process, one thread, one client in a closed loop: the next operation
starts only when the previous one has returned and been checked.  Checks
and input generation are never timed.  A run measures whole rounds until
--seconds of wall time (checks included) have passed.

--trace 0 reports the end-to-end metrics (END_TO_END), under the same
names for every workload:
  setup_s      median wall time over SETUP_REPEATS fresh interpreters that
               import formlab and build the catalog of every (n, k) the
               workloads consult, started between rounds across the run;
  ops_per_s    operations run / the sum of their latencies;
  p50_ms       median operation latency;
  tail_ms      latency at the workload's TAIL_PCT percentile, which keeps at
               least 10 samples beyond it; the run goes on until it has them;
  peak_rss_mb  peak resident memory of this process.
Every time is rescaled to a fixed host speed (see run_end_to_end); the
unscaled figures are printed as detail lines.
--trace 1 replays a fixed list of operations, alternating untraced and
traced passes, and reports the per-layer metrics of tracing.per_layer_metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details go to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN = BENCH / "golden"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The host's speed is sampled with reference_kernel() at most this often,
# and every time metric is rescaled to the speed at which that kernel takes
# REFERENCE_MS (see run_end_to_end()).
REFERENCE_EVERY_S = 0.25
REFERENCE_MS = 10.0

# The --trace 0 metrics and their units; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from formlab import catalog_entries
for n, k in eval(sys.argv[2]):
    catalog_entries(n, k)
"""


def load_formlab():
    """Import formlab from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import formlab
    except ImportError as exc:
        sys.exit(f"error: cannot import formlab from {SRC}: {exc}")
    if Path(formlab.__file__).resolve().parent != SRC / "formlab":
        sys.exit(f"error: formlab was imported from {formlab.__file__}, not {SRC}")
    return formlab


def machine_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def tail_rank(pct: int, samples: int) -> int:
    """Nearest rank of the pct-th percentile: ceil(pct * samples / 100)."""
    return -(-pct * samples // 100)


def tail_ready(pct: int, samples: int) -> bool:
    return samples - tail_rank(pct, samples) >= TAIL_BEYOND


def measure_setup(pairs) -> float:
    """Wall time of one fresh interpreter that imports formlab and builds the catalogs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), repr(list(pairs))],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def reference_kernel() -> float:
    """Seconds taken by a fixed rational elimination that runs no formlab code.

    Pure-Python Fraction arithmetic on lists, like formlab's kernels, so a
    change in the shared host's speed moves it as it moves them.  The
    collector is off while it runs, so the size of formlab's heap does not
    reach it.  The matrix is strictly diagonally dominant: no pivot is 0.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for rep in range(8):
        a = [
            [Fraction((7 * i + 3 * j + rep) % 11 - 5, 1 + (i + j) % 4) + 40 * (i == j) for j in range(7)]
            for i in range(7)
        ]
        for c in range(7):
            for r in range(c + 1, 7):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Golden:
    """Expected digests for the default seed; other seeds rely on the checks."""

    def __init__(self, workload: str, seed: int):
        path = GOLDEN / f"{workload}.json"
        data = json.loads(path.read_text()) if path.exists() else {"seed": None}
        self.active = data["seed"] == seed
        self.digests = data.get("digests", []) if self.active else []

    def problems(self, index: int, digest: str) -> list[str]:
        if index < len(self.digests) and self.digests[index] != digest:
            return [f"digest {digest} differs from the golden {self.digests[index]}"]
        return []


class Ledger:
    """Counts every attempted operation; a failed check is kept, not dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"index": op.index, "kind": op.kind, "problems": problems})

    @property
    def failed(self) -> int:
        return len(self.failures)


def execute(W, op, workdir, ledger: Ledger, golden: Golden, call=None, want=None):
    """Run one operation, time it, check it.  Returns (seconds, digest).

    call(index, fn, arg) -> (result, seconds) replaces the plain timer in
    traced passes.  want, when given, is the digest of an earlier checked
    run of the same operation; matching it stands in for the checks.
    """
    arg = W.prepare(op, workdir)
    try:
        if call is None:
            start = time.perf_counter()
            result = W.run(arg)
            seconds = time.perf_counter() - start
        else:
            result, seconds = call(op.index, W.run, arg)
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        ledger.record(op, [f"raised {type(exc).__name__}: {exc}"])
        return 0.0, None
    digest = W.digest(op, result)
    if want is None:
        problems = W.check(op, result) + golden.problems(op.index, digest)
    else:
        problems = [] if digest == want else ["output differs from the first untraced pass"]
    ledger.record(op, problems)
    return seconds, digest


def summarize(latencies: list[float], setups: list[float], tail_pct: int) -> dict:
    """The time metrics of END_TO_END, from latencies and set-up times in seconds."""
    tail_s = sorted(latencies)[tail_rank(tail_pct, len(latencies)) - 1]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "tail_ms": (tail_s * 1000, "ms"),
    }


def run_end_to_end(W, seed: int, seconds: float, workdir: Path, setup_pairs) -> dict:
    """Measure whole rounds for `seconds` of wall time, checks included.

    The SETUP_REPEATS set-up interpreters are spread evenly over the run,
    each at the start of a round, so that setup_s samples the same stretch
    of time as the operations do.

    Between operations, at most every REFERENCE_EVERY_S, the run also times
    reference_kernel().  Fixed work on a shared host runs up to 1.5 times
    slower for seconds to minutes at a time, and the kernel slows with it,
    so every latency and set-up time is multiplied by REFERENCE_MS / (the
    mean kernel time of the run): the metrics are times at the host speed
    where the kernel takes REFERENCE_MS.  The mean, not the median, because
    the host flips between a fast and a slow state within a second, and a
    median of such samples lands on one state or the other.  A formlab
    change does not move the kernel, so it shows in full.  The unscaled
    figures are kept as details.
    """
    golden = Golden(W.name, seed)
    ledger = Ledger()
    latencies, setups, kernels = [], [], []
    W.warm()
    index = 0
    started = last_kernel = time.perf_counter()
    while (
        time.perf_counter() - started < seconds
        or not tail_ready(W.TAIL_PCT, len(latencies))
        or len(setups) < SETUP_REPEATS
    ):
        if len(setups) < SETUP_REPEATS and (
            time.perf_counter() - started >= len(setups) * seconds / SETUP_REPEATS
        ):
            setups.append(measure_setup(setup_pairs))
        for _ in W.TYPES:
            if not kernels or time.perf_counter() - last_kernel >= REFERENCE_EVERY_S:
                kernels.append(reference_kernel())
                last_kernel = time.perf_counter()
            dt, _digest = execute(W, W.make(seed, index), workdir, ledger, golden)
            latencies.append(dt)
            index += 1
    factor = REFERENCE_MS / 1000 / statistics.fmean(kernels)
    scaled = summarize([dt * factor for dt in latencies], [s * factor for s in setups], W.TAIL_PCT)
    unscaled = summarize(latencies, setups, W.TAIL_PCT)
    return {
        "ledger": ledger,
        "metrics": {
            **scaled,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "detail": {
            **{f"unscaled_{name}": value for name, (value, _) in unscaled.items()},
            "reference_ms": statistics.fmean(kernels) * 1000,
            "reference_samples": len(kernels),
            "tail_percentile": W.TAIL_PCT,
            "samples": len(latencies),
            "rounds": len(latencies) // len(W.TYPES),
            "reference_runs_ms": [round(k * 1000, 4) for k in kernels],
            "latency_ms": [round(x * 1000, 3) for x in latencies],
            "fail_share": ledger.failed / ledger.attempted,
            "setup_runs_s": setups,
            "golden_checked": golden.active,
        },
    }


def run_traced(W, seed: int, seconds: float, workdir: Path, tracing) -> dict:
    """Alternate untraced and traced passes over a fixed list of operations.

    At least two pairs of passes run, so that the overhead is not a
    comparison with the very first, colder pass alone.
    """
    golden = Golden(W.name, seed)
    ledger = Ledger()
    ops = [W.make(seed, i) for i in range(W.TRACE_ROUNDS * len(W.TYPES))]
    W.warm()
    plain_s, traced_s, tracers = [], [], []
    reference = None
    started = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - started < seconds:
        digests, total = [], 0.0
        for i, op in enumerate(ops):
            dt, digest = execute(W, op, workdir, ledger, golden, want=reference and reference[i])
            digests.append(digest)
            total += dt
        plain_s.append(total)
        reference = reference or digests
        tracer = tracing.Tracer(raw_cap=0 if tracers else 100_000)
        total = 0.0
        with tracer.installed():
            for op, want in zip(ops, reference):
                dt, _digest = execute(W, op, workdir, ledger, golden, tracer.run_op, want)
                total += dt
        traced_s.append(total)
        tracers.append(tracer)

    problems = []
    first = tracers[0]
    for t in tracers[1:]:
        if t.counts != first.counts or any(
            t.calls(name) != first.calls(name) for name in tracing.SPAN_NAMES
        ):
            problems.append("call counts differ between traced passes")
    for t, total in zip(tracers, traced_s):
        accounted = sum(entry[1] for entry in t.by_name.values())
        if abs(accounted - total) > 1e-6 * max(total, 1e-9):
            problems.append(f"self times sum to {accounted} s, operations took {total} s")

    def median_ms(name: str) -> float:
        return statistics.median(t.self_ms(name) for t in tracers)

    metrics = {}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}.calls"] = (first.calls(span), "count")
        metrics[f"{span}.self_ms"] = (median_ms(span), "ms")
    for layer in tracing.LAYERS:
        layer_ms = [
            sum(t.self_ms(s) for s in tracing.SPAN_NAMES if s.startswith(layer + "."))
            for t in tracers
        ]
        metrics[f"{layer}.self_ms"] = (statistics.median(layer_ms), "ms")
    metrics["bench.self_ms"] = (median_ms(tracing.OP_SPAN), "ms")
    metrics["classify.catalog_entries.total_ms"] = (
        statistics.median(t.total_ms("classify.catalog_entries") for t in tracers),
        "ms",
    )
    for name in tracing.COUNT_METRICS:
        metrics[name] = (first.counts[name], "count")
    verdicts = first.counts["classify.verdicts"]
    metrics["classify.exact_share"] = (
        first.counts["classify.exact"] / verdicts if verdicts else 0.0,
        "ratio",
    )
    metrics["trace.overhead"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1,
        "ratio",
    )
    return {
        "ledger": ledger,
        "metrics": {name: metrics[name] for name, _, _ in tracing.per_layer_metrics()},
        "problems": problems,
        "detail": {
            "ops": len(ops),
            "passes": len(tracers),
            "untraced_pass_s": plain_s,
            "traced_pass_s": traced_s,
            "computed_counts": dict(first.counts),
            "raw_spans_dropped": first.dropped,
        },
        "spans": {
            "fields": ["op", "id", "parent", "name", "start", "end"],
            "raw": first.spans,
            "by_edge": [
                {"parent": p, "name": n, "calls": c, "total_ms": tot * 1000, "self_ms": own * 1000}
                for (p, n), (c, tot, own) in sorted(first.by_edge.items())
            ],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_formlab()
    import tracing
    import workloads

    W = workloads.WORKLOADS.get(args.workload)
    if W is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    info = machine_info()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        if args.trace:
            out = run_traced(W, args.seed, args.seconds, Path(tmp), tracing)
        else:
            out = run_end_to_end(W, args.seed, args.seconds, Path(tmp), workloads.SETUP_PAIRS)

    ledger = out["ledger"]
    problems = out.get("problems", [])
    correct = ledger.failed == 0 and not problems
    label = f"{'TRACE' if args.trace else 'BENCH'}_{W.name}_seed{args.seed}"
    record = {
        "workload": W.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures[:50],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
        "detail": out["detail"],
    }
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in out:
        (RESULTS / f"{label}_spans.json").write_text(json.dumps(out["spans"]) + "\n")

    print(f"formlab benchmark: workload={W.name} seed={args.seed} trace={args.trace}")
    print(
        f"machine: nproc={info['nproc']} python={info['python']} git_sha={info['git_sha']}"
    )
    for key, value in out["detail"].items():
        if not isinstance(value, (list, dict)):
            print(f"detail {key} = {value}")
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} = {value} {unit}")
    print(
        f"check: {'PASS' if correct else 'FAIL'} "
        f"({ledger.failed} of {ledger.attempted} operations failed"
        f"{', ' + '; '.join(problems) if problems else ''})"
    )
    for failure in ledger.failures[:5]:
        print(f"  failed op {failure['index']} {failure['kind']}: {failure['problems']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
