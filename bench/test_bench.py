"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They use the cheapest operation types only; the full workloads run through
bench/run.py.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CLS, EXT, WORKLOADS, Census, CliCorpus, Orbit  # noqa: E402

# Operation indices of cheap types: census (6,3); orbit 2-forms and
# (n-2)-forms on R^5 and R^6; cli documents that take milliseconds.
CHEAP = {
    "census": [0],
    "orbit": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "cli_corpus": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
}


def inputs_repr(op):
    return repr(sorted(op.inputs.items()))


def test_generator_is_deterministic_per_seed():
    for name, W in WORKLOADS.items():
        for index in reversed(CHEAP[name]):  # order of generation must not matter
            a, b = W.make(5, index), W.make(5, index)
            assert (a.kind, inputs_repr(a)) == (b.kind, inputs_repr(b))
        other = [inputs_repr(W.make(6, i)) for i in CHEAP[name]]
        same = [inputs_repr(W.make(5, i)) for i in CHEAP[name]]
        if name != "cli_corpus":  # some cli documents take no random input
            assert other != same


def _workdir():
    run.RESULTS.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.RESULTS)


def _run_all(W, indices, workdir, call=None):
    ledger = run.Ledger()
    golden = run.Golden(W.name, seed=-1)
    out = []
    for index in indices:
        op = W.make(3, index)
        arg = W.prepare(op, workdir)
        result = W.run(arg) if call is None else call(index, W.run, arg)[0]
        out.append(result)
        ledger.record(op, W.check(op, result) + golden.problems(index, W.digest(op, result)))
    assert ledger.failed == 0, ledger.failures
    return out


def test_wrapping_leaves_results_bit_identical():
    originals = {
        "classify": CLS.classify,
        "det_fraction": EXT.det_fraction,
        "init": EXT.LinMap.__init__,
    }
    with _workdir() as tmp:
        for name, W in WORKLOADS.items():
            W.warm()
            plain = _run_all(W, CHEAP[name], Path(tmp))
            tracer = tracing.Tracer()
            with tracer.installed():
                assert CLS.classify is not originals["classify"]
                traced = _run_all(W, CHEAP[name], Path(tmp), call=tracer.run_op)
            assert repr(traced) == repr(plain)
            spans = sum(entry[0] for entry in tracer.by_name.values())
            assert spans > tracer.calls(tracing.OP_SPAN) == len(CHEAP[name])
            own = sum(entry[1] for entry in tracer.by_name.values())
            wall = tracer.by_name[tracing.OP_SPAN][2]
            assert abs(own - wall) <= 1e-9 * len(tracer.spans)
    assert CLS.classify is originals["classify"]
    assert EXT.det_fraction is originals["det_fraction"]
    assert EXT.LinMap.__init__ is originals["init"]


def test_traced_counts_are_computed_from_arguments():
    op = Orbit.make(0, 12)  # move (8,3)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.run_op(op.index, Orbit.run, op)
    assert tracer.counts["exterior.act.minors"] == len(op.inputs["x"].terms) * 56
    assert tracer.calls("linalg.det_fraction") >= 1


def _one(W, index, corrupt):
    """Run one operation with its result passed through corrupt()."""

    class Corrupted(W):
        @staticmethod
        def run(arg):
            return corrupt(W.run(arg))

    ledger = run.Ledger()
    with _workdir() as tmp:
        run.execute(Corrupted, W.make(2, index), Path(tmp), ledger, run.Golden(W.name, -1))
    return ledger


def test_corrupted_outputs_are_counted_as_failures():
    def wrong_stab_dim(report):
        fp = dataclasses.replace(report.fingerprint, stab_dim=report.fingerprint.stab_dim + 1)
        return dataclasses.replace(report, fingerprint=fp)

    def moved_wrong(result):
        moved, report = result
        return moved.scaled(2), report

    def wrong_exit(result):
        code, out, err = result
        return 1 - code if code in (0, 1) else 0, out, err

    def raises(result):
        raise RuntimeError("boom")

    cases = [
        (Census, 0, wrong_stab_dim),
        (Orbit, 0, moved_wrong),
        (CliCorpus, 4, wrong_exit),
        (CliCorpus, 2, raises),
    ]
    for W, index, corrupt in cases:
        ledger = _one(W, index, corrupt)
        assert (ledger.attempted, ledger.failed) == (1, 1), (W.name, ledger.failures)
        clean = _one(W, index, lambda result: result)
        assert (clean.attempted, clean.failed) == (1, 0), (W.name, clean.failures)


def test_golden_mismatch_is_a_failure():
    golden = run.Golden("census", seed=-1)
    golden.digests = ["0" * 16]
    assert golden.problems(0, "1" * 16)
    assert not golden.problems(0, "0" * 16)
    assert not golden.problems(1, "1" * 16)  # beyond the stored prefix


def test_golden_files_match_the_default_seed():
    for name, W in WORKLOADS.items():
        data = json.loads((run.GOLDEN / f"{name}.json").read_text())
        golden = run.Golden(name, data["seed"])
        assert golden.active and len(golden.digests) >= 2 * len(W.TYPES)
        with _workdir() as tmp:
            for index in CHEAP[name]:
                op = W.make(data["seed"], index)
                result = W.run(W.prepare(op, Path(tmp)))
                assert not golden.problems(index, W.digest(op, result)), (name, index)


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_ready(90, 100) and not run.tail_ready(90, 99)
    assert run.tail_rank(90, 100) == 90
    assert run.tail_ready(80, 50) and not run.tail_ready(80, 49)


class _Stub(workloads.Workload):
    """A workload of instant operations, to run the measuring loop quickly."""

    name = "stub"
    TYPES = (None,)

    @staticmethod
    def make(seed, index):
        return workloads.Op(index, "stub", {})

    @staticmethod
    def run(op):
        return op.index

    @staticmethod
    def digest(op, result):
        return str(result)

    @staticmethod
    def check(op, result):
        return []


def test_end_to_end_run_reports_every_manifest_metric():
    with _workdir() as tmp:
        out = run.run_end_to_end(_Stub, seed=0, seconds=0.0, workdir=Path(tmp), setup_pairs=())
    assert {name: unit for name, (_, unit) in out["metrics"].items()} == run.END_TO_END
    assert len(out["detail"]["setup_runs_s"]) == run.SETUP_REPEATS
    assert out["ledger"].attempted >= 100 and out["ledger"].failed == 0


def test_summarize_takes_median_tail_and_rate():
    latencies = [i / 1000 for i in range(1, 101)]  # 1 ms .. 100 ms
    got = run.summarize(latencies, [3.0, 1.0, 2.0], tail_pct=90)
    want = {"setup_s": (2.0, "s"), "ops_per_s": (100 / 5.05, "1/s"), "p50_ms": (50.5, "ms"), "tail_ms": (90.0, "ms")}
    assert {k: (pytest.approx(v), u) for k, (v, u) in want.items()} == got


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == tracing.per_layer_metrics()
    assert set(workloads.SETUP_PAIRS) >= {tuple(t) for t in Census.TYPES}
