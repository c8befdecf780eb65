"""The benchmark's seeded workloads: census, orbit and cli_corpus.

Every operation draws its inputs from its own generator, seeded by
(workload, seed, index), so operation i is the same whatever ran before it
and a library change cannot change the workload.  formlab.sampling is not
used here for the same reason.

A workload runs in rounds: operation i has type TYPES[i % len(TYPES)], so
every whole round holds the same mix.  The mix fixes which type carries the
median and the tail (see README.md); fresh inputs in every round keep a
cache keyed by input from turning the benchmark into a lookup test.

Each workload exposes make(seed, index) -> Op, prepare(op, workdir) -> the
argument of run (untimed), run(arg) -> result (the timed call into
formlab), digest(op, result) -> str (compared with the golden files and
between traced and untraced runs) and check(op, result) -> list of
problems, which holds for any seed and is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any

# Module objects, looked up at call time so the traced run's wrappers are
# seen.  `formlab.classify` the attribute is the function, hence importlib.
EXT = importlib.import_module("formlab.exterior")
INV = importlib.import_module("formlab.invariants")
CLS = importlib.import_module("formlab.classify")
CLI = importlib.import_module("formlab.cli")

Form, Polyvector, LinMap = EXT.Form, EXT.Polyvector, EXT.LinMap

# Kept before any wrapping so the cache can be cleared through it.
_CATALOG_ENTRIES = CLS.catalog_entries

COEFF_BOUND = 9
NONZERO = tuple(c for c in range(-COEFF_BOUND, COEFF_BOUND + 1) if c)

# Every (n, k) whose catalog some workload consults; setup builds them all.
SETUP_PAIRS = ((6, 3), (7, 3), (8, 3), (8, 4), (9, 3), (10, 3), (12, 10))


@dataclass
class Op:
    index: int
    kind: str
    inputs: dict[str, Any]


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""
    TYPES: tuple = ()
    TAIL_PCT = 90
    TRACE_ROUNDS = 1

    @staticmethod
    def warm() -> None:
        pass

    @staticmethod
    def prepare(op: Op, workdir: Path):
        """The argument of run(); written to disk first where the op reads files."""
        return op


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"formlab-bench/{workload}/{seed}/{index}")


def random_terms(rng: random.Random, n: int, k: int, count: int | None = None) -> dict:
    """Integer coefficients in [-9, 9] on every index, or nonzero ones on `count`."""
    idxs = list(combinations(range(1, n + 1), k))
    if count is None:
        return {idx: c for idx in idxs if (c := rng.randint(-COEFF_BOUND, COEFF_BOUND))}
    return {idx: rng.choice(NONZERO) for idx in sorted(rng.sample(idxs, count))}


def unimodular(rng: random.Random, n: int) -> LinMap:
    """Integer matrix of determinant +1 or -1: 2n shears, a permutation, a sign."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return LinMap(rows)


def embedded(rng: random.Random, r: int, k: int, n: int, cls=Form):
    """A rank-r tensor on R^r, inflated to R^n and moved by a unimodular g.

    Returns (tensor, rank).  A random 2-form is singular too often to assume
    its rank, so 2-forms start from the standard pairing moved by a random
    g on R^r; other degrees use random coefficients and measure the rank of
    the small tensor, which the embedding must preserve.
    """
    if k == 2:
        pairs = {(2 * i - 1, 2 * i): 1 for i in range(1, r // 2 + 1)}
        small = cls(r, 2, EXT.act(unimodular(rng, r), Form(r, 2, pairs)).terms)
    else:
        small = cls(r, k, random_terms(rng, r, k))
    g = unimodular(rng, n)
    x = cls(n, k, small.terms)
    moved = EXT.act(g, x) if cls is Form else EXT.act_vectors(g, x)
    return moved, INV.rank(small)


def spd_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """A^T A + I for a random A with entries in {-1, 0, 1}; never the identity."""
    a = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
    a[0][1] = 1
    return [
        [sum(a[t][i] * a[t][j] for t in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


def random_volume(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 4))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_key(report) -> tuple:
    """The GL-invariant part of a report.

    The length-sign lambda is left out: it is invariant only under
    orientation-preserving maps, and g may have determinant -1.
    """
    fp = report.fingerprint
    ls = report.length_sign
    return (
        report.kind,
        report.orbit_id,
        report.candidates,
        report.rank,
        None if fp is None else (fp.rank_profile, fp.stab_dim, fp.killing_signature),
        None if ls is None else (ls.length, ls.sign),
        report.components,
        report.open,
    )


def report_digest(report) -> str:
    ls = report.length_sign
    return _sha(repr((verdict_key(report), None if ls is None else str(ls.lam))))


def element_key(x) -> tuple:
    return (type(x).__name__, x.n, x.k, tuple((idx, str(c)) for idx, c in x.items()))


# --------------------------------------------------------------------------
# census: classify generic forms; the stabilizer-statistics path.

class Census(Workload):
    name = "census"
    # (8,3) twice puts the median in the middle of the (7,3) samples and the
    # tail inside the (8,3) population instead of on a boundary between types.
    TYPES = ((6, 3), (7, 3), (8, 3), (8, 4), (8, 3))
    TRACE_ROUNDS = 3

    @staticmethod
    def warm() -> None:
        for n, k in set(Census.TYPES):
            CLS.catalog_entries(n, k)

    @classmethod
    def make(cls, seed: int, index: int) -> Op:
        n, k = cls.TYPES[index % len(cls.TYPES)]
        rng = op_rng(cls.name, seed, index)
        return Op(index, f"classify({n},{k})", {"phi": Form(n, k, random_terms(rng, n, k))})

    @staticmethod
    def run(op: Op):
        return CLS.classify(op.inputs["phi"])

    @staticmethod
    def digest(op: Op, report) -> str:
        return report_digest(report)

    @staticmethod
    def check(op: Op, report) -> list[str]:
        phi = op.inputs["phi"]
        problems = []
        S = INV.stabilizer_algebra(phi)
        if any(not INV.infinitesimal_act(A, phi).is_zero for A in S.basis):
            problems.append("a stabilizer basis element moves phi")
        if report.fingerprint is None or report.fingerprint.stab_dim != S.dim:
            problems.append("stab_dim differs from the stabilizer basis size")
        return problems


# --------------------------------------------------------------------------
# orbit: move a form by a unimodular g, then classify it completely.

class Orbit(Workload):
    name = "orbit"
    # 2-forms on R^4..R^8, (n-2)-forms on R^5..R^8, then act-only moves.
    # The 2-form on R^8 comes four times, so the median of the 16 types
    # sits inside its samples (positions 5-8 by cost), whose cost varies
    # less from seed to seed than that of the (6,4) form next to it; the
    # p90 tail sits among the 4-forms on R^8 and the 4-vectors on R^9.
    TYPES = (
        ("two", 4, 2), ("two", 5, 2), ("two", 6, 2), ("two", 7, 2),
        ("two", 8, 2), ("two", 8, 2), ("two", 8, 2), ("two", 8, 2),
        ("codim", 5, 3), ("codim", 6, 4), ("codim", 7, 5), ("codim", 8, 6),
        ("move", 8, 3), ("move", 8, 4), ("move", 8, 4),
        ("vectors", 9, 4),
    )
    VECTOR_TERMS = 40

    @classmethod
    def make(cls, seed: int, index: int) -> Op:
        what, n, k = cls.TYPES[index % len(cls.TYPES)]
        rng = op_rng(cls.name, seed, index)
        inputs: dict[str, Any] = {"what": what, "g": unimodular(rng, n)}
        if what == "vectors":
            inputs["x"] = Polyvector(n, k, random_terms(rng, n, k, cls.VECTOR_TERMS))
        else:
            inputs["x"] = Form(n, k, random_terms(rng, n, k))
        if what == "codim":
            inputs["volume"] = random_volume(rng)
        return Op(index, f"{what}({n},{k})", inputs)

    @staticmethod
    def _verdict(what: str, phi, volume):
        if what == "two":
            return CLS.classify_two_form(phi)
        return CLS.classify_codim_two(phi, EXT.VolumeForm(phi.n, volume))

    @classmethod
    def run(cls, op: Op):
        what, g, x = op.inputs["what"], op.inputs["g"], op.inputs["x"]
        if what == "vectors":
            return EXT.act_vectors(g, x), None
        moved = EXT.act(g, x)
        if what == "move":
            return moved, None
        return moved, cls._verdict(what, moved, op.inputs.get("volume"))

    @staticmethod
    def digest(op: Op, result) -> str:
        moved, report = result
        return _sha(repr(element_key(moved))) if report is None else report_digest(report)

    @classmethod
    def check(cls, op: Op, result) -> list[str]:
        what, g, x = op.inputs["what"], op.inputs["g"], op.inputs["x"]
        moved, report = result
        problems = []
        if what == "vectors":
            if EXT.act_vectors(g.inverse(), moved) != x:
                problems.append("g^-1 does not move the polyvector back")
            return problems
        if EXT.pullback(g, moved) != x:
            problems.append("pullback by g does not recover phi")
        if report is not None:
            want = cls._verdict(what, x, op.inputs.get("volume"))
            if verdict_key(report) != verdict_key(want):
                problems.append("verdict of the moved form differs from that of phi")
        return problems


# --------------------------------------------------------------------------
# cli_corpus: JSON documents through the in-process command line.

def _doc(x) -> bytes:
    doc = {
        "n": x.n,
        "k": x.k,
        "variance": "form" if isinstance(x, Form) else "vector",
        "terms": [
            {"idx": list(idx), "num": c.numerator, "den": c.denominator} for idx, c in x.items()
        ],
    }
    return json.dumps(doc, sort_keys=True).encode()


def _matrix(rows) -> bytes:
    return json.dumps({"matrix": [[str(v) for v in row] for row in rows]}).encode()


def _doc_classify_embedded(rng, r, n, command):
    phi, rank = embedded(rng, r, 3, n)
    return [command, "{doc}"], {"doc": _doc(phi)}, 0, {"phi": phi, "rank": rank}


def _doc_vector_metric(rng, r, n, k, command):
    x, rank = embedded(rng, r, k, n, Polyvector)
    rows = spd_matrix(rng, n)
    phi = EXT.musical(EXT.InnerProduct(rows), x)
    files = {"doc": _doc(x), "metric": _matrix(rows)}
    return [command, "{doc}", "--metric", "{metric}"], files, 0, {"phi": phi, "rank": rank}


def _doc_codim_volume(rng, n, command):
    phi = Form(n, n - 2, random_terms(rng, n, n - 2))
    volume = random_volume(rng)
    return [command, "{doc}", f"--volume={volume}"], {"doc": _doc(phi)}, 0, {"phi": phi}


def _doc_two_form(rng, r, n, command):
    phi, rank = embedded(rng, r, 2, n)
    return [command, "{doc}"], {"doc": _doc(phi)}, 0, {"phi": phi, "rank": rank}


def _doc_act(rng, n, k, cls):
    x = cls(n, k, random_terms(rng, n, k))
    g = unimodular(rng, n)
    files = {"doc": _doc(x), "matrix": _matrix(g.entries)}
    return ["act", "{doc}", "--matrix", "{matrix}"], files, 0, {"x": x, "g": g}


def _doc_catalog(n, k):
    return ["catalog", str(n), str(k)], {}, 0, {}


def _doc_sample(rng):
    return ["sample", "6", "3", "--trials", "2", "--seed", str(rng.randrange(10**6))], {}, 0, {}


def _doc_over_cap(rng):
    phi = Form(13, 3, random_terms(rng, 13, 3, 12))
    return ["classify", "{doc}"], {"doc": _doc(phi)}, 3, {}


def _doc_repeated_index(rng):
    body = json.loads(_doc(Form(7, 3, random_terms(rng, 7, 3, 6))))
    body["terms"].append({"idx": [2, 2, 5], "num": 1, "den": 1})
    return ["invariants", "{doc}"], {"doc": json.dumps(body, sort_keys=True).encode()}, 2, {}


class CliCorpus(Workload):
    name = "cli_corpus"
    # 23 documents per round, cheapest first.  catalog 12 10 and sample 6 3
    # come twice each, so the median falls inside their four samples per
    # round (positions 9-12 of 23) instead of on the edge of a type.  The
    # metric-dual 3-vector on R^7 comes four times (positions 17-20) and p85
    # falls inside its samples too; p85 keeps 10 samples beyond it from
    # three rounds on, and the run goes on until it has them.
    TYPES = (
        ("invariants with a repeated index", _doc_repeated_index),
        ("classify over the dimension cap", _doc_over_cap),
        ("classify rank-8 2-form on R^11", lambda rng: _doc_two_form(rng, 8, 11, "classify")),
        ("classify rank-6 2-form on R^10", lambda rng: _doc_two_form(rng, 6, 10, "classify")),
        ("classify 2-form on R^12", lambda rng: _doc_two_form(rng, 12, 12, "classify")),
        ("classify 6-form on R^8 with volume", lambda rng: _doc_codim_volume(rng, 8, "classify")),
        ("classify 2-vector on R^6 with metric", lambda rng: _doc_vector_metric(rng, 6, 6, 2, "classify")),
        ("act 2-vector on R^8", lambda rng: _doc_act(rng, 8, 2, Polyvector)),
        ("act 3-form on R^7", lambda rng: _doc_act(rng, 7, 3, Form)),
    ) + (("catalog 12 10", lambda rng: _doc_catalog(12, 10)),) * 2 + (("sample 6 3", _doc_sample),) * 2 + (
        ("invariants rank-4 2-vector on R^6 with metric", lambda rng: _doc_vector_metric(rng, 4, 6, 2, "invariants")),
        ("invariants rank-4 2-form on R^7", lambda rng: _doc_two_form(rng, 4, 7, "invariants")),
        ("catalog 7 3", lambda rng: _doc_catalog(7, 3)),
        ("invariants 5-form on R^7 with volume", lambda rng: _doc_codim_volume(rng, 7, "invariants")),
    ) + (("classify 3-vector on R^7 with metric", lambda rng: _doc_vector_metric(rng, 7, 7, 3, "classify")),) * 4 + (
        ("classify rank-6 3-form on R^9", lambda rng: _doc_classify_embedded(rng, 6, 9, "classify")),
        ("invariants rank-6 3-form on R^9", lambda rng: _doc_classify_embedded(rng, 6, 9, "invariants")),
    )
    TAIL_PCT = 85

    @classmethod
    def make(cls, seed: int, index: int) -> Op:
        kind, build = cls.TYPES[index % len(cls.TYPES)]
        rng = op_rng(cls.name, seed, index)
        argv, files, expect, meta = build(rng)
        return Op(index, kind, {"argv": argv, "files": files, "expect": expect, **meta})

    @staticmethod
    def prepare(op: Op, workdir: Path) -> list[str]:
        """Write the op's files (untimed) and return the full argv."""
        paths = {}
        for name, data in op.inputs["files"].items():
            path = workdir / f"{op.index}-{name}.json"
            path.write_bytes(data)
            paths[name] = str(path)
        argv = [a.format(**paths) if a.startswith("{") else a for a in op.inputs["argv"]]
        clear = getattr(_CATALOG_ENTRIES, "cache_clear", None)
        if clear is not None:
            clear()  # every real CLI call is a fresh process
        return argv + ["--format", "structured"]

    @staticmethod
    def run(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = CLI.main(argv)
            except SystemExit as exc:  # argparse rejects argv the way a real process would
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def digest(op: Op, result) -> str:
        code, out, _ = result
        return _sha(f"{code}\n{out}")

    @staticmethod
    def check(op: Op, result) -> list[str]:
        code, out, err = result
        want = op.inputs["expect"]
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if code != 0:
            return [] if not out and err.startswith("error:") else ["error exit wrote a report"]
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        problems = []
        if report.get("command") != op.inputs["argv"][0]:
            problems.append("report names another command")
        inv = report.get("invariants", {})
        if "rank" in op.inputs and inv.get("rank") != op.inputs["rank"]:
            problems.append("rank differs from the embedded rank")
        if "reduction" in inv and "rank" in op.inputs and inv["reduction"]["r"] != op.inputs["rank"]:
            problems.append("reduction r differs from the embedded rank")
        witness = report.get("witnesses", {}).get("orientation_reversing")
        phi = op.inputs.get("phi")
        if witness is not None:
            g = LinMap([[Fraction(v) for v in row] for row in witness])
            if not g.det < 0:
                problems.append("orientation-reversing witness has det >= 0")
            if EXT.act(g, phi) != phi:
                problems.append("orientation-reversing witness moves phi")
        elif report["command"] == "invariants" and inv.get("rank", phi.n) < phi.n:
            problems.append("degenerate form without an orientation-reversing witness")
        if report["command"] == "act":
            doc = report["result"]
            x, g = op.inputs["x"], op.inputs["g"]
            moved = type(x)(doc["n"], doc["k"], {tuple(t["idx"]): Fraction(t["num"], t["den"]) for t in doc["terms"]})
            back = EXT.pullback(g, moved) if isinstance(x, Form) else EXT.act_vectors(g.inverse(), moved)
            if back != x:
                problems.append("act result does not move back to the input")
        return problems


WORKLOADS = {w.name: w for w in (Census, Orbit, CliCorpus)}
