import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from formlab import Form, LinMap, Polyvector, act
from formlab import cli
from formlab.cli import EXIT_PIPE, build_parser, main
from formlab.docio import element_to_document
from formlab.linalg import skew_pairs
from formlab.sampling import random_form, random_gl, trial_rng

from conftest import det_gauss, evaluate_form


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


G2_DOC = {
    "n": 7,
    "k": 3,
    "terms": [
        {"idx": [1, 2, 3], "num": 1},
        {"idx": [1, 4, 5], "num": 1},
        {"idx": [1, 6, 7], "num": 1},
        {"idx": [2, 4, 6], "num": 1},
        {"idx": [2, 5, 7], "num": -1},
        {"idx": [3, 4, 7], "num": 1},
        {"idx": [3, 5, 6], "num": 1},
    ],
}


def test_classify_text_output(tmp_path, capsys):
    path = write_doc(tmp_path, G2_DOC)
    code, out, err = run(capsys, ["classify", path])
    assert code == 0 and err == ""
    assert "catalog:G2-tilde-7" in out
    assert "components: 2" in out
    assert "open: yes" in out


def test_classify_structured_is_byte_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, G2_DOC)
    code1, out1, _ = run(capsys, ["classify", path, "--format", "structured"])
    code2, out2, _ = run(capsys, ["classify", path, "--format", "structured"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["verdict"]["orbit_id"] == "catalog:G2-tilde-7"
    assert data["verdict"]["kind"] == "exact"
    assert data["components"] == 2
    assert data["invariants"]["fingerprint"]["stab_dim"] == 14
    assert data["invariants"]["fingerprint"]["killing"] == [8, 6, 0]
    assert len(data["input"]["sha256"]) == 64


def test_classify_martinet_with_volume_override(tmp_path, capsys):
    doc = {
        "n": 6,
        "k": 4,
        "terms": [
            {"idx": [3, 4, 5, 6], "num": 1},
            {"idx": [1, 2, 5, 6], "num": 1},
            {"idx": [1, 2, 3, 4], "num": 1},
        ],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["classify", path, "--format", "structured"])
    assert code == 0
    base = json.loads(out)
    assert base["verdict"]["orbit_id"] == "martinet:l=3,s=1"
    # n = 6 has odd maximal length, so lam ignores the volume scale
    code, out, _ = run(capsys, ["classify", path, "--volume=-2/3", "--format", "structured"])
    assert code == 0
    flipped = json.loads(out)
    assert flipped["verdict"]["orbit_id"] == "martinet:l=3,s=1"


def test_classify_vector_goes_through_metric_dual(tmp_path, capsys):
    doc = {
        "n": 4,
        "k": 2,
        "variance": "vector",
        "terms": [{"idx": [1, 2], "num": 1}, {"idx": [3, 4], "num": 1}],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["classify", path, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["orbit_id"] == "two-form:rank=4"
    assert any("metric" in note for note in data["notes"])


def test_classify_with_metric_file(tmp_path, capsys):
    doc = {
        "n": 2,
        "k": 1,
        "variance": "vector",
        "terms": [{"idx": [1], "num": 1}],
    }
    path = write_doc(tmp_path, doc)
    metric = write_doc(tmp_path, {"matrix": [[2, 0], [0, 1]]}, name="metric.json")
    code, out, _ = run(capsys, ["classify", path, "--metric", metric, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    # musical dual of e_1 under diag(2, 1) is 2 e^1: still the open orbit
    assert data["verdict"]["orbit_id"] == "rank1:catalog:decomposable"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"n": 3, "k": 2, "terms": [{"idx": [1, 1], "num": 1}]}, "repeated index"),
        ({"n": 3, "k": 2, "terms": [{"idx": [1, 4], "num": 1}]}, "outside"),
        ({"n": 3, "k": 2, "terms": [{"idx": [1], "num": 1}]}, "length"),
        ({"n": 3, "k": 2, "terms": [{"idx": [1, 2], "num": 1, "den": 0}]}, "positive"),
        ({"n": 3, "k": 2, "terms": [{"idx": [1, 2], "num": 1, "den": -2}]}, "positive"),
        ({"n": "x", "k": 2}, "integer"),
        ([1, 2], "object"),
    ],
)
def test_parse_errors_exit_2(tmp_path, capsys, doc, fragment):
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["classify", path])
    assert code == 2
    assert fragment in err


def test_bad_json_and_missing_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["classify", str(tmp_path / "absent.json")])
    assert code == 2


def test_domain_errors_exit_3(tmp_path, capsys, monkeypatch):
    big = {"n": 13, "k": 2, "terms": [{"idx": [1, 2], "num": 1}]}
    code, _, err = run(capsys, ["classify", write_doc(tmp_path, big)])
    assert code == 3 and "error:" in err

    doc = {"n": 3, "k": 2, "terms": [{"idx": [1, 2], "num": 1}]}
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, ["classify", path, "--volume", "0"])
    assert code == 3

    singular = write_doc(tmp_path, {"matrix": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}, "m.json")
    code, _, err = run(capsys, ["act", path, "--matrix", singular])
    assert code == 3

    # a matrix of the wrong size is refused before LinMap takes its determinant
    identity4 = [[int(i == j) for j in range(4)] for i in range(4)]
    wrong = write_doc(tmp_path, {"matrix": identity4}, "w.json")
    built = []
    monkeypatch.setattr(importlib.import_module("formlab.cli"), "LinMap", built.append)
    code, _, err = run(capsys, ["act", path, "--matrix", wrong])
    assert code == 3 and "matrix is 4x4 but the element lives on R^3" in err
    assert built == []

    code, _, err = run(capsys, ["sample", "4", "2", "--trials", "0"])
    assert code == 3
    code, _, err = run(capsys, ["catalog", "13", "2"])
    assert code == 3


def test_act_matches_library(tmp_path, capsys):
    doc = {
        "n": 3,
        "k": 2,
        "terms": [{"idx": [1, 2], "num": 3, "den": 2}, {"idx": [2, 3], "num": -1}],
    }
    path = write_doc(tmp_path, doc)
    mat = write_doc(tmp_path, {"matrix": [[1, 1, 0], [0, 1, 0], [2, 0, 1]]}, "g.json")
    code, out, _ = run(capsys, ["act", path, "--matrix", mat, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == "1"
    g = LinMap([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    phi = Form(3, 2, {(1, 2): Fraction(3, 2), (2, 3): -1})
    moved = act(g, phi)
    got = {
        tuple(t["idx"]): Fraction(t["num"], t.get("den", 1))
        for t in data["result"]["terms"]
    }
    assert got == dict(moved.terms)
    # a vector document moves by the direct image instead
    vdoc = {"n": 3, "k": 1, "variance": "vector", "terms": [{"idx": [2], "num": 1}]}
    vpath = write_doc(tmp_path, vdoc, "v.json")
    code, out, _ = run(capsys, ["act", vpath, "--matrix", mat, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    v = Polyvector.basis(3, (2,))
    want = g.apply(v)
    got = {
        tuple(t["idx"]): Fraction(t["num"], t.get("den", 1))
        for t in data["result"]["terms"]
    }
    assert got == dict(want.terms)


def test_act_at_dimension_cap(tmp_path, capsys):
    # a dense 6-form on R^12, the largest middle degree the CLI admits, moved
    # by an integer unimodular g = lower @ upper (unitriangular factors)
    n, k = 12, 6
    phi = Form(n, k, {idx: 1 + sum(idx) % 5 for idx in combinations(range(1, n + 1), k)})
    lower = [[(i - j) % 3 - 1 if i > j else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[(i + j) % 3 - 1 if i < j else int(i == j) for j in range(n)] for i in range(n)]
    g = LinMap(lower) @ LinMap(upper)
    path = write_doc(tmp_path, element_to_document(phi))
    mat = write_doc(tmp_path, {"matrix": [[int(x) for x in row] for row in g.entries]}, "g.json")
    code, out, _ = run(capsys, ["act", path, "--matrix", mat, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == "1"
    moved = Form(n, k, {
        tuple(t["idx"]): Fraction(t["num"], t.get("den", 1))
        for t in data["result"]["terms"]
    })
    # act(g, phi)(g v_1, ..., g v_k) == phi(v_1, ..., v_k) on one fixed tuple,
    # through Gaussian-elimination minors rather than the substitution kernel;
    # test_pullback_evaluation_semantics covers the kernel in every degree
    vs = [[((i + 1) ** (t + 1) + t) % 7 - 3 for i in range(n)] for t in range(k)]
    gvs = [[sum(x * y for x, y in zip(row, v)) for row in g.entries] for v in vs]
    want = evaluate_form(phi, vs, det=det_gauss)
    assert want and evaluate_form(moved, gvs, det=det_gauss) == want


def test_sample_reference_histogram(capsys):
    code, out, _ = run(capsys, ["sample", "4", "2", "--trials", "100", "--seed", "1"])
    assert code == 0
    assert "profile=(4) stab=10 killing=(6,4,0)" in out
    assert "100" in out
    # structured twice: byte identical
    code, out1, _ = run(capsys, ["sample", "4", "2", "--trials", "50", "--seed", "9", "--format", "structured"])
    code, out2, _ = run(capsys, ["sample", "4", "2", "--trials", "50", "--seed", "9", "--format", "structured"])
    assert out1 == out2
    data = json.loads(out1)
    assert sum(row["count"] for row in data["histogram"]) == 50


def test_catalog_command(capsys):
    code, out, _ = run(capsys, ["catalog", "9", "4", "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == []
    assert any("no catalog coverage" in note for note in data["notes"])
    code, out, _ = run(capsys, ["catalog", "12", "12", "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert [(row["name"], row["components"]) for row in data["entries"]] == [("decomposable", 2)]
    code, out, _ = run(capsys, ["catalog", "7", "3"])
    assert code == 0
    assert "G2-tilde-7" in out and "G2-compact-7" in out


def test_invariants_vector_witnesses(tmp_path, capsys):
    doc = {
        "n": 5,
        "k": 2,
        "variance": "vector",
        "terms": [{"idx": [1, 2], "num": 2}],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["invariants", path, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    inv = data["invariants"]
    assert inv["rank"] == 2
    assert inv["multisymplectic"] is False
    assert inv["stabilizer"]["stable"] is False
    w = data["witnesses"]["nilpotency"]
    assert sum(w["exponents"]) == 0
    assert w["contraction_rate"] == 2 * 3
    assert "orientation_reversing" in data["witnesses"]


def test_invariants_includes_length_sign_for_codim_two(tmp_path, capsys):
    doc = {
        "n": 4,
        "k": 2,
        "terms": [{"idx": [1, 2], "num": 1}, {"idx": [3, 4], "num": 1}],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["invariants", path, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    ls = data["invariants"]["length_sign"]
    assert ls["length"] == 2 and ls["sign"] == 1
    assert data["invariants"]["stabilizer"]["dim"] == 10


def test_invariants_codim_two_reads_martinet_length_once(tmp_path, capsys, monkeypatch):
    # the fingerprint of a full-rank (n-2)-form needs the Martinet length,
    # and the length_sign field needs it under the document's volume: one
    # Pfaffian elimination serves both
    invariants = importlib.import_module("formlab.invariants")
    calls = []

    def counting(skew):
        calls.append(skew)
        return skew_pairs(skew)

    monkeypatch.setattr(invariants, "skew_pairs", counting)
    doc = {
        "n": 8,
        "k": 6,
        "terms": [
            {"idx": [3, 4, 5, 6, 7, 8], "num": 1},
            {"idx": [1, 2, 5, 6, 7, 8], "num": 1},
            {"idx": [1, 2, 3, 4, 7, 8], "num": 1},
            {"idx": [1, 2, 3, 4, 5, 6], "num": 1},
        ],
    }
    argv = ["invariants", write_doc(tmp_path, doc), "--volume=-2", "--format", "structured"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    inv = json.loads(out)["invariants"]
    assert inv["length_sign"] == {"length": 4, "lambda": "-1", "sign": 1}
    assert inv["stabilizer"]["dim"] == 36
    assert len(calls) == 1


def test_invariants_of_stable_three_forms_solve_no_stabilizer(tmp_path, capsys, monkeypatch):
    # lambda (rank 6), B (rank 7) and Q (rank 8) give the stabilizer in
    # closed form, also for the form embedded in a larger R^n
    def no_solve(*args):
        raise AssertionError("a stable 3-form of rank 6, 7 or 8 solved its stabilizer")

    monkeypatch.setattr(importlib.import_module("formlab.invariants"), "stabilizer_algebra", no_solve)
    for r, stab in ((6, 16), (7, 14), (8, 8)):
        phi = random_form(r, 3, 9, trial_rng(71, r))
        for n in (r, r + 2):
            moved = act(random_gl(n, trial_rng(72, n)), Form(n, 3, dict(phi.terms)))
            path = write_doc(tmp_path, element_to_document(moved))
            code, out, _ = run(capsys, ["invariants", path, "--format", "structured"])
            assert code == 0
            inv = json.loads(out)["invariants"]
            assert inv["rank"] == r
            assert inv["stabilizer"]["dim"] == stab + n * (n - r)
            assert inv["stabilizer"]["stable"] == (n == r)
            assert inv["fingerprint"]["rank_profile"] == [r, r]


def test_closed_stdout_exits_quietly():
    # `formlab catalog 12 10 | true`: the reader has gone before the report
    # is written, so the write meets a broken pipe
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(importlib.import_module("formlab").__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "formlab", "catalog", "12", "10"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == b""


def test_invariants_of_zero_form_and_scalar(tmp_path, capsys):
    path = write_doc(tmp_path, {"n": 5, "k": 3, "terms": []})
    code, out, _ = run(capsys, ["invariants", path, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    inv = data["invariants"]
    assert inv["rank"] == 0 and inv["multisymplectic"] is False
    assert inv["reduction"] == {
        "r": 0,
        "reduced": {"k": 3, "n": 0, "terms": [], "variance": "form"},
    }
    assert inv["stabilizer"] == {"dim": 25, "orbit_dimension": 0, "stable": False}
    assert inv["fingerprint"] == {"killing": [14, 10, 1], "rank_profile": [0, 0], "stab_dim": 25}
    assert len(inv["kernel"]) == 5
    reflection = [["0"] * 5 for _ in range(5)]
    for i in range(5):
        reflection[i][i] = "-1" if i == 0 else "1"
    assert data["witnesses"] == {"orientation_reversing": reflection}

    path = write_doc(tmp_path, {"n": 4, "k": 0, "terms": [{"idx": [], "num": 3}]})
    code, out, _ = run(capsys, ["invariants", path, "--format", "structured"])
    assert code == 0
    data = json.loads(out)
    assert data["invariants"] == {
        "fingerprint": None,
        "rank": None,
        "stabilizer": {"dim": 16, "orbit_dimension": 0, "stable": False},
    }
    assert data["witnesses"] == {}


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    import sys

    doc = {"n": 2, "k": 2, "terms": [{"idx": [1, 2], "num": 1}]}
    raw = io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()))
    monkeypatch.setattr(sys, "stdin", raw)
    code = main(["classify", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two-form:rank=2" in out


@pytest.mark.parametrize("command,flag", [("classify", "--metric"), ("act", "--matrix")])
@pytest.mark.parametrize(
    "matrix", [[1, 2, 3], [[1, 0, 0], [0, 1]], {"matrix": 5}], ids=["flat", "ragged", "scalar"]
)
def test_malformed_matrix_file_exits_2(tmp_path, capsys, command, flag, matrix):
    doc = {"n": 3, "k": 1, "variance": "vector", "terms": [{"idx": [1], "num": 1}]}
    path = write_doc(tmp_path, doc)
    mat = write_doc(tmp_path, matrix, "m.json")
    code, out, err = run(capsys, [command, path, flag, mat])
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_metric_file_of_wrong_size_exits_2(tmp_path, capsys, command):
    # a 3x3 --metric for a vector on R^2 is malformed input, as it is in the
    # document's own metric field
    doc = {"n": 2, "k": 1, "variance": "vector", "terms": [{"idx": [1], "num": 1}]}
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    mat = write_doc(tmp_path, identity, "m3.json")
    for argv in (
        [command, write_doc(tmp_path, doc), "--metric", mat],
        [command, write_doc(tmp_path, {**doc, "metric": identity}, "with_metric.json")],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize(
    "matrix,message",
    [
        ([[1, 2], [2, 1]], "positive definite"),
        ([[0, 0], [0, 1]], "positive definite"),
        ([[2, 1], [0, 2]], "symmetric"),
    ],
    ids=["indefinite", "singular", "asymmetric"],
)
def test_invalid_metric_exits_3(tmp_path, capsys, command, matrix, message):
    # a well-formed matrix that is no inner product is a domain error, from a
    # --metric file and from the document's own metric field alike
    doc = {"n": 2, "k": 1, "variance": "vector", "terms": [{"idx": [1], "num": 1}]}
    mat = write_doc(tmp_path, matrix, "m.json")
    for argv in (
        [command, write_doc(tmp_path, doc), "--metric", mat],
        [command, write_doc(tmp_path, {**doc, "metric": matrix}, "with_metric.json")],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == f"error: inner product matrix must be {message}\n"


def test_text_reports_frozen(tmp_path, capsys):
    vec = {
        "n": 5,
        "k": 3,
        "variance": "vector",
        "terms": [
            {"idx": [1, 2, 3], "num": 3, "den": 2},
            {"idx": [1, 2, 4], "num": -1},
            {"idx": [2, 3, 4], "num": 2, "den": 3},
        ],
    }
    form = {
        "n": 3,
        "k": 2,
        "terms": [{"idx": [1, 2], "num": 3, "den": 2}, {"idx": [2, 3], "num": -1}],
    }
    # G2 on R^8 scaled by 3/2: degenerate, so classify prints the catalog
    # representative as its canonical form
    degenerate = {"n": 8, "k": 3, "terms": [{**t, "num": 3 * t["num"], "den": 2} for t in G2_DOC["terms"]]}
    vpath = write_doc(tmp_path, vec, "vec.json")
    fpath = write_doc(tmp_path, form, "form.json")
    dpath = write_doc(tmp_path, degenerate, "degenerate.json")
    moved = {"n": 3, "k": 1, "variance": "vector", "terms": [{"idx": [1], "num": 2}, {"idx": [3], "num": -1, "den": 3}]}
    mpath = write_doc(tmp_path, moved, "moved.json")
    mat = write_doc(tmp_path, {"matrix": [[1, 1, 0], [0, 1, 0], [2, 0, 1]]}, "g.json")
    expected = {
        ("classify", dpath): [
            "input: n=8 k=3 variance=form sha256=e75b178d04785422",
            "verdict: exact rank7:catalog:G2-tilde-7",
            "rank: 7",
            "fingerprint: profile=(7, 7) stab=22 killing=(9, 6, 7)",
            "components: 1",
            "open: no",
            "canonical: 1*e[1,2,3] + 1*e[1,4,5] + 1*e[1,6,7] + 1*e[2,4,6] - 1*e[2,5,7]"
            " + 1*e[3,4,7] + 1*e[3,5,6]",
            "note: classified through the rank-7 reduction",
            "note: stabilizer algebra is the split exceptional 14-dimensional simple algebra",
            "note: matched catalog entry [literature]",
        ],
        ("invariants", vpath): [
            "input: n=5 k=3 variance=vector sha256=417a30c8baeb831d",
            "rank: 3",
            "multisymplectic: False",
            "reduction rank: 3",
            "stabilizer dim: 18 orbit dim: 7 stable: False",
            "fingerprint: profile=(3, 3) stab=18 killing=(8, 4, 6)",
            "length-sign: l=1 lambda=None sign=1",
            "witness available: nilpotency",
            "witness available: orientation_reversing",
            "note: vector input classified through its metric dual form",
        ],
        ("act", fpath, "--matrix", mat): [
            "input: n=3 k=2 variance=form sha256=a5fbf16c678fd119",
            "determinant: 1",
            "result: -1/2*e[1,2] - 1*e[2,3]",
        ],
        ("act", mpath, "--matrix", mat): [
            "input: n=3 k=1 variance=vector sha256=ccb4f7ab6ffadd68",
            "determinant: 1",
            "result: 2*v[1] + 11/3*v[3]",
        ],
        ("catalog", "3", "1"): [
            "catalog: n=3 k=1 entries=2",
            "  martinet-l0-s0 [literature] components=1",
            "    representative: 0",
            "  martinet-l1-s+1 [literature] components=1",
            "    representative: 1*e[3]",
        ],
        ("catalog", "6", "3"): [
            "catalog: n=6 k=3 entries=3",
            "  decomposable [derived] components=1",
            "    representative: 1*e[1,2,3]",
            "  split-2 [derived] components=1",
            "    representative: 1*e[1,2,3] + 1*e[4,5,6]",
            "  elliptic-6 [literature] components=1",
            "    representative: 1*e[1,2,3] - 1*e[1,5,6] + 1*e[2,4,6] - 1*e[3,4,5]",
        ],
        ("sample", "4", "3", "--trials", "5", "--seed", "2"): [
            "sample: n=4 k=3 trials=5 bound=9 seed=2",
            "       5  profile=(3,3) stab=12 killing=(6,3,3)",
        ],
    }
    for argv, lines in expected.items():
        code, out, err = run(capsys, list(argv))
        assert code == 0 and err == ""
        assert out == "\n".join(lines) + "\n"


# sha256 over the exit code, stdout and stderr of each `--format structured`
# call of test_structured_reports_frozen, in order: it pins every key of the
# classify, invariants, act and sample reports and two error exits.
STRUCTURED_REPORTS_SHA256 = "966ba545512bf6cd26c96540edf7f5901a06ab099917cd7e73c87253c1eb969b"


def test_structured_reports_frozen(tmp_path, capsys):
    def doc(n, k, terms, variance="form", **extra):
        x = (Form if variance == "form" else Polyvector)(n, k, terms)
        return write_doc(tmp_path, {**element_to_document(x), **extra}, f"{len(list(tmp_path.iterdir()))}.json")

    metric6 = [[2 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    g = [[Fraction(1 + (i + j) % 3, 1 + i) if i <= j else Fraction(j - i, 2) for j in range(5)] for i in range(5)]
    gpath = write_doc(tmp_path, [[str(x) for x in row] for row in g], "g.json")
    g2 = {tuple(t["idx"]): t["num"] for t in G2_DOC["terms"]}
    codim = {idx: 1 + sum(idx) % 3 for idx in combinations(range(1, 9), 6) if sum(idx) % 4}
    five = {idx: (-1) ** sum(idx) * (1 + len(set(idx) & {1, 4})) for idx in combinations(range(1, 8), 5)}
    calls = [
        ["classify", write_doc(tmp_path, G2_DOC, "g2.json")],
        # degenerate, moved by g: rank 7, canonical G2-tilde on R^9
        ["classify", doc(9, 3, act(random_gl(9, trial_rng(5, 9)), Form(9, 3, g2)).terms)],
        ["classify", doc(8, 6, codim), "--volume=-2/3"],
        ["classify", doc(6, 2, {(1, 2): 1, (3, 4): -2, (2, 5): 3}, "vector", metric=metric6)],
        # rank 4 < 6: both witnesses
        ["invariants", doc(6, 2, {(1, 2): 1, (3, 4): Fraction(1, 2)}, "vector", metric=metric6)],
        ["invariants", doc(7, 5, five, volume="3/2")],
        ["invariants", doc(6, 3, {})],
        ["invariants", doc(3, 0, {(): Fraction(-5, 3)})],
        ["act", doc(5, 3, {(1, 2, 3): 1, (2, 4, 5): Fraction(-3, 2)}), "--matrix", gpath],
        ["act", doc(5, 2, {(1, 2): 2, (3, 5): Fraction(1, 3)}, "vector"), "--matrix", gpath],
        ["sample", "5", "2", "--trials", "7", "--seed", "3"],
        # exit 3 over the dimension cap, exit 2 on a repeated index
        ["classify", doc(13, 2, {(1, 2): 1})],
        ["classify", write_doc(tmp_path, {"n": 4, "k": 2, "terms": [{"idx": [2, 2], "num": 1}]}, "rep.json")],
    ]
    digest = hashlib.sha256()
    for argv in calls:
        code, out, err = run(capsys, argv + ["--format", "structured"])
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == STRUCTURED_REPORTS_SHA256


# help, usage and error cases of the command line: every -h form, no
# arguments, unknown words, missing and extra positionals, bad option values
# and options before the command, plus a few calls that run
PARSER_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "catalog"],
    ["bogus"],
    ["cat"],
    ["--format", "text"],
    ["--format", "structured", "catalog", "6", "3"],
    ["classify", "-h"],
    ["invariants", "--help"],
    ["act", "-h"],
    ["sample", "-h"],
    ["catalog", "-h"],
    ["classify"],
    ["classify", "a.json", "b.json"],
    ["classify", "missing.json", "--volume"],
    ["act", "doc.json"],
    ["sample", "6"],
    ["sample", "6", "3", "--trials"],
    ["sample", "6", "3", "--seed", "x"],
    ["catalog", "7"],
    ["catalog", "7", "3", "extra"],
    ["catalog", "7", "3", "--bogus"],
    ["catalog", "7", "3", "--format", "bad"],
    ["catalog", "6", "3"],
    ["catalog", "6", "3", "--format", "structured"],
    ["invariants", "missing.json"],
    ["sample", "4", "3", "--trials", "3"],
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_slim_parser_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    """main builds one subcommand; all five give the same text and exit code."""
    slim = outcome(capsys, argv)
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert outcome(capsys, argv) == slim


def registered(parser):
    return list(next(a for a in parser._actions if a.dest == "command").choices)


def test_build_parser_registers_the_named_subcommand_only():
    all_five = ["classify", "invariants", "act", "sample", "catalog"]
    assert registered(build_parser(["catalog", "7", "3"])) == ["catalog"]
    assert registered(build_parser(["act", "-"])) == ["act"]
    assert registered(build_parser()) == all_five
    for argv in ([], ["-h"], ["bogus"], ["--format", "text", "catalog"]):
        assert registered(build_parser(argv)) == all_five


def test_full_parser_errors_name_the_command_action(capsys):
    # a metavar on the subcommand action would replace `command` here
    assert "argument command: invalid choice" in outcome(capsys, ["bogus"])[2]
    assert "required: command" in outcome(capsys, [])[2]
