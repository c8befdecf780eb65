"""Command line front end.

docio reads every document and matrix the commands take and formats every
document a text report prints.

Exit codes: 0 on success, 2 when an input document or matrix file cannot be
parsed (ParseError), 3 when the request falls outside the supported domain
(FormError: dimension cap, invalid degree, singular matrix, zero volume,
trials and bound limits), 141 when the reader of stdout closed it before the
report was written (as in `formlab catalog 12 10 | true`): the code a shell
gives a process that SIGPIPE ends, 128 + 13.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from math import comb
from typing import Any

from .classify import (
    _check_coverage,
    catalog_entries,
    classify,
    sample_orbit_statistics,
)
from .docio import (
    ParseError,
    element_to_document,
    format_document,
    parse_document,
    parse_matrix,
    parse_rational,
)
from .exterior import (
    Form,
    FormError,
    InnerProduct,
    LinMap,
    Polyvector,
    VolumeForm,
    act,
    act_vectors,
    musical,
)
from .invariants import (
    _fingerprint,
    _kernel_reflection,
    length_and_sign,
    nilpotency_witness_degenerate,
    reduce_form,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PIPE = 141

MAX_TRIALS = 10**6


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> tuple[Any, str]:
    raw = _read_bytes(path)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8")), digest
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def _load_matrix(path: str, flag: str):
    """Square rational matrix from a JSON list of rows or an object with 'matrix'."""
    doc, _ = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    rows = parse_matrix(doc, flag)
    if rows is None:
        raise ParseError(f"{flag}: expected a square matrix or an object with 'matrix'")
    return rows


def _load_element(args: argparse.Namespace):
    doc, digest = _load_json(args.input)
    element, doc_volume, doc_metric = parse_document(doc)
    _check_coverage(element.n, element.k)
    volume = doc_volume
    if getattr(args, "volume", None) is not None:
        volume = parse_rational(args.volume, "--volume")
    metric_rows = doc_metric
    if getattr(args, "metric", None) is not None:
        metric_rows = _load_matrix(args.metric, "--metric")
        if len(metric_rows) != element.n:
            raise ParseError(f"--metric must be an {element.n}x{element.n} matrix")
    omega = None
    if volume is not None:
        if volume == 0:
            raise FormError("volume must be nonzero")
        omega = VolumeForm(element.n, volume)
    mu = None
    if metric_rows is not None:
        mu = InnerProduct(metric_rows)
    meta = {
        "sha256": digest,
        "n": element.n,
        "k": element.k,
        "variance": "form" if isinstance(element, Form) else "vector",
    }
    return element, omega, mu, meta


def _fingerprint_json(fp) -> dict[str, Any] | None:
    if fp is None:
        return None
    return {
        "rank_profile": list(fp.rank_profile),
        "stab_dim": fp.stab_dim,
        "killing": list(fp.killing_signature),
    }


def _length_sign_json(ls) -> dict[str, Any] | None:
    if ls is None:
        return None
    return {
        "length": ls.length,
        "lambda": None if ls.lam is None else str(ls.lam),
        "sign": ls.sign,
    }


def _matrix_json(m: LinMap) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def _as_form(element, mu, notes: list[str]) -> Form:
    if isinstance(element, Form):
        return element
    phi = musical(mu if mu is not None else InnerProduct.identity(element.n), element)
    notes.append("vector input classified through its metric dual form")
    return phi


def cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    element, omega, mu, meta = _load_element(args)
    notes: list[str] = []
    phi = _as_form(element, mu, notes)
    report = classify(phi, omega)
    return {
        "command": "classify",
        "input": meta,
        "verdict": {
            "kind": report.kind,
            "orbit_id": report.orbit_id,
            "candidates": list(report.candidates),
        },
        "invariants": {
            "rank": report.rank,
            "fingerprint": _fingerprint_json(report.fingerprint),
            "length_sign": _length_sign_json(report.length_sign),
        },
        "canonical": None
        if report.canonical is None
        else element_to_document(report.canonical),
        "components": report.components,
        "open": report.open,
        "notes": notes + list(report.notes),
    }


def cmd_invariants(args: argparse.Namespace) -> dict[str, Any]:
    element, omega, mu, meta = _load_element(args)
    notes: list[str] = []
    n, k = element.n, element.k
    out: dict[str, Any] = {"command": "invariants", "input": meta}
    inv: dict[str, Any] = {}
    witnesses: dict[str, Any] = {}
    phi = _as_form(element, mu, notes)
    # the Martinet length does not depend on the volume, so the fingerprint
    # reuses the length_sign taken here under the document's volume
    ls = None
    if k == n - 2 and n >= 3:
        ls = length_and_sign(phi, omega if omega is not None else VolumeForm(n))
    # one degree-1 solve: the reduction the fingerprint used (a zero form's
    # reduction solves nothing) gives the rank, the kernel and the witness
    fp, red, _ = _fingerprint(phi, ls)
    if k >= 1:
        if red is None:
            red = reduce_form(phi)
        # musical is invertible, so phi has the rank of the element
        r = red.r
        inv["rank"] = r
        inv["multisymplectic"] = r == n
        inv["kernel"] = [element_to_document(Polyvector.from_coords(v)) for v in red.kernel]
        inv["reduction"] = {"r": r, "reduced": element_to_document(red.reduced)}
        if r < n:
            if isinstance(element, Polyvector) and not element.is_zero:
                w = nilpotency_witness_degenerate(element)
                witnesses["nilpotency"] = {
                    "exponents": list(w.exponents),
                    "contraction_rate": w.rate,
                    "basis": _matrix_json(w.basis),
                }
            witnesses["orientation_reversing"] = _matrix_json(_kernel_reflection(red.kernel[0]))
    else:
        inv["rank"] = None
    orbit_dim = n * n - fp.stab_dim
    inv["stabilizer"] = {
        "dim": fp.stab_dim,
        "orbit_dimension": orbit_dim,
        "stable": orbit_dim == comb(n, k),
    }
    inv["fingerprint"] = _fingerprint_json(fp) if k >= 1 else None
    if ls is not None:
        inv["length_sign"] = _length_sign_json(ls)
    out["invariants"] = inv
    out["witnesses"] = witnesses
    out["notes"] = notes
    return out


def cmd_act(args: argparse.Namespace) -> dict[str, Any]:
    element, _omega, _mu, meta = _load_element(args)
    rows = _load_matrix(args.matrix, "--matrix")
    # before LinMap, whose determinant costs O(N^3) on an N x N matrix
    n = len(rows)
    if n != element.n:
        raise FormError(f"matrix is {n}x{n} but the element lives on R^{element.n}")
    g = LinMap(rows)
    moved = act(g, element) if isinstance(element, Form) else act_vectors(g, element)
    return {
        "command": "act",
        "input": meta,
        "determinant": str(g.det),
        "result": element_to_document(moved),
    }


def cmd_sample(args: argparse.Namespace) -> dict[str, Any]:
    _check_coverage(args.n, args.k)
    if not (1 <= args.trials <= MAX_TRIALS):
        raise FormError(f"trials must be within 1..{MAX_TRIALS}")
    if args.bound < 1:
        raise FormError("bound must be at least 1")
    hist = sample_orbit_statistics(args.n, args.k, args.trials, args.bound, args.seed)
    rows = sorted(
        ({"fingerprint": str(fp), "count": c} for fp, c in hist.items()),
        key=lambda row: (-row["count"], row["fingerprint"]),
    )
    return {
        "command": "sample",
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "bound": args.bound,
        "seed": args.seed,
        "histogram": rows,
    }


def cmd_catalog(args: argparse.Namespace) -> dict[str, Any]:
    entries = catalog_entries(args.n, args.k)
    rows = [
        {
            "name": e.name,
            "provenance": e.provenance,
            "components": e.components,
            "stabilizer_note": e.stabilizer_note,
            "representative": element_to_document(e.representative),
            "fingerprint": _fingerprint_json(e.fingerprint),
        }
        for e in entries
    ]
    out: dict[str, Any] = {
        "command": "catalog",
        "n": args.n,
        "k": args.k,
        "entries": rows,
    }
    if not rows:
        out["notes"] = [f"no catalog coverage for (n={args.n}, k={args.k})"]
    return out


def _fingerprint_lines(inv: dict[str, Any]) -> list[str]:
    """The fingerprint and length-sign lines shared by classify and invariants."""
    lines = []
    fp = inv.get("fingerprint")
    if fp is not None:
        lines.append(
            f"fingerprint: profile={tuple(fp['rank_profile'])} stab={fp['stab_dim']} killing={tuple(fp['killing'])}"
        )
    ls = inv.get("length_sign")
    if ls is not None:
        lines.append(f"length-sign: l={ls['length']} lambda={ls['lambda']} sign={ls['sign']}")
    return lines


def _render_text(report: dict[str, Any]) -> str:
    lines: list[str] = []
    command = report.get("command")
    meta = report.get("input")
    if meta:
        lines.append(
            f"input: n={meta['n']} k={meta['k']} variance={meta['variance']} sha256={meta['sha256'][:16]}"
        )
    if command == "classify":
        verdict = report["verdict"]
        if verdict["kind"] == "exact":
            lines.append(f"verdict: exact {verdict['orbit_id']}")
        elif verdict["kind"] == "candidates":
            lines.append("verdict: candidates " + ", ".join(verdict["candidates"]))
        else:
            lines.append("verdict: unknown")
        inv = report["invariants"]
        if inv["rank"] is not None:
            lines.append(f"rank: {inv['rank']}")
        lines.extend(_fingerprint_lines(inv))
        comp = report["components"]
        lines.append(f"components: {'undetermined' if comp is None else comp}")
        lines.append(f"open: {'yes' if report['open'] else 'no'}")
        if report["canonical"] is not None:
            lines.append(f"canonical: {format_document(report['canonical'])}")
    elif command == "invariants":
        inv = report["invariants"]
        for key in ("rank", "multisymplectic"):
            if key in inv and inv[key] is not None:
                lines.append(f"{key}: {inv[key]}")
        if "reduction" in inv:
            lines.append(f"reduction rank: {inv['reduction']['r']}")
        stab = inv["stabilizer"]
        lines.append(
            f"stabilizer dim: {stab['dim']} orbit dim: {stab['orbit_dimension']} stable: {stab['stable']}"
        )
        lines.extend(_fingerprint_lines(inv))
        for name in sorted(report.get("witnesses", {})):
            lines.append(f"witness available: {name}")
    elif command == "act":
        lines.append(f"determinant: {report['determinant']}")
        lines.append(f"result: {format_document(report['result'])}")
    elif command == "sample":
        lines.append(
            f"sample: n={report['n']} k={report['k']} trials={report['trials']} bound={report['bound']} seed={report['seed']}"
        )
        for row in report["histogram"]:
            lines.append(f"  {row['count']:6d}  {row['fingerprint']}")
    elif command == "catalog":
        lines.append(f"catalog: n={report['n']} k={report['k']} entries={len(report['entries'])}")
        for row in report["entries"]:
            comp = row["components"]
            comp_text = "?" if comp is None else str(comp)
            lines.append(f"  {row['name']} [{row['provenance']}] components={comp_text}")
            lines.append(f"    representative: {format_document(row['representative'])}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _document_args(volume_help: str):
    """input, --volume and --metric: the arguments of classify and invariants."""

    def add(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="JSON document path, or - for stdin")
        p.add_argument("--volume", help=volume_help)
        p.add_argument("--metric", help="JSON file with an n x n matrix")

    return add


def _act_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="JSON document path, or - for stdin")
    p.add_argument("--matrix", required=True, help="JSON file with the matrix")


def _dims_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)


def _sample_args(p: argparse.ArgumentParser) -> None:
    _dims_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bound", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)


# name -> (help, adds its arguments, handler), in the order of --help
_COMMANDS = {
    "classify": (
        "orbit verdict for a document",
        _document_args("volume scale as a rational, e.g. 3/2"),
        cmd_classify,
    ),
    "invariants": (
        "exact invariants and witnesses",
        _document_args("volume scale as a rational"),
        cmd_invariants,
    ),
    "act": ("apply a group element to a document", _act_args, cmd_act),
    "sample": ("fingerprint histogram of random forms", _sample_args, cmd_sample),
    "catalog": ("canonical forms known for (n, k)", _dims_args, cmd_catalog),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv: the top level plus the subcommand argv[0] names.

    Each ArgumentParser and add_argument costs tens of microseconds, and
    one call runs one subcommand, so only that one is built; when argv[0]
    names none (no arguments, -h, an unknown word, an option first), or
    argv is None, all five are, for the listing or the error.  A lone
    subcommand gets the full choice list as its metavar, so a top-level
    usage line reads as with all five.
    """
    parser = argparse.ArgumentParser(
        prog="formlab",
        description="exact orbit invariants and classification for alternating forms",
    )
    if argv and argv[0] in _COMMANDS:
        names = argv[:1]
        # set only here: with all five, argparse names the action `command`
        # in "invalid choice" and "required" errors, not by its metavar
        metavar = "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="text report or deterministic JSON",
        )
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; argv defaults to sys.argv[1:].

    The parser is built afresh in every call, as a new process would, but
    holds only the subcommand that argv names (see build_parser).
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        report = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "structured":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _render_text(report)
    try:
        print(text)
        # flush inside the try, so a closed pipe is met here and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush writes nothing and raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
