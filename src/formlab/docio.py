"""Reading and writing the JSON documents the command line speaks.

A document is an object with integer fields "n" and "k", an optional
"variance" of "form" (default) or "vector", and a list of "terms", each
holding a strictly integer multi-index "idx" plus an integer numerator
"num" and positive integer denominator "den".  Unsorted indices are
normalized with the alternating sign; repeated index sets are summed.
Optional "volume" (nonzero rational) and "metric" (n x n rational matrix)
ride along untouched and are interpreted by the caller.

This module reads every matrix the command line takes (parse_matrix: a
document's metric, --metric and --matrix) and formats every document a text
report prints (format_document).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any

from .exterior import Form, FormError, MultiIndex, Polyvector, normalize_index

__all__ = [
    "ParseError",
    "parse_rational",
    "parse_matrix",
    "parse_document",
    "element_to_document",
    "format_document",
]


class ParseError(ValueError):
    """A document violates the input format."""


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: not a rational: {value!r}") from exc
    raise ParseError(f"{where}: expected an integer or 'p/q' string")


def parse_matrix(raw: Any, where: str) -> list[list[Fraction]] | None:
    """The rational rows of a square list of lists, or None when raw is not one;
    a bad entry raises ParseError at where[i][j], counted from 1."""
    if not isinstance(raw, list) or any(not isinstance(row, list) or len(row) != len(raw) for row in raw):
        return None
    return [
        [parse_rational(x, f"{where}[{i + 1}][{j + 1}]") for j, x in enumerate(row)]
        for i, row in enumerate(raw)
    ]


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def parse_document(doc: Any) -> tuple[Form | Polyvector, Fraction | None, list[list[Fraction]] | None]:
    """Validate a document and build its element.

    Returns (element, volume, metric) with volume and metric still raw so
    the caller can apply command line overrides before constructing them.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    n = _require_int(doc.get("n"), "field 'n'")
    k = _require_int(doc.get("k"), "field 'k'")
    variance = doc.get("variance", "form")
    if variance not in ("form", "vector"):
        raise ParseError("field 'variance' must be 'form' or 'vector'")
    raw_terms = doc.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ParseError("field 'terms' must be a list")
    pairs: list[tuple[MultiIndex, int | Fraction]] = []
    for pos, term in enumerate(raw_terms, start=1):
        where = f"term {pos}"
        if not isinstance(term, dict):
            raise ParseError(f"{where}: must be an object")
        idx_raw = term.get("idx")
        if not isinstance(idx_raw, list):
            raise ParseError(f"{where}: 'idx' must be a list of integers")
        idx = tuple([_require_int(i, f"{where}: index entry") for i in idx_raw])
        if len(idx) != k:
            raise ParseError(f"{where}: index length {len(idx)} does not match k={k}")
        for i in idx:
            if not (1 <= i <= n):
                raise ParseError(f"{where}: index {i} outside 1..{n}")
        hit = normalize_index(idx)
        if hit is None:
            raise ParseError(f"{where}: repeated index in {list(idx)}")
        sorted_idx, sign = hit
        num = _require_int(term.get("num"), f"{where}: 'num'")
        den = _require_int(term.get("den", 1), f"{where}: 'den'")
        if den <= 0:
            raise ParseError(f"{where}: 'den' must be a positive integer")
        pairs.append((sorted_idx, sign * num if den == 1 else Fraction(sign * num, den)))
    cls = Form if variance == "form" else Polyvector
    try:
        # the constructor sums repeated index sets and drops zeros
        element = cls(n, k, pairs)
    except FormError as exc:
        raise ParseError(str(exc)) from exc
    volume = None
    if "volume" in doc:
        volume = parse_rational(doc["volume"], "field 'volume'")
    metric = None
    if "metric" in doc:
        raw = doc["metric"]
        if isinstance(raw, list) and len(raw) == n:
            metric = parse_matrix(raw, "metric")
        if metric is None:
            raise ParseError(f"field 'metric' must be an {n}x{n} matrix")
    return element, volume, metric


def element_to_document(x: Form | Polyvector) -> dict[str, Any]:
    return {
        "n": x.n,
        "k": x.k,
        "variance": "form" if isinstance(x, Form) else "vector",
        "terms": [
            {"idx": list(idx), "num": c // (g := gcd(c, x.den)), "den": x.den // g}
            for idx, c in sorted(x.nums.items())
        ],
    }


def format_document(doc: dict[str, Any]) -> str:
    """One line for a document written by element_to_document: "0", or its
    terms as c*e[i,...] (c*v[i,...] for a vector, c*1 for a scalar)."""
    base = "e" if doc["variance"] == "form" else "v"
    parts = []
    for term in doc["terms"]:
        idx = term["idx"]
        label = f"{base}[{','.join(map(str, idx))}]" if idx else "1"
        parts.append(f"{Fraction(term['num'], term['den'])}*{label}")
    return " + ".join(parts).replace("+ -", "- ") or "0"
