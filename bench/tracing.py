"""Span tracing for the benchmark's traced run.

Nothing under src/ knows about tracing.  Tracer.installed() wraps formlab's
public functions at each module boundary for the duration of a `with` block
and restores the originals afterwards:

* A module calls the layer below through names it imported, so a function
  is wrapped under every module name that refers to it, in the calling
  module's namespace.  Intra-module calls of a wrapped name (classify
  calling itself on the reduced form, fingerprint calling rank_profile) go
  through the module global and are traced as well.
* linalg.row_echelon_int is also wrapped inside linalg, which splits
  nullspace_rows into the Bareiss forward pass (a child span) and the
  back-substitution (its self time).
* LinMap is a class that callers also use in isinstance checks, so its
  constructor is wrapped in place of the name.

A wrapper records a span only while an operation span opened by
Tracer.run_op is on the stack; the benchmark's own untimed checks call the
same names and pass straight through.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from math import comb
from time import perf_counter

LAYERS = ("linalg", "exterior", "invariants", "classify", "docio", "cli")

# Public functions wrapped per layer.  as_fraction, normalize_index and
# contract_sign are left out: they run millions of times per operation and
# a wrapper would cost more than they do.
WRAPPED = {
    "linalg": (
        "row_echelon_int",
        "rank_rows",
        "nullspace_rows",
        "det_fraction",
        "inverse_fraction",
        "inertia_fraction",
        "skew_pairs",
    ),
    "exterior": (
        "LinMap",
        "act",
        "pullback",
        "act_vectors",
        "wedge",
        "interior",
        "musical",
        "poincare_inv",
    ),
    "invariants": (
        "rank",
        "kernel_vectors",
        "is_multisymplectic",
        "reduce_form",
        "stabilizer_algebra",
        "orbit_dimension",
        "is_stable",
        "length_and_sign",
        "nilpotency_witness_degenerate",
        "orientation_reversing_stabilizer_witness",
    ),
    "classify": (
        "rank_profile",
        "killing_signature",
        "fingerprint",
        "catalog_entries",
        "match_catalog",
        "classify_two_form",
        "classify_codim_two",
        "classify",
        "sample_orbit_statistics",
    ),
    "docio": ("parse_document", "element_to_document", "parse_rational"),
    "cli": ("main",),
}

# The span that times one whole operation; its self time is the
# benchmark's own share of the operation's wall time.
OP_SPAN = "bench.op"

# Counts computed from arguments and results; they repeat exactly for a
# given seed because the traced run replays a fixed list of operations.
COUNT_METRICS = (
    "exterior.act.minors",
    "invariants.stabilizer_algebra.dim_sum",
    "classify.killing_signature.s4_sum",
    "linalg.nullspace_rows.cells",
)
# classify.exact_share is derived from the last two.
COUNT_NAMES = COUNT_METRICS + ("classify.verdicts", "classify.exact")


def _count_minors(counts, args, result):
    x = args[1]
    counts["exterior.act.minors"] += len(x.terms) * comb(x.n, x.k)


def _count_stab(counts, args, result):
    counts["invariants.stabilizer_algebra.dim_sum"] += result.dim


def _count_killing(counts, args, result):
    s, n = args[0].dim, args[0].n
    if 0 < s < n * n:  # the O(s^4) generic path; 0 and gl(n) are closed forms
        counts["classify.killing_signature.s4_sum"] += s**4


def _count_cells(counts, args, result):
    counts["linalg.nullspace_rows.cells"] += len(args[0]) * args[1]


def _count_verdict(counts, args, result):
    counts["classify.verdicts"] += 1
    if result.kind == "exact":
        counts["classify.exact"] += 1


HOOKS = {
    "exterior.act": _count_minors,
    "exterior.pullback": _count_minors,
    "exterior.act_vectors": _count_minors,
    "invariants.stabilizer_algebra": _count_stab,
    "classify.killing_signature": _count_killing,
    "linalg.nullspace_rows": _count_cells,
    "classify.classify": _count_verdict,
    "classify.classify_two_form": _count_verdict,
    "classify.classify_codim_two": _count_verdict,
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer in LAYERS for name in WRAPPED[layer])


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out.append(("bench.self_ms", "ms", "lower"))
    # Cold catalog builds run in child spans (fingerprint, stabilizer), so
    # the build cost is the inclusive time.
    out.append(("classify.catalog_entries.total_ms", "ms", "lower"))
    out.extend((name, "count", "lower") for name in COUNT_METRICS)
    out.append(("classify.exact_share", "ratio", "higher"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Tracer:
    """Spans of one traced pass, kept in memory.

    Every span is folded into per-name and per-(parent, name) totals as it
    closes.  Raw spans (op, id, parent id, name, start, end) are kept up to
    raw_cap, since the action kernels open hundreds of thousands of
    det_fraction spans per pass.
    """

    def __init__(self, raw_cap: int = 100_000):
        self.stack: list[list] = []
        self.by_name: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.by_edge: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.spans: list[tuple] = []
        self.raw_cap = raw_cap
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, frame, end: float) -> None:
        name, start, child, span_id = frame
        dur = end - start
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        own = dur - child
        entry = self.by_name.get(name)
        if entry is None:
            self.by_name[name] = [1, own, dur]
        else:
            entry[0] += 1
            entry[1] += own
            entry[2] += dur
        key = (parent[0] if parent is not None else "", name)
        edge = self.by_edge.get(key)
        if edge is None:
            self.by_edge[key] = [1, dur, own]
        else:
            edge[0] += 1
            edge[1] += dur
            edge[2] += own
        if len(self.spans) < self.raw_cap:
            parent_id = parent[3] if parent is not None else -1
            self.spans.append((self.op, span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        stack = self.stack
        close = self._close
        hook = HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                close(frame, end)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def run_op(self, index: int, fn, *args):
        """Call fn(*args) as operation `index`; returns (result, seconds)."""
        self.op = index
        frame = [OP_SPAN, 0.0, 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        frame[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(frame, end)
        return result, end - frame[1]

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        modules = {layer: importlib.import_module(f"formlab.{layer}") for layer in LAYERS}
        try:
            for layer in LAYERS:
                home = modules[layer]
                for name in WRAPPED[layer]:
                    orig = getattr(home, name)
                    span = f"{layer}.{name}"
                    if isinstance(orig, type):
                        self._patch(orig, "__init__", self._wrap(span, orig.__init__))
                        continue
                    traced = self._wrap(span, orig)
                    for mod in modules.values():
                        if mod.__dict__.get(name) is orig:
                            self._patch(mod, name, traced)
            yield self
        finally:
            while self._saved:
                owner, attr, value = self._saved.pop()
                setattr(owner, attr, value)

    def self_ms(self, name: str) -> float:
        entry = self.by_name.get(name)
        return entry[1] * 1000.0 if entry else 0.0

    def total_ms(self, name: str) -> float:
        entry = self.by_name.get(name)
        return entry[2] * 1000.0 if entry else 0.0

    def calls(self, name: str) -> int:
        entry = self.by_name.get(name)
        return entry[0] if entry else 0
