"""Spans and counters for the traced run, recorded from outside the package.

The traced run replaces the names each braidrep module calls with wrappers:
timed wrappers record a span (name, start, end, parent, op id) in memory,
count-only wrappers bump a counter.  Nothing under src/ changes, and
restore() puts every original back.  A layer's self time is the duration
of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

DOMAINS = ("rational", "laurent", "complex")

# per-layer metric -> span whose self time it sums
SELF_TIMES = {
    "analysis.burnside_dimension_s": "analysis.burnside_dimension",
    "analysis.corank_s": "analysis.corank",
    "analysis.jordan_projection_s": "analysis.jordan_projection",
    "analysis.theta_cycle_audit_s": "analysis.theta_cycle_audit",
    "classification.classify_self_s": "classification.classify",
    "classification.recover_parameters_self_s": "classification.recover_parameters",
    "classification.certify_equivalence_self_s": "classification.certify_equivalence",
    "cli.main_self_s": "cli.main",
    "matrix.eigen_numeric_s": "matrix.eigen_numeric",
    "matrix.intertwiner_space_s": "matrix.intertwiner_space",
    "matrix.inverse_s": "matrix.inverse",
    "matrix.rank_exact_s": "matrix.rank_exact",
    "matrix.rank_numeric_s": "matrix.rank_numeric",
    "reps.check_braid_relations_s": "reps.check_braid_relations",
    "reps.rep_from_json_s": "reps.rep_from_json",
    "reps.specialize_s": "reps.specialize",
    "reps.standard_rep_s": "reps.standard_rep",
}

COUNTS = (
    ["analysis.span_generations", "laurent.eval_calls", "laurent.mul_calls",
     "matrix.intertwiner_svd_bytes", "cli.report_bytes"]
    + ["matrix.%s.%s" % (c, d) for c in
       ("mat_entries_built", "matmul_calls", "matmul_entry_products") for d in DOMAINS]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def timed(self, name: str, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) may add counts."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None,
                          self.op_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    def counted(self, fn, count):
        """Wrap fn so that count(counts, args, result) runs after each call."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by make_wrapper(original).

        A missing name raises, so a renamed layer fails the traced run
        instead of reading as zero.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make_wrapper(original)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def layer_metrics(self) -> dict:
        selfs = self.self_times()
        out = {m: (selfs.get(span, 0.0), "s") for m, span in SELF_TIMES.items()}
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# -- counters ----------------------------------------------------------------


def _count_entries(counts, args, result):
    m = args[0]
    counts["matrix.mat_entries_built." + m.domain.value] += m.rows * m.cols


def _count_matmul(counts, args, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["matrix.matmul_calls." + a.domain.value] += 1
    counts["matrix.matmul_entry_products." + a.domain.value] += a.rows * a.cols * b.cols


def _count_svd_bytes(counts, args, result):
    a_mats, b_mats = args[0], args[1]
    if a_mats[0].domain.value == "complex":
        r, s = a_mats[0].rows, b_mats[0].rows
        # stacked system: len(a) * r * s rows, r * s columns, complex128
        counts["matrix.intertwiner_svd_bytes"] += len(a_mats) * r * s * r * s * 16


def _count_generations(counts, args, result):
    counts["analysis.span_generations"] += result.generations


def _bump(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


def install(tracer: Tracer, cli, reps, analysis, classification, matrix, laurent) -> None:
    """Wrap the calls each module makes into the next layer."""
    spans = {
        "reps.rep_from_json": [(cli, "rep_from_json")],
        "reps.standard_rep": [(cli._FAMILIES, "standard"), (classification, "standard_rep")],
        "reps.specialize": [(cli, "specialize"), (classification, "specialize")],
        "reps.check_braid_relations": [(reps, "check_braid_relations"),
                                       (cli, "check_braid_relations"),
                                       (classification, "check_braid_relations")],
        "classification.classify": [(cli, "classify")],
        "classification.recover_parameters": [(classification, "recover_parameters")],
        "classification.certify_equivalence": [(classification, "certify_equivalence")],
        "analysis.burnside_dimension": [(cli, "burnside_dimension"),
                                        (classification, "burnside_dimension")],
        "analysis.corank": [(cli, "corank"), (classification, "corank")],
        "analysis.jordan_projection": [(cli, "jordan_projection")],
        "analysis.theta_cycle_audit": [(cli, "theta_cycle_audit")],
        "matrix.intertwiner_space": [(classification, "intertwiner_space")],
        "matrix.eigen_numeric": [(cli, "eigen_numeric"), (analysis, "eigen_numeric"),
                                 (classification, "eigen_numeric")],
        "matrix.rank_exact": [(analysis, "rank_exact")],
        "matrix.rank_numeric": [(analysis, "rank_numeric")],
        "matrix.inverse": [(matrix.Mat, "inverse")],
    }
    after = {
        "analysis.burnside_dimension": _count_generations,
        "matrix.intertwiner_space": _count_svd_bytes,
    }
    for name, sites in spans.items():
        for owner, attr in sites:
            tracer.patch(owner, attr,
                         lambda fn, name=name: tracer.timed(name, fn, after.get(name)))
    counters = [
        (matrix.Mat, "__init__", _count_entries),
        (matrix.Mat, "__matmul__", _count_matmul),
        (laurent.LaurentPoly, "__mul__", _bump("laurent.mul_calls")),
        (laurent.LaurentPoly, "eval", _bump("laurent.eval_calls")),
    ]
    for owner, attr, count in counters:
        tracer.patch(owner, attr, lambda fn, count=count: tracer.counted(fn, count))
