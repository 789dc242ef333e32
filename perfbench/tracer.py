"""Spans around the program's public functions, recorded from outside.

The tracer replaces each public function where its callers look it up (a
module global, a name imported into another module, or a class attribute)
with a wrapper that records a span: name, parent span, start and end.
Spans are kept in flat arrays in memory and written out when the run
ends; self time is computed from them afterwards.

Counting that needs work (series lengths, degree histograms) runs inside
the wrapper but off the span clock: ``clock()`` is ``perf_counter`` minus
the time spent counting, so spans and their self times exclude it.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from taumap import cli, coefficients, confmap, moments, potential, series, verify

COEFF_FAMILIES = ("n1", "t2", "t1", "s", "p")


class Tracer:
    """Spans in flat arrays, per-op counters, and the wrappers to undo."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.caches: list = []
        self.unmeasured: list[str] = []
        self.paused = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return perf_counter() - self.paused

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(self._name_id(name))
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, targets, name: str, count=None, on_result=None) -> None:
        """Replace one function at every ``(owner, attribute)`` that holds it.

        ``count(counts, args)`` runs before the call and ``on_result(counts,
        result)`` after it, both off the span clock.
        """
        found = [(o, a) for o, a in targets if a in vars(o)]
        if not found:
            self.unmeasured.append(name)
            return
        fn = vars(found[0][0])[found[0][1]]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                t = perf_counter()
                count(tracer.counts, args)
                tracer.paused += perf_counter() - t
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                t = perf_counter()
                on_result(tracer.counts, result)
                tracer.paused += perf_counter() - t
            return result

        for owner, attr in found:
            if vars(owner)[attr] is fn:
                self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``, remembering the old value for ``uninstall``."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- self time -----------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds.

        Covers spans ``first..last-1``, which must be whole trees.
        """
        child = defaultdict(float)
        for sid in range(first, last):
            p = self.parent[sid]
            if p >= first:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = {}
        for sid in range(first, last):
            dur = self.end[sid] - self.start[sid]
            row = out.setdefault(self.names[self.name[sid]],
                                 {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["wall_s"] += dur
            row["self_s"] += dur - child[sid]
        return out

    def truncate(self, count: int) -> None:
        """Forget every span after the first ``count``."""
        for column in (self.parent, self.name, self.start, self.end):
            del column[count:]

    def write(self, path: Path) -> None:
        """Gzipped JSON lines ``[id, parent, name, start, end]`` after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "unmeasured": self.unmeasured}) + "\n")
            for sid in range(len(self.start)):
                fh.write(f"[{sid},{self.parent[sid]},{self.name[sid]},"
                         f"{self.start[sid]!r},{self.end[sid]!r}]\n")


# -- counters ----------------------------------------------------------------


def _count_mul(counts, args) -> None:
    a, b = args[0], args[1]
    if not isinstance(b, series.TruncatedSeries):
        return
    counts["series.mul.pairs"] += len(a) * len(b)
    deg_max = a.policy.deg_max
    hist_b = Counter(m.degree for m, _ in b.items())
    cum = [0] * (deg_max + 1)
    run = 0
    for d in range(deg_max + 1):
        run += hist_b.get(d, 0)
        cum[d] = run
    counts["series.mul.admissible_pairs"] += sum(
        n * cum[deg_max - d]
        for d, n in Counter(m.degree for m, _ in a.items()).items()
        if d <= deg_max
    )


def _count_evaluate(counts, args) -> None:
    counts["series.evaluate.terms"] += len(args[0])


def _count_build(counts, result) -> None:
    report = result[1]
    counts["potential.keys_evaluated"] += report.keys_evaluated
    counts["potential.nonzero_terms"] += report.nonzero_terms


def install(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach, where it is looked up."""
    C, P, V, M, F, S = coefficients, potential, verify, moments, confmap, cli
    TS = series.TruncatedSeries
    w = tracer.wrap
    # Coefficient recursion goes through the module globals.
    w([(C, "n1_coefficient")], "coefficients.n1")
    w([(C, "t2_coefficient")], "coefficients.t2")
    w([(C, "t1_coefficient")], "coefficients.t1")
    w([(C, "s_coefficient")], "coefficients.s")
    w([(C, "bounded_compositions_count"), (S, "bounded_compositions_count")],
      "coefficients.p")
    w([(P, "build_potential"), (V, "build_potential"), (S, "build_potential")],
      "potential.build", on_result=_count_build)
    w([(P, "cauchy_data_check"), (S, "cauchy_data_check")], "potential.oracles")
    w([(P, "ellipse_oracle_check"), (S, "ellipse_oracle_check")], "potential.oracles")
    w([(TS, "__mul__"), (TS, "__rmul__")], "series.mul", count=_count_mul)
    w([(TS, "__add__"), (TS, "__radd__")], "series.add")
    w([(TS, "exp_no_constant")], "series.exp")
    w([(TS, "diff_t0")], "series.diff")
    w([(TS, "diff_t")], "series.diff")
    w([(TS, "evaluate")], "series.evaluate", count=_count_evaluate)
    w([(F, "map_from_potential"), (V, "map_from_potential"), (S, "map_from_potential")],
      "confmap.map")
    w([(F, "evaluate_map")], "confmap.evaluate_map")
    w([(M, "moments_from_curve"), (V, "moments_from_curve"), (S, "moments_from_curve")],
      "moments.quadrature")
    w([(V, "toda_residual_a"), (S, "toda_residual_a")], "verify.residual_a")
    w([(V, "toda_residual_b"), (S, "toda_residual_b")], "verify.residual_b")
    w([(V, "toda_residual_c"), (S, "toda_residual_c")], "verify.residual_c")
    w([(V, "factorial_pattern_check"), (S, "factorial_pattern_check")],
      "verify.factorial_pattern")
    w([(V, "roundtrip"), (S, "roundtrip")], "verify.roundtrip")
    w([(S, "main")], "cli.verify")

    # Caches created while tracing are recorded, for their table sizes.
    cache_cls = getattr(C, "MemoCache", None)
    if cache_cls is None:
        tracer.unmeasured.append("coefficients.MemoCache")
        return

    class RecordedCache(cache_cls):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            tracer.caches.append(self)

    for owner in (C, S):
        if vars(owner).get("MemoCache") is cache_cls:
            tracer.replace(owner, "MemoCache", RecordedCache)


def layer_metrics(tracer: Tracer, first: int, last: int, op_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op (spans ``first..last-1``)."""
    spans = tracer.summarize(first, last)
    counts = tracer.counts

    def row(name):
        return spans.get(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    tables = Counter()
    for cache in tracer.caches:
        tables.update(cache.sizes())
    for fam in COEFF_FAMILIES:
        r = row(f"coefficients.{fam}")
        out[f"coefficients.{fam}.calls"] = r["calls"]
        out[f"coefficients.{fam}.self_s"] = r["self_s"]
        out[f"coefficients.{fam}.table"] = tables[fam]
        out[f"coefficients.{fam}.hit_ratio"] = ratio(r["calls"] - tables[fam], r["calls"])
    r = row("potential.build")
    out["potential.build.calls"] = r["calls"]
    out["potential.build.self_s"] = r["self_s"]
    out["potential.keys_evaluated"] = counts["potential.keys_evaluated"]
    out["potential.nonzero_terms"] = counts["potential.nonzero_terms"]
    out["potential.useful_key_ratio"] = ratio(
        counts["potential.nonzero_terms"], counts["potential.keys_evaluated"]
    )
    out["potential.oracles.self_s"] = row("potential.oracles")["self_s"]
    for op in ("mul", "add", "exp", "diff", "evaluate"):
        r = row(f"series.{op}")
        out[f"series.{op}.calls"] = r["calls"]
        out[f"series.{op}.self_s"] = r["self_s"]
    out["series.mul.pairs"] = counts["series.mul.pairs"]
    out["series.mul.admissible_pair_ratio"] = ratio(
        counts["series.mul.admissible_pairs"], counts["series.mul.pairs"]
    )
    out["series.evaluate.terms"] = counts["series.evaluate.terms"]
    for op in ("map", "evaluate_map"):
        r = row(f"confmap.{op}")
        out[f"confmap.{op}.calls"] = r["calls"]
        out[f"confmap.{op}.self_s"] = r["self_s"]
    r = row("moments.quadrature")
    out["moments.quadrature.calls"] = r["calls"]
    out["moments.quadrature.self_s"] = r["self_s"]
    for check in ("residual_a", "residual_c"):
        r = row(f"verify.{check}")
        out[f"verify.{check}.wall_s"] = r["wall_s"]
        out[f"verify.{check}.self_s"] = r["self_s"]
    out["verify.factorial_pattern.wall_s"] = row("verify.factorial_pattern")["wall_s"]
    out["verify.roundtrip.wall_s"] = row("verify.roundtrip")["wall_s"]
    out["cli.verify.self_s"] = row("cli.verify")["self_s"]
    layer_self = sum(v["self_s"] for k, v in spans.items() if k != "op")
    out["trace.attributed_ratio"] = ratio(layer_self, op_s)
    return {k: v for k, v in out.items() if _source(k) not in tracer.unmeasured}


def _source(metric: str) -> str:
    """The wrap (span name) a metric is measured from."""
    if metric.endswith((".table", ".hit_ratio")):
        return "coefficients.MemoCache"
    if metric.startswith("potential.") and metric.split(".")[1] in (
        "keys_evaluated", "nonzero_terms", "useful_key_ratio"
    ):
        return "potential.build"
    return metric.rsplit(".", 1)[0]
