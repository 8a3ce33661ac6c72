"""Outside-in tracing of the slpkit layers.

``Tracer.install()`` replaces every listed public function with a timing
wrapper in each module namespace that bound it (``eigenvalues`` lives in
``slpkit.spectra``, ``slpkit.tracing``, ``slpkit.cli`` and ``slpkit``), and
``uninstall()`` puts the originals back; the benchmark installs them only
around traced ops.  A wrapper records a span (name, start, end, parent)
while ``enabled`` is true and is a plain pass-through otherwise, so the
benchmark's own output checks are never counted.
numpy kernels are counted, not timed: their time stays in the self time of
the slpkit function that called them.

A function that a later version of the package renames or deletes cannot
be wrapped; it is reported as unmeasured (null), never as 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (layer, metric name, module holding the original, attribute path, mode)
#   mode "span": timed span; "count": call count only;
#   "property": call count of a property getter
TARGETS = (
    ("model", "validate_equation", "slpkit.model", "validate_equation", "span"),
    ("model", "BoundaryCondition", "slpkit.model", "BoundaryCondition.__init__", "span"),
    ("model", "BoundaryCondition.scale", "slpkit.model", "BoundaryCondition.scale", "property"),
    ("spectra", "eigenvalues", "slpkit.spectra", "eigenvalues", "span"),
    ("spectra", "char_poly", "slpkit.spectra", "char_poly", "span"),
    ("spectra", "fundamental_solutions", "slpkit.spectra", "fundamental_solutions", "span"),
    ("spectra", "rank_r", "slpkit.spectra", "rank_r", "span"),
    ("spectra", "theta", "slpkit.spectra", "theta", "span"),
    ("charts", "covering_charts", "slpkit.charts", "covering_charts", "span"),
    ("charts", "normalize_to_chart", "slpkit.charts", "normalize_to_chart", "span"),
    ("charts", "canonical_form", "slpkit.charts", "canonical_form", "span"),
    ("charts", "row_span_distance", "slpkit.charts", "row_span_distance", "span"),
    ("discontinuity", "chart_tests", "slpkit.discontinuity", "_chart_tests", "span"),
    ("tracing", "trace", "slpkit.tracing", "trace", "span"),
    ("tracing", "classify_jump", "slpkit.tracing", "classify_jump", "span"),
    ("tracing", "verify_asymptotic_theorem", "slpkit.tracing", "verify_asymptotic_theorem", "span"),
    ("tracing", "Family.resolve", "slpkit.tracing", "Family.resolve", "count"),
    ("cli", "main", "slpkit.cli", "main", "span"),
    ("numpy", "linalg.svd", "numpy.linalg", "svd", "count"),
    ("numpy", "linalg.inv", "numpy.linalg", "inv", "count"),
    ("numpy", "linalg.eigvalsh", "numpy.linalg", "eigvalsh", "count"),
    ("numpy", "linalg.eigh", "numpy.linalg", "eigh", "count"),
    ("numpy", "polynomial.polyval", "numpy.polynomial.polynomial", "polyval", "count"),
)

# failure types named in BENCHMARK.json; others appear in the detail line
DECLARED_FAILS = {
    "spectra.eigenvalues": ("DegreeMismatch", "NonRealRoot"),
    "tracing.verify_asymptotic_theorem": ("PatternMismatch",),
}

_MAX_SPANS = 400_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.missing: set = set()  # metric keys whose function no longer exists
        self._plan = None  # [(owner, attribute, original, wrapper)]
        self._names: list = []
        self._stack: list = []  # open spans: [name_id, start, child_time, span_index]
        self.spans: list = []  # (name_id, start, end, parent span index or -1)
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.fails: Counter = Counter()  # (key, exception type) -> count
        self.grid_points = 0
        self.events = 0
        self.resolves_in_trace = 0
        self.classify_eig_ok = 0
        self.classify_eig_failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._fundamental = None
        self._in_trace = 0
        self._in_classify = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; the wrappers are built on the first call and
        reused, so installing around each traced op is cheap."""
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _build_plan(self) -> list:
        plan = []
        for layer, name, module_name, path, mode in TARGETS:
            key = f"{layer}.{name}"
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                self.missing.add(key)
                continue
            is_class = isinstance(owner, type)
            original = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
            if original is None:
                self.missing.add(key)
                continue
            if mode == "property":
                wrapped = property(self._counter(key, original.fget))
            elif mode == "count":
                wrapped = self._counter(key, original)
            else:
                wrapped = self._spanner(key, original)
            if key == "spectra.fundamental_solutions":
                self._fundamental = original
            if is_class:
                plan.append((owner, attr, original, wrapped))
                continue
            # every slpkit namespace that bound the same object
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod is module or mod_name == "slpkit"
                                       or mod_name.startswith("slpkit.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, bound, original, wrapped))
        return plan

    # -- wrappers -------------------------------------------------------------

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[key] += 1
                if key == "tracing.Family.resolve" and self._in_trace:
                    self.resolves_in_trace += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, key, fn):
        name_id = len(self._names)
        self._names.append(key)
        is_trace = key == "tracing.trace"
        is_classify = key == "tracing.classify_jump"
        is_eig = key == "spectra.eigenvalues"

        def spanned(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_trace:
                self._in_trace += 1
                self.grid_points += int(kwargs.get("grid_size", args[1] if len(args) > 1 else 0))
            if is_classify:
                self._in_classify += 1
            parent = self._stack[-1][3] if self._stack else -1
            if len(self.spans) < _MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [name_id, 0.0, 0.0, index]
            self._stack.append(frame)
            failed = None
            frame[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][2] += duration
                self.calls[key] += 1
                self.total_s[key] += duration
                self.self_s[key] += duration - frame[2]
                if index >= 0:
                    self.spans[index] = (name_id, start, end, parent)
                if failed is not None:
                    self.fails[(key, failed)] += 1
                if is_trace:
                    self._in_trace -= 1
                if is_classify:
                    self._in_classify -= 1
                if is_eig and self._in_classify:
                    if failed is None:
                        self.classify_eig_ok += 1
                    else:
                        self.classify_eig_failed += 1
            if is_trace:
                self.events += len(result.events)
            return result

        return spanned

    # -- per-op hooks -----------------------------------------------------------

    def begin_op(self) -> None:
        self.enabled = True

    def end_op(self) -> None:
        """Stop recording and fold in the fundamental-solution cache counters
        of the op (the cache is cleared before every op)."""
        self.enabled = False
        if self._fundamental is not None:
            info = self._fundamental.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses

    # -- results ----------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, every one averaged per traced op; ratios are
        0 when their base is empty in this workload (e.g. grid points on
        ``spectrum-corpus``)."""
        per_op = 1.0 / max(n_ops, 1)
        out: dict = {}
        for layer, name, _, _, mode in TARGETS:
            key = f"{layer}.{name}"
            missing = key in self.missing
            out[f"{key}.calls"] = None if missing else self.calls[key] * per_op
            if mode == "span":
                out[f"{key}.total_ms"] = None if missing else 1e3 * self.total_s[key] * per_op
                out[f"{key}.self_ms"] = None if missing else 1e3 * self.self_s[key] * per_op
        for key, types in DECLARED_FAILS.items():
            for exc_type in types:
                out[f"{key}.fail.{exc_type}"] = (
                    None if key in self.missing else self.fails[(key, exc_type)] * per_op
                )
        fund = "spectra.fundamental_solutions"
        unmeasured = fund in self.missing
        out[f"{fund}.hits"] = None if unmeasured else self.cache_hits * per_op
        out[f"{fund}.misses"] = None if unmeasured else self.cache_misses * per_op
        out.update(group_ratios(self.base_counts()))
        if unmeasured:
            out[f"{fund}.hit_ratio"] = None
        out["tracing.classify_jump.eigenvalues_ok_ratio"] = _ratio(
            self.classify_eig_ok, self.classify_eig_ok + self.classify_eig_failed
        )
        # refinement work beyond one resolve per grid point, per returned event
        out["tracing.refine_resolves_per_event"] = _ratio(
            max(self.resolves_in_trace - self.grid_points, 0), self.events
        )
        return out

    def base_counts(self) -> dict:
        """Running totals behind the waste ratios; the difference of two
        snapshots gives the ratios of the ops in between."""
        return {
            "resolves": self.calls["tracing.Family.resolve"],
            "svd": self.calls["numpy.linalg.svd"],
            "polyval": self.calls["numpy.polynomial.polyval"],
            "solves": self.calls["spectra.eigenvalues"],
            "points": self.grid_points,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
        }

    def other_fails(self) -> dict:
        declared = {(k, t) for k, types in DECLARED_FAILS.items() for t in types}
        return {f"{k}.fail.{t}": n for (k, t), n in sorted(self.fails.items())
                if (k, t) not in declared}

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end in microseconds from
        the first span, and the index of the parent span (-1 at top)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self._names[name_id], round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3), parent]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def group_ratios(counts: dict) -> dict:
    """The waste ratios of one group of ops from summed ``base_counts``."""
    return {
        "tracing.resolves_per_point": _ratio(counts["resolves"], counts["points"]),
        "numpy.svd_per_point": _ratio(counts["svd"], counts["points"]),
        "numpy.polyval_per_solve": _ratio(counts["polyval"], counts["solves"]),
        "spectra.fundamental_solutions.hit_ratio": _ratio(
            counts["hits"], counts["hits"] + counts["misses"]),
    }
