"""Spans around every public call that crosses a layer boundary.

The layers are the program's modules.  ``install`` replaces, in each module's
namespace, every public function that module imported from *another* module
with a wrapper that records a span (name, start, end, parent, request id).
Calls inside one module stay unwrapped, so only boundary crossings show.
Nothing in the program's source changes; spans are kept in memory and
written out when the run ends.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "feqlab"
# called by name inside their own module, but each is a layer entry point
ENTRY_POINTS = {("feqlab.cli", "main"), ("feqlab.cli", "load_instance_file")}
ORACLE_KINDS = ("van_vleck", "kannappan", "dalembert")
CONSTRUCTORS = ("families.van_vleck_family", "families.kannappan_abelian_family",
                "families.dalembert_abelian_family")


def _observe(counts: Counter, name: str, args, kwargs, result, seconds: float) -> None:
    """Work counts taken at the boundary, from arguments and results."""
    if name == "characters.enumerate_multiplicative":
        counts["characters.found"] += len(result)
    elif name in CONSTRUCTORS:
        counts["families.members"] += len(result)
    elif name == "oracle.oracle_solve":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is None:
            cfg = sys.modules[PACKAGE + ".oracle"].OracleConfig()
        counts["oracle.restarts"] += cfg.restarts
        counts["oracle.found"] += len(result)
        counts[f"oracle.solve_s.{args[0]}"] += seconds
    elif name == "oracle.match_solution_sets":
        counts["oracle.matched"] += len(result.pairs)


class Tracer:
    """In-memory spans and boundary counts.  Each thread keeps its own span
    stack, so a span's parent is always on the caller's thread."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        _observe(self.counts, name, args, kwargs, result, record[2] - record[1])
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                if home != mod.__name__ or (home, attr) in ENTRY_POINTS:
                    layer = home.split(".", 1)[1]
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op."""
    def noop():
        return ()

    traced = Tracer().wrap("probe.noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover (children of one
    span run one after another on the caller's thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


SUM_OF = {
    "cli.main_s": ("cli.main",),
    "cli.load_s": ("cli.load_instance_file",),
    "semigroups.validate_s": ("semigroups.validate_semigroup",),
    "semigroups.involution_s": ("semigroups.validate_involution",),
    "measures.build_s": ("measures.central_measure",),
    "characters.enumerate_s": ("characters.enumerate_multiplicative",),
    "families.suite_s": ("families.van_vleck_identity_suite", "families.kannappan_identity_suite",
                         "families.dalembert_integral_conditions"),
    "families.bijection_s": ("families.kannappan_to_dalembert", "families.dalembert_to_kannappan",
                             "families.dalembert_admissible"),
    "equations.residual_s": ("equations.residual_van_vleck", "equations.residual_kannappan",
                             "equations.residual_dalembert"),
    "oracle.match_s": ("oracle.match_solution_sets",),
}
LAYERS = ("cli", "semigroups", "measures", "characters", "equations", "families", "oracle")


def layer_metrics(tracer: Tracer, thin_warnings: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: (value, unit) by name."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    for (name, start, end, _, _), s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += s
        self_by_layer[name.split(".", 1)[0]] += s
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SUM_OF.items():
        out[metric] = (sum(total[n] for n in names), "s")
    out["cli.self_s"] = (self_by_name["cli.main"], "s")
    out["cli.requests"] = (calls["cli.main"], "count")
    out["characters.enumerate_calls"] = (calls["characters.enumerate_multiplicative"], "count")
    out["characters.found"] = (tracer.counts["characters.found"], "count")
    # builders call the enumerator and residual evaluators; count their own work only
    out["families.construct_s"] = (sum(self_by_name[n] for n in CONSTRUCTORS), "s")
    out["families.members"] = (tracer.counts["families.members"], "count")
    out["equations.residual_calls"] = (
        sum(calls[n] for n in SUM_OF["equations.residual_s"]), "count")
    for kind in ORACLE_KINDS:
        out[f"oracle.solve_s.{kind}"] = (tracer.counts[f"oracle.solve_s.{kind}"], "s")
    solve_total = sum(tracer.counts[f"oracle.solve_s.{kind}"] for kind in ORACLE_KINDS)
    restarts = tracer.counts["oracle.restarts"]
    out["oracle.restarts"] = (restarts, "count")
    out["oracle.restarts_per_s"] = (restarts / solve_total if solve_total else 0.0, "1/s")
    out["oracle.found"] = (tracer.counts["oracle.found"], "count")
    out["oracle.matched"] = (tracer.counts["oracle.matched"], "count")
    out["oracle.thin_warnings"] = (thin_warnings, "count")
    for layer in LAYERS[1:]:  # cli.self_s above is the self time of cli.main alone
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_frac"] = (len(spans) * per_span_cost() / wall_s, "ratio")
    return out
