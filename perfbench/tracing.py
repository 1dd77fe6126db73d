"""Per-layer tracing of legfol from outside the package.

The tracer replaces public functions at the attribute where their callers
look them up (a module attribute such as ``coiso.singular_scan``, or a class
attribute such as ``ExprField.eval``) and restores them afterwards.  Calls at
layer boundaries become spans (name, start, end, parent); functions called
about a million times per pass (``Chart.env``, ``ExprField.eval``,
``ExprField.diff``) only bump counters, since a span each would cost more than
the call.  A target missing from the package is skipped and listed in
``Tracer.missing``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

from legfol import bundle, coiso, fields, forms, germ, runner, scenario, symplin

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "fields.env_calls": "count",
    "fields.eval_calls": "count",
    "fields.eval_s": "s",
    "fields.eval_per_s": "1/s",
    "fields.diff_calls": "count",
    "forms.build_calls": "count",
    "forms.build_s": "s",
    "forms.eval_calls": "count",
    "forms.eval_s": "s",
    "forms.top_nodes": "count",
    "forms.top_distinct": "count",
    "symplin.calls": "count",
    "symplin.s": "s",
    "coiso.residual_fields_calls": "count",
    "coiso.scan_points": "count",
    "coiso.scan_hits": "count",
    "coiso.scan_s.curve": "s",
    "coiso.scan_s.plane": "s",
    "coiso.scan_s.empty": "s",
    "coiso.scan_points_per_s": "1/s",
    "bundle.transports": "count",
    "bundle.transport_s": "s",
    "bundle.ode_steps": "count",
    "bundle.ode_nfev": "count",
    "bundle.nfev_per_s": "1/s",
    "bundle.escapes": "count",
    "bundle.ccl_s": "s",
    "germ.builds": "count",
    "germ.build_s": "s",
    "germ.check_s": "s",
    "scenario.parse_s": "s",
    "runner.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that depend only on the inputs: two traced passes at one seed must
# agree on every one of them.
DETERMINISTIC = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit == "count")

# (owner, attribute) pairs wrapped as spans of one layer.
SPAN_TARGETS = {
    "forms.build": [(forms, name) for name in (
        "wedge", "wedge_power", "exterior_d", "interior", "lie_derivative",
        "pullback")],
    "forms.eval": [(forms.DiffForm, "evaluate"),
                   (forms.DiffForm, "coeff_values"),
                   (forms.DiffForm, "max_coeff"),
                   (forms, "contraction_matrix")],
    "symplin": [(symplin, name) for name in (
        "span", "classify_subspace", "symp_complement", "contact_hyperplane",
        "coords_in_basis", "dual_completion")]
    + [(symplin.LinSubspace, name)
       for name in ("contains", "equals", "intersect")]
    # The numeric linear algebra that coiso, germ and bundle call directly;
    # germ imports scipy's null_space inside a function, so it is looked up
    # on scipy.linalg at each call.
    + [(coiso, "null_space"), (bundle, "null_space"),
       (scipy.linalg, "null_space"), (np.linalg, "svd")],
    "coiso.residual_fields": [(coiso, "residual_fields")],
    "coiso.scan": [(coiso, "singular_scan")],
    "bundle.transport": [(bundle, "parallel_transport")],
    "bundle.ccl": [(bundle, "ccl_check")],
    "germ.build": [(germ, "build_nonsingular_germ"),
                   (germ, "build_singular_germ")],
    "germ.check": [(germ, name) for name in (
        "contactness_scan", "volume_identity_residual",
        "zero_section_foliation_check", "interpolation_contactness")],
    "scenario.parse": [(scenario, "parse_scenario")],
    "runner.run": [(runner, "run_scenario")],
}

# (owner, attribute) pairs that only count calls; "fields.eval" also sums
# the time spent inside.
COUNTER_TARGETS = {
    "fields.env": (fields.Chart, "env"),
    "fields.eval": (fields.ExprField, "eval"),
    "fields.diff": (fields.ExprField, "diff"),
}


def _children(node) -> list:
    values = [getattr(node, f.name) for f in dataclasses.fields(node)] \
        if dataclasses.is_dataclass(node) else list(vars(node).values())
    flat = []
    for v in values:
        flat.extend(v if isinstance(v, (tuple, list)) else (v,))
    return [v for v in flat if isinstance(v, fields.Expr)]


def expr_sizes(expr: fields.Expr) -> tuple[int, int]:
    """Tree nodes (shared subtrees counted each time) and distinct nodes."""
    total = 0
    distinct: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        total += 1
        distinct.add(node)
        stack.extend(_children(node))
    return total, len(distinct)


def grid_size(dim: int, box: float, step: float) -> int:
    """Points of the scan grid, by the axis rule singular_scan uses."""
    return len(np.arange(-box, box + step / 2, step)) ** dim


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans on
    one thread nest, so the covered time is the sum of the children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, _, start, end, _) in enumerate(spans)]


class Tracer:
    """Collects spans and counters for one pass at a time.

    Use ``with tracer.active():`` around a pass; ``summary()`` then gives the
    pass's layer metrics, and ``spans`` its spans.
    """

    def __init__(self):
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        # span: [layer, label, start, end, parent index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # [calls, seconds inside] per counted target
        self.cells = {name: [0, 0.0] for name in COUNTER_TARGETS}
        self.scan_points = 0
        self.scan_hits = 0
        self.ode = Counter()
        self.top_nodes = 0
        self.top_distinct = 0

    # -- spans and counters ------------------------------------------------

    def _open(self, layer: str, label: str) -> int:
        index = len(self.spans)
        self.spans.append([layer, label, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def _inside(self, layer: str) -> bool:
        return any(self.spans[i][0] == layer for i in self.stack)

    def _span(self, layer: str, label: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            index = self._open(layer, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_counter(self, name: str, fn):
        cell, clock = self.cells[name], time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1
        return wrapper

    # -- result hooks ------------------------------------------------------

    def _on_wedge(self, result, args, kwargs):
        # alpha ^ (d alpha)^n built by a germ check: a 1-form times the rest,
        # landing in top degree.
        omega = args[0] if args else kwargs["omega"]
        if (result.degree == result.chart.dim and omega.degree == 1
                and self._inside("germ.check")):
            for c in result.coeffs.values():
                nodes, distinct = expr_sizes(c.expr)
                self.top_nodes += nodes
                self.top_distinct += distinct

    def _on_scan(self, result, args, kwargs):
        self.scan_points += grid_size(result.hits.shape[1], result.box,
                                      result.step)
        self.scan_hits += int(result.num_hits)

    def _on_transport(self, result, args, kwargs):
        self.ode["steps"] += int(result.steps)
        self.ode["nfev"] += int(result.nfev)
        self.ode["escapes"] += int(bool(result.escaped))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        self.missing = []
        hooks = {(forms, "wedge"): self._on_wedge,
                 (coiso, "singular_scan"): self._on_scan,
                 (bundle, "parallel_transport"): self._on_transport}
        for layer, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                hook = hooks.get((owner, attr))
                self._patch(owner, attr,
                            lambda fn, layer=layer, attr=attr, hook=hook:
                            self._span(layer, attr, fn, hook))
        for name, (owner, attr) in COUNTER_TARGETS.items():
            make = self._timed_counter if name == "fields.eval" \
                else self._counter
            self._patch(owner, attr, lambda fn, name=name, make=make:
                        make(name, fn))
        # Check functions run as children of run_scenario; their label is the
        # check block's name, which names the scan-grid scans.
        for kind, fn in list(runner.CHECKS.items()):
            self._patches.append((runner.CHECKS, kind, fn))
            runner.CHECKS[kind] = self._check_span(fn)

    def _check_span(self, fn):
        def wrapper(env, block):
            index = self._open("runner.check", block.name)
            try:
                return fn(env, block)
            finally:
                self._close(index)
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self):
        """Trace one pass: fresh spans and counters, wrappers installed."""
        self._reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: outermost calls, their total duration, and self time.

        A call is outermost when no enclosing span belongs to the same layer,
        so nested calls inside one layer are not counted twice.
        """
        spans = self.spans
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for own, (layer, _, start, end, parent) in zip(self_times(spans),
                                                      spans):
            t = totals[layer]
            t["self_s"] += own
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][4]
            if p < 0:
                t["calls"] += 1
                t["s"] += end - start
        return dict(totals)

    def summary(self) -> dict[str, float]:
        """Layer metrics of the last pass (all but trace.overhead_s)."""
        totals = self.layer_totals()

        def get(layer, key):
            return totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        # Scans are labelled by the check that ran them.
        scan_by_check: dict[str, float] = defaultdict(float)
        for layer, label, start, end, parent in self.spans:
            if layer == "coiso.scan":
                check = parent
                while check >= 0 and self.spans[check][0] != "runner.check":
                    check = self.spans[check][4]
                name = self.spans[check][1] if check >= 0 else label
                scan_by_check[name] += end - start
        env, ev, diff = (self.cells[f"fields.{name}"]
                         for name in ("env", "eval", "diff"))
        return {
            "fields.env_calls": env[0],
            "fields.eval_calls": ev[0],
            "fields.eval_s": ev[1],
            "fields.eval_per_s": rate(ev[0], ev[1]),
            "fields.diff_calls": diff[0],
            "forms.build_calls": get("forms.build", "calls"),
            "forms.build_s": get("forms.build", "s"),
            "forms.eval_calls": get("forms.eval", "calls"),
            "forms.eval_s": get("forms.eval", "s"),
            "forms.top_nodes": self.top_nodes,
            "forms.top_distinct": self.top_distinct,
            "symplin.calls": get("symplin", "calls"),
            "symplin.s": get("symplin", "s"),
            "coiso.residual_fields_calls":
                get("coiso.residual_fields", "calls"),
            "coiso.scan_points": self.scan_points,
            "coiso.scan_hits": self.scan_hits,
            "coiso.scan_s.curve": scan_by_check.get("curve", 0.0),
            "coiso.scan_s.plane": scan_by_check.get("plane", 0.0),
            "coiso.scan_s.empty": scan_by_check.get("empty", 0.0),
            "coiso.scan_points_per_s":
                rate(self.scan_points, get("coiso.scan", "s")),
            "bundle.transports": get("bundle.transport", "calls"),
            "bundle.transport_s": get("bundle.transport", "s"),
            "bundle.ode_steps": self.ode["steps"],
            "bundle.ode_nfev": self.ode["nfev"],
            "bundle.nfev_per_s":
                rate(self.ode["nfev"], get("bundle.transport", "s")),
            "bundle.escapes": self.ode["escapes"],
            "bundle.ccl_s": get("bundle.ccl", "s"),
            "germ.builds": get("germ.build", "calls"),
            "germ.build_s": get("germ.build", "s"),
            "germ.check_s": get("germ.check", "s"),
            "scenario.parse_s": get("scenario.parse", "s"),
            "runner.self_s": get("runner.run", "self_s"),
        }
