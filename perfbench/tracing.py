"""In-process span tracing of lsar's public entry points.

The tracer wraps functions from the outside, so the program under test is
unchanged.  A function imported into several modules is wrapped in every
namespace that holds it, so a call through any of them is traced.  Each span
records its name, start, end, parent span and op id; spans stay in memory
until ``dump`` writes them out.  A layer's self time is its span time minus
the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LSAR_MODULES = ("cli", "driver", "evalbench", "exact", "recursion", "report",
                "sampling", "series")

# Count hooks run after the span has closed: (tracer, args, result).


def _rows(tr, args, result):
    tr.counts["cli.read_series.rows"] += result.n


def _bytes_written(tr, args, result):
    tr.counts["report.bytes_written"] += os.path.getsize(args[0])


def _apply_flops(tr, args, result):
    design, phi = args[0], args[1]
    tr.counts["series.apply.flops"] += 2 * design.series.n * len(phi)


def _materialized(tr, args, result):
    tr.counts["series.materialize.bytes"] += result.nbytes


def _solve_flops(tr, args, result):
    s, q = args[0].shape
    tr.counts["exact.solve_ols.flops"] += 2 * s * q * q


def _clamps(tr, args, result):
    tr.counts["recursion.clamped_scores"] += result.clamp_count


def _drawn(tr, args, result):
    tr.last_drawn = result


def _reduced(tr, args, result):
    plan = args[1]
    tr.counts["sampling.rows_sampled"] += plan.size
    if plan is tr.last_drawn:
        tr.counts["sampling.accepted_fits"] += 1


def _run_lsar(tr, args, result):
    log = result.per_order_log
    tr.counts["driver.orders"] += len(log)
    # run_lsar keeps every order's fit, each with a full-length float64
    # residual vector over the window's rows.
    tr.counts["driver.kept_residual_bytes"] += sum(8 * (r.window - r.p) for r in log)


# (span name, module, attribute path, count hook, wraps a generator)
TARGETS = (
    ("cli.main", "cli", "main", None, False),
    ("cli.read_series", "cli", "read_series", _rows, False),
    ("cli.write_series", "cli", "write_series", None, False),
    ("report.write_csv_report", "report", "write_csv_report", _bytes_written, False),
    ("report.write_text_report", "report", "write_text_report", _bytes_written, False),
    ("series.log_diff", "series", "log_diff", None, False),
    ("series.center", "series", "center", None, False),
    ("series.prefix", "series", "TimeSeries.prefix", None, False),
    ("series.apply", "series", "ARDesign.apply", _apply_flops, False),
    ("series.materialize", "series", "ARDesign.materialize", _materialized, False),
    ("recursion.ar1_scores", "recursion", "ar1_scores", None, False),
    ("recursion.advance", "recursion", "_advance", _clamps, False),
    ("recursion.sweep", "recursion", "approximate_sweep", None, True),
    ("sampling.draw_plan", "sampling", "draw_plan", _drawn, False),
    ("sampling.distribution_checksum", "sampling", "distribution_checksum", None, False),
    ("sampling.reduced_fit", "sampling", "reduced_fit", _reduced, False),
    ("exact.solve_ols", "exact", "solve_ols", _solve_flops, False),
    ("exact.fit_ols", "exact", "fit_ols", None, False),
    ("exact.exact_leverage", "exact", "exact_leverage", None, False),
    ("driver.run_lsar", "driver", "run_lsar", _run_lsar, False),
    ("evalbench.triangular_spectrum", "evalbench", "_triangular_spectrum", None, False),
    ("evalbench.conditioning", "evalbench", "conditioning", None, False),
    ("evalbench.conditioning_kappa", "evalbench", "conditioning_kappa", None, False),
    ("evalbench.bound_curves", "evalbench", "bound_curves", None, False),
    ("evalbench.mpre_curve", "evalbench", "mpre_curve", None, False),
    ("evalbench.ratio_study", "evalbench", "ratio_study", None, False),
    ("evalbench.uniform_plan", "evalbench", "uniform_plan", None, False),
)

# Per-layer metrics reported from a traced op, with their units.
CALLS = ("cli.read_series", "report.write_csv_report", "series.apply", "series.prefix",
         "recursion.advance", "sampling.draw_plan", "sampling.distribution_checksum",
         "exact.solve_ols", "sampling.reduced_fit", "exact.fit_ols",
         "exact.exact_leverage", "evalbench.triangular_spectrum",
         "evalbench.conditioning")
SELF = ("cli.main", "cli.read_series", "cli.write_series", "report.write_csv_report",
        "report.write_text_report", "series.apply", "series.prefix", "recursion.advance",
        "recursion.ar1_scores", "recursion.sweep", "sampling.draw_plan",
        "sampling.distribution_checksum", "exact.solve_ols", "sampling.reduced_fit",
        "driver.run_lsar", "series.log_diff", "series.center", "exact.fit_ols",
        "exact.exact_leverage", "evalbench.triangular_spectrum", "evalbench.conditioning",
        "evalbench.conditioning_kappa", "evalbench.bound_curves", "evalbench.mpre_curve",
        "evalbench.ratio_study", "evalbench.uniform_plan")
COUNTS = {"cli.read_series.rows": "count", "report.bytes_written": "B",
          "series.apply.flops": "flop", "exact.solve_ols.flops": "flop",
          "sampling.rows_sampled": "count", "driver.orders": "count",
          "driver.kept_residual_bytes": "B", "series.materialize.bytes": "B",
          "recursion.clamped_scores": "count"}
DERIVED = {"sampling.draws_per_fit": "ratio", "trace.overhead_s": "s"}


def metric_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def span_cost(calls: int = 5000) -> float:
    """Wall time one traced call adds, measured on a no-op function."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps the TARGETS for the lifetime of a ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self.last_drawn = None
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        def steps(gen):
            while True:
                idx = self._open(name)
                self.spans[idx][1] = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))
        return traced

    def __enter__(self):
        modules = {m: importlib.import_module(f"lsar.{m}") for m in LSAR_MODULES}
        for name, home, path, hook, is_gen in TARGETS:
            try:
                owner, attr = _resolve(modules[home], path)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = (self._wrap_generator(name, original) if is_gen
                       else self._wrap(name, original, hook))
            holders = [owner] + [m for m in modules.values()
                                 if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        return False

    @contextlib.contextmanager
    def root(self, op_id):
        """Root span of one op; every span opened inside carries ``op_id``."""
        self.op_id = op_id
        idx = self._open("op")
        self.spans[idx][1] = perf_counter()
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self, op_id) -> tuple[dict[str, float], Counter, float]:
        """Per-name self time and call count of one op, and its root time."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        root_s = 0.0
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op != op_id:
                continue
            if parent is None:
                root_s += end - start
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
        return self_s, calls, root_s

    def metrics(self, op_id, overhead_s: float) -> dict[str, float]:
        self_s, calls, _ = self.self_times(op_id)
        out = {f"{name}.calls": calls[name] for name in CALLS}
        out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF})
        out.update({name: self.counts[name] for name in COUNTS})
        accepted = self.counts["sampling.accepted_fits"]
        out["sampling.draws_per_fit"] = calls["sampling.draw_plan"] / accepted if accepted else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
