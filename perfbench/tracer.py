"""Layer tracing from outside the program.

The tracer wraps causalfs functions where they are bound: every module of
the package that holds a reference to the original function object gets
the wrapper instead, so calls through ``from .numerics import ols_fit`` are
seen as well as calls through the defining module. Nothing under ``src/``
is edited, and every patch is undone when the tracer is closed.

Coarse layer boundaries (benchmark operations, CLI commands, backtests,
selector calls, forecast fits) are kept as spans with a parent id and the
id of the benchmark operation that caused them. Fine kernels (least
squares, CI tests, ICA, k-means, acyclicity, L-BFGS, window views and
design builds) are called up to hundreds of thousands of times per run,
so only their counts and busy time are aggregated.
"""
from __future__ import annotations

import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SELECTOR_IDS = ("granger", "seqicp", "sfs", "pcmci", "varlingam", "dynotears")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class FallbackCounter(logging.Handler):
    """Counts the backtest's selector fallbacks from its log records.

    The backtest logs one WARNING per selector call that raised or timed
    out before it falls back to the previous selection.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.fallbacks = 0
        self.timeouts = 0

    def emit(self, record):
        message = record.getMessage()
        if "timed out" in message:
            self.timeouts += 1
        elif "falling back" in message:
            self.fallbacks += 1


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 1
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._step_starts: list[list[float]] = []
        self.step_durations: list[float] = []

    # --- accounting ---

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end, failed, keep_span, keep_durations):
        self._stack.pop()
        duration = end - start
        stat = self.stats.setdefault(name, Stat())
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame[1]
        if keep_durations:
            stat.durations.append(duration)
        if self._stack:
            self._stack[-1][1] += duration
        if keep_span:
            self.spans.append({
                "id": frame[0],
                "parent": self._stack[-1][0] if self._stack else None,
                "op": self._op_id,
                "name": name,
                "start": start,
                "end": end,
                "error": bool(failed),
            })

    def wrap(self, name, fn, *, span=False, durations=False, after=None):
        """A traced stand-in for ``fn``; ``after(args, kwargs, result)``
        derives counters from a successful call."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(name, frame, start, time.perf_counter(), failed,
                             span, durations)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Context manager for a benchmark-side span (one operation)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter()
                self.start = time.perf_counter()
                return self

            def __exit__(self, exc_type, exc, tb):
                tracer._exit(name, self.frame, self.start, time.perf_counter(),
                             exc_type is not None, True, False)
                return False

        return _Span()

    # --- patching ---

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, orig, wrapper) -> int:
        """Replace every binding of ``orig`` in the loaded causalfs modules."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "causalfs" or mod_name.startswith("causalfs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)
                    hits += 1
        return hits

    def close(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # --- the causalfs layers ---

    def install(self) -> None:
        import scipy.optimize

        import causalfs.backtest as backtest
        import causalfs.cli as cli
        import causalfs.ingest as ingest
        import causalfs.numerics as numerics
        import causalfs.panel as panel
        import causalfs.selectors as selectors
        import causalfs.synthlab as synthlab

        # backtest: each window view marks the start of a step
        orig_run = backtest.run_backtest

        def run_backtest(*args, **kwargs):
            self._step_starts.append([])
            try:
                return orig_run(*args, **kwargs)
            finally:
                starts = self._step_starts.pop()
                ends = starts[1:] + [time.perf_counter()]
                self.step_durations.extend(b - a for a, b in zip(starts, ends))

        self.patch_function(orig_run, self.wrap("backtest.run", run_backtest, span=True))

        orig_head = panel.AlignedPanel.head

        def head(panel_self, n):
            if self._step_starts:
                self._step_starts[-1].append(time.perf_counter())
            return orig_head(panel_self, n)

        self._set(panel.AlignedPanel, "head", self.wrap("panel.head", head))

        def design_bytes(args, kwargs, design):
            self.add("panel.design_bytes_computed", design.X.nbytes + design.y.nbytes)

        self.patch_function(panel.build_design, self.wrap(
            "panel.build_design", panel.build_design, after=design_bytes))
        self.patch_function(backtest.fit_forecast_model, self.wrap(
            "backtest.forecast_fit", backtest.fit_forecast_model, span=True))
        for fn in (backtest.ledger_to_csv, backtest.ledger_from_csv):
            self.patch_function(fn, self.wrap("backtest.ledger_csv", fn))

        # selectors: the uniform callable the backtest and validate use
        orig_make = selectors.make_selector

        def make_selector(selector_id, params=None):
            run = orig_make(selector_id, params)

            def select(*args, **kwargs):
                if self._step_starts:
                    self.add("backtest.select_calls")
                return run(*args, **kwargs)

            def empty(args, kwargs, fs):
                self.add(f"selectors.{selector_id}.empty", float(len(fs) == 0))

            return self.wrap(f"selectors.{selector_id}", select, span=True,
                             durations=True, after=empty)

        self.patch_function(orig_make, make_selector)

        # numerics kernels
        def ols_work(args, kwargs, fit):
            self.add("numerics.ols_fit.flops_computed", 2.0 * fit.n * fit.k * fit.k)

        self.patch_function(numerics.ols_fit, self.wrap(
            "numerics.ols_fit", numerics.ols_fit, after=ols_work))
        self.patch_function(numerics.partial_correlation, self.wrap(
            "numerics.partial_correlation", numerics.partial_correlation))

        def ica_work(args, kwargs, result):
            self.add("numerics.fastica.iters", result.n_iter)

        self.patch_function(numerics.fastica, self.wrap(
            "numerics.fastica", numerics.fastica, after=ica_work))
        self.patch_function(numerics.kmeans, self.wrap("numerics.kmeans", numerics.kmeans))
        self.patch_function(numerics.acyclicity, self.wrap(
            "numerics.acyclicity", numerics.acyclicity))

        def lbfgs_work(args, kwargs, sol):
            self.add("selectors.dynotears.lbfgs_nit", getattr(sol, "nit", 0))

        self._set(scipy.optimize, "minimize", self.wrap(
            "selectors.dynotears.lbfgs", scipy.optimize.minimize, after=lbfgs_work))

        # ingest and CLI commands
        def text_in(args, kwargs, result):
            self.add("ingest.bytes_in", sum(len(a) for a in args if isinstance(a, str)))

        def file_out(args, kwargs, result):
            self.add("ingest.bytes_out", sum(Path(a).stat().st_size for a in args[1:3]))

        self.patch_function(ingest.parse_fredmd, self.wrap(
            "ingest.parse_fredmd", ingest.parse_fredmd, after=text_in))
        self.patch_function(ingest.load_prices, self.wrap(
            "ingest.load_prices", ingest.load_prices, after=text_in))
        self.patch_function(ingest.write_panel, self.wrap(
            "ingest.write_panel", ingest.write_panel, after=file_out))
        self.patch_function(ingest.read_panel, self.wrap("ingest.read_panel", ingest.read_panel))
        for command in ("ingest", "backtest", "report", "validate"):
            fn = getattr(cli, f"cmd_{command}")
            self.patch_function(fn, self.wrap(f"cli.{command}", fn, span=True))

        # synthetic lab
        self.patch_function(synthlab.generate_svar, self.wrap(
            "synthlab.generate", synthlab.generate_svar))
        self.patch_function(synthlab.score_recovery, self.wrap(
            "synthlab.score", synthlab.score_recovery))

    # --- per-layer metrics ---

    def _stat(self, name) -> Stat:
        return self.stats.get(name, Stat())

    def layer_metrics(self, warning_counts: dict, fallbacks: int) -> dict:
        """Every per-layer metric, zero where the workload never reaches it."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def calls_and_time(prefix, stat_name):
            stat = self._stat(stat_name)
            put(f"{prefix}.calls", stat.calls, "count")
            put(f"{prefix}.s", stat.total, "s")

        head = self._stat("panel.head")
        design = self._stat("panel.build_design")
        put("panel.head_calls", head.calls, "count")
        put("panel.head_s", head.total, "s")
        put("panel.build_design_calls", design.calls, "count")
        put("panel.build_design_s", design.total, "s")
        put("panel.design_bytes_computed",
            self.counters.get("panel.design_bytes_computed", 0), "B")

        steps = sorted(self.step_durations)
        backtest_selects = self.counters.get("backtest.select_calls", 0)
        put("backtest.steps", len(steps), "count")
        put("backtest.step_ms_p50", 1e3 * _quantile(steps, 0.5), "ms")
        put("backtest.step_ms_p90", 1e3 * _quantile(steps, 0.9), "ms")
        put("backtest.select_calls", backtest_selects, "count")
        put("backtest.reuse_steps", len(steps) - backtest_selects, "count")
        put("backtest.fallback_calls", fallbacks, "count")
        put("backtest.forecast_fit_s", self._stat("backtest.forecast_fit").total, "s")
        put("backtest.ledger_csv_s", self._stat("backtest.ledger_csv").total, "s")

        for sid in SELECTOR_IDS:
            stat = self._stat(f"selectors.{sid}")
            put(f"selectors.{sid}.calls", stat.calls, "count")
            put(f"selectors.{sid}.call_ms_p50", 1e3 * _quantile(sorted(stat.durations), 0.5), "ms")
            put(f"selectors.{sid}.self_s", stat.self_time, "s")
            empties = self.counters.get(f"selectors.{sid}.empty", 0)
            put(f"selectors.{sid}.empty_ratio", empties / stat.calls if stat.calls else 0.0, "ratio")
        lbfgs = self._stat("selectors.dynotears.lbfgs")
        put("selectors.dynotears.lbfgs_calls", lbfgs.calls, "count")
        put("selectors.dynotears.lbfgs_nit", self.counters.get("selectors.dynotears.lbfgs_nit", 0), "count")

        calls_and_time("numerics.ols_fit", "numerics.ols_fit")
        put("numerics.ols_fit.flops_computed",
            self.counters.get("numerics.ols_fit.flops_computed", 0), "flop")
        put("numerics.ols_fit.rank_deficient", warning_counts.get("RankDeficientWarning", 0), "count")
        calls_and_time("numerics.partial_correlation", "numerics.partial_correlation")
        put("numerics.skipped_tests", warning_counts.get("SkippedTestWarning", 0), "count")
        ica = self._stat("numerics.fastica")
        calls_and_time("numerics.fastica", "numerics.fastica")
        put("numerics.fastica.iters", self.counters.get("numerics.fastica.iters", 0), "count")
        not_converged = warning_counts.get("NotConvergedWarning", 0)
        put("numerics.fastica.converged_ratio",
            (ica.calls - not_converged) / ica.calls if ica.calls else 0.0, "ratio")
        calls_and_time("numerics.kmeans", "numerics.kmeans")
        calls_and_time("numerics.acyclicity", "numerics.acyclicity")

        put("ingest.parse_fredmd_s", self._stat("ingest.parse_fredmd").total, "s")
        put("ingest.load_prices_s", self._stat("ingest.load_prices").total, "s")
        put("ingest.write_panel_s", self._stat("ingest.write_panel").total, "s")
        put("ingest.read_panel_s", self._stat("ingest.read_panel").total, "s")
        put("ingest.bytes_in", self.counters.get("ingest.bytes_in", 0), "B")
        put("ingest.bytes_out", self.counters.get("ingest.bytes_out", 0), "B")
        put("cli.ingest_s", self._stat("cli.ingest").total, "s")
        put("evaluation.report_s", self._stat("cli.report").total, "s")

        put("synthlab.generate_s", self._stat("synthlab.generate").total, "s")
        put("synthlab.generate_calls", self._stat("synthlab.generate").calls, "count")
        put("synthlab.score_s", self._stat("synthlab.score").total, "s")
        return out


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an already sorted list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
