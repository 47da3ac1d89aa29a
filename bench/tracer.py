"""Span tracer that times optioncast's layers from the outside.

Installing a :class:`Tracer` replaces every binding of a public function of a
traced layer, in every loaded ``optioncast`` module namespace, with a timing
wrapper; leaving the ``installed()`` block puts the originals back.  So
``market_data.call_price`` (imported from ``bs_core``) and
``lstm.compute_feature_stats`` (imported from ``market_data``) are traced too,
under the name of the layer that defines them.

Spans stay in memory as :class:`Span` records (name, start, end, parent, stage
id) until the benchmark writes them out at the end of a run.
:func:`layer_metrics` turns the spans of one pass into the per-layer metrics
listed in ``BENCHMARK.json``; a metric whose source function or result field
no longer exists comes back as ``None`` (absent), never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "optioncast"
# The cli layer is not wrapped: its spans are the benchmark's own stage spans
# around each ``cli.main`` call.
LAYERS = ("market_data", "bs_core", "qrm", "lstm", "trading", "fusion", "binomial")
CLI_STAGES = (
    "synth", "qrm", "train", "backtest_qrm", "backtest_classifier", "fuse", "binomial",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "stage", "info")

    def __init__(self, name: str, parent: int, stage: str):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.stage = stage
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.stage, self.info]


def _solve_info(args, kwargs, result) -> dict:
    """Counts taken at the ``qrm.solve_qrm`` boundary.

    ``key`` identifies the (record pair, config) being solved so repeated
    solves of the same problem can be told apart from distinct ones.
    """
    records = args[0] if args else kwargs.get("records")
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        config = importlib.import_module(f"{PACKAGE}.qrm").QrmConfig()
    try:
        key = hash((tuple(records[-2:]), config))
    except TypeError:
        key = None
    return {
        "iterations": getattr(result, "iterations", None),
        "grid": (getattr(config, "n_s", None), getattr(config, "n_tau", None)),
        "key": key,
    }



def public_functions() -> dict:
    """Map each public function defined by a traced layer to ``layer.name``."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[obj] = f"{layer}.{name}"
    return found


class Tracer:
    """Collects spans for one pass; install it around the pass being traced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._stage = ""

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1, self._stage))
        self._stack.append(index)
        return index

    def _wrap(self, fn, name: str):
        hook = _solve_info if name == "qrm.solve_qrm" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every optioncast namespace that binds a traced function."""
        targets = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    @contextmanager
    def stage(self, stage_id: str, span_name: str):
        """A span around one stage of a pass; spans opened inside carry its id."""
        previous = self._stage
        self._stage = stage_id
        index = self._open(span_name)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._stage = previous


class NullTracer:
    """Stand-in for untraced passes: stages cost one context manager each."""

    @contextmanager
    def stage(self, stage_id: str, span_name: str):
        yield


def qrm_unknowns(n_s: int, n_tau: int) -> int:
    """Interior unknowns: the tau = 0 row and both stock edges are imposed."""
    return (n_s - 2) * (n_tau - 1)


def qrm_a_nnz(n_s: int, n_tau: int) -> int:
    """Nonzeros of the PDE operator restricted to the unknowns, from the stencil.

    One residual row per (interior stock node, tau step); its four entries are
    (i, j+1), (i, j), (i+1, j) and (i-1, j), and only entries on unknown nodes
    (interior i, j >= 1) are kept.
    """
    def unknown(i: int, j: int) -> bool:
        return 1 <= i <= n_s - 2 and j >= 1

    return sum(
        unknown(i, j + 1) + unknown(i, j) + unknown(i + 1, j) + unknown(i - 1, j)
        for j in range(n_tau - 1)
        for i in range(1, n_s - 1)
    )


def _p50(values):
    return statistics.median(values) if values else None


def _p95(values):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _scaled(value, factor):
    return None if value is None else value * factor


def layer_metrics(spans: list[Span]) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; ``None`` marks an absent source."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
        if span.parent >= 0:
            children[span.parent].append(index)

    def self_time(index: int) -> float:
        return spans[index].duration - sum(spans[c].duration for c in children[index])

    def durations(name: str, parent: str | None = None) -> list[float]:
        return [
            spans[i].duration for i in by_name[name]
            if parent is None or (spans[i].parent >= 0 and spans[spans[i].parent].name == parent)
        ]

    def total(name: str):
        found = durations(name)
        return sum(found) if found else None

    m: dict[str, float | None] = {}

    solves = by_name["qrm.solve_qrm"]
    infos = [spans[i].info or {} for i in solves]
    iterations = [info["iterations"] for info in infos if info.get("iterations") is not None]
    keys = [info.get("key") for info in infos]
    grid = infos[0].get("grid") if infos else None
    m["qrm.solve.calls"] = len(solves)
    m["qrm.solve_ms.p50"] = _scaled(_p50(durations("qrm.solve_qrm")), 1e3)
    m["qrm.solve_ms.p95"] = _scaled(_p95(durations("qrm.solve_qrm")), 1e3)
    m["qrm.assemble_ms.p50"] = _scaled(_p50(durations("qrm.assemble_system")), 1e3)
    m["qrm.solve_self_ms.p50"] = _scaled(_p50([self_time(i) for i in solves]), 1e3)
    m["qrm.cg_iters.mean"] = statistics.fmean(iterations) if iterations else None
    m["qrm.cg_iters.max"] = max(iterations) if iterations else None
    if grid and None not in grid:
        m["qrm.unknowns"] = qrm_unknowns(*grid)
        m["qrm.a_nnz"] = qrm_a_nnz(*grid)
    else:
        m["qrm.unknowns"] = m["qrm.a_nnz"] = None
    m["qrm.unique_solve_ratio"] = (
        len(set(keys)) / len(keys) if keys and None not in keys else None
    )

    # Each minibatch starts with a forward_batch call directly under train; the
    # parameter vector round trips that follow it belong to that minibatch.
    roundtrips: list[float] = []
    has_roundtrip = False
    for t in by_name["lstm.train"]:
        for c in children[t]:
            if spans[c].name == "lstm.forward_batch":
                roundtrips.append(0.0)
            elif spans[c].name in ("lstm.params_to_vector", "lstm.vector_to_params"):
                has_roundtrip = True
                if roundtrips:
                    roundtrips[-1] += spans[c].duration
    m["lstm.minibatches"] = len(durations("lstm.backward_batch", "lstm.train"))
    m["lstm.forward_batch_ms.p50"] = _scaled(
        _p50(durations("lstm.forward_batch", "lstm.train")), 1e3)
    m["lstm.backward_batch_ms.p50"] = _scaled(
        _p50(durations("lstm.backward_batch", "lstm.train")), 1e3)
    m["lstm.param_roundtrip_ms.p50"] = (
        _scaled(_p50(roundtrips), 1e3) if has_roundtrip else None
    )
    trains = by_name["lstm.train"]
    m["lstm.train_self_s"] = sum(self_time(t) for t in trains) if trains else None
    m["lstm.evaluate_ms.p50"] = _scaled(_p50(durations("lstm.evaluate")), 1e3)
    io = durations("lstm.save_checkpoint") + durations("lstm.load_checkpoint")
    m["lstm.checkpoint_io_ms"] = sum(io) * 1e3 if io else None

    for short, name in (
        ("generate_gbm", "generate_gbm"),
        ("save_csv", "save_csv"),
        ("load_csv", "load_csv"),
        ("build_sequences", "build_sequences"),
        ("standardize", "standardize_samples"),
    ):
        m[f"market_data.{short}_ms"] = _scaled(total(f"market_data.{name}"), 1e3)
    m["market_data.load_csv.calls"] = len(by_name["market_data.load_csv"])
    m["bs_core.call_price.calls"] = len(by_name["bs_core.call_price"])
    m["bs_core.call_price_us.p50"] = _scaled(_p50(durations("bs_core.call_price")), 1e6)

    m["trading.backtest_ms.p50"] = _scaled(_p50(durations("trading.backtest")), 1e3)
    m["trading.emit_plot_data_ms.p50"] = _scaled(_p50(durations("trading.emit_plot_data")), 1e3)
    m["fusion.joint_precision_us"] = _scaled(total("fusion.joint_precision"), 1e6)
    m["binomial.enumerate_tree_us"] = _scaled(total("binomial.enumerate_tree"), 1e6)

    for stage in CLI_STAGES:
        found = by_name[f"cli.{stage}"]
        m[f"cli.{stage}.self_ms"] = (
            sum(self_time(i) for i in found) * 1e3 if found else None
        )
    return m
