"""``build-join``: the paper's pipeline from raw rectangles, ungoverned.

One round runs four cells — uniform and skewed (clustered) data, in one
and in two dimensions.  A cell generates two seeded data sets, inserts
them one by one into two R*-trees, prices the join with Eq. 7/10 (the
non-uniform grid model on skewed cells) and runs the SJ traversal with
a path buffer.  Only the cell itself is timed; its answer is checked
against the brute-force oracle right after, outside the timed section.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import (Estimator, NonUniformJoinModel, PathBuffer, RStarTree,
                   clustered_rectangles, spatial_join, uniform_rectangles)
from repro.exec import ExecutionGovernor
from repro.obs import MetricsRegistry

from . import oracle
from .common import Outcome, median, peak_rss_mb, percentile
from .spans import SpanRecorder

MAX_ENTRIES = 16
DENSITY = 0.5
#: (label, generator, ndim, N1, N2).  One-dimensional inserts are
#: cheaper per object, so those cells are larger: every cell then takes
#: about the same time and the cell-latency median sits inside one
#: cluster instead of between two.
CELLS = (
    ("uniform-1d", uniform_rectangles, 1, 280, 420),
    ("uniform-2d", uniform_rectangles, 2, 200, 300),
    ("skewed-1d", clustered_rectangles, 1, 280, 420),
    ("skewed-2d", clustered_rectangles, 2, 200, 300),
)
#: The set-up warm-up runs every cell kind on this many objects a side.
WARMUP_N = 250
SETUPS = 3


def _cell_seed(seed: int, rnd: int, cell: int) -> int:
    return seed * 100_003 + rnd * 16 + cell * 2


class _Cell:
    """One pipeline cell, run and then checked."""

    def __init__(self, gen, ndim, n1, n2, seed, rec, registry):
        self.ndim = ndim
        with rec.span("datasets.generate"):
            self.data1 = gen(n1, DENSITY, ndim, seed=seed)
            self.data2 = gen(n2, DENSITY, ndim, seed=seed + 1)
        self.tree1 = _build(self.data1, ndim, rec)
        self.tree2 = _build(self.data2, ndim, rec)
        with rec.span("estimator.estimate"):
            if gen is uniform_rectangles:
                est = Estimator.from_datasets(self.data1, self.data2,
                                              MAX_ENTRIES)
                self.estimate = (est.na(), est.da())
            else:
                model = NonUniformJoinModel(self.data1, self.data2,
                                            MAX_ENTRIES)
                self.estimate = (model.na_total(), model.da_total())
        with rec.span("join.run"):
            self.result = spatial_join(self.tree1, self.tree2,
                                       buffer=PathBuffer(),
                                       metrics=registry)
        self.uniform = gen is uniform_rectangles

    def check(self) -> list[str]:
        res = self.result
        problems = oracle.check_pairs(
            res.pairs, oracle.brute_force_pairs(self.data1.items,
                                                self.data2.items))
        problems += oracle.check_counts(res.na_total, res.da_total)
        if self.uniform:
            problems += oracle.check_estimate(self.estimate, _recompute(
                self.data1, self.data2, self.ndim))
        return problems


def _build(data, ndim, rec) -> RStarTree:
    tree = RStarTree(ndim, MAX_ENTRIES)
    for rect, oid in data:
        with rec.span("rtree.insert"):
            tree.insert(rect, oid)
    return tree


def _recompute(data1, data2, ndim) -> tuple[float, float]:
    """Eq. 7/10 from the raw rectangles' N and D."""
    dens = []
    for data in (data1, data2):
        lo, hi, _ = oracle.rect_arrays(data.items)
        dens.append(float(np.prod(hi - lo, axis=1).sum()))
    return oracle.uniform_join_estimate(len(data1), dens[0], len(data2),
                                        dens[1], MAX_ENTRIES, ndim)


def _setup(rec) -> None:
    """Warm-up: every cell kind once on small fixed inputs."""
    for i, (_label, gen, ndim, _n1, _n2) in enumerate(CELLS):
        _Cell(gen, ndim, WARMUP_N, WARMUP_N, 7 + 2 * i, rec,
              MetricsRegistry())


class _Window:
    """Whole rounds of cells until the timed seconds reach ``seconds``,
    or exactly ``rounds`` rounds when that is given."""

    def __init__(self, seed, seconds, rec, registry, out, rounds=None):
        self.latencies: list[float] = []
        self.round_times: list[float] = []
        self.rounds = 0
        self.timed = 0.0
        self.na = self.da = self.comparisons = 0
        self.errors: dict[str, list[float]] = {"na": [], "da": []}
        while (self.rounds < rounds if rounds is not None
               else self.rounds == 0 or self.timed < seconds):
            rnd = self.rounds
            round_start = self.timed
            for index, (label, gen, ndim, n1, n2) in enumerate(CELLS):
                t0 = time.perf_counter()
                cell = _Cell(gen, ndim, n1, n2,
                             _cell_seed(seed, rnd, index), rec, registry)
                elapsed = time.perf_counter() - t0
                self.timed += elapsed
                self.latencies.append(elapsed)
                out.record(f"round {rnd} {label}", cell.check())
                res = cell.result
                self.na += res.na_total
                self.da += res.da_total
                self.comparisons += res.comparisons
                for key, est, measured in zip(
                        ("na", "da"), cell.estimate,
                        (res.na_total, res.da_total)):
                    self.errors[key].append(abs(est - measured) / measured)
            self.rounds += 1
            self.round_times.append(self.timed - round_start)

    @property
    def per_round(self) -> float:
        return self.timed / self.rounds


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("build-join")
    rec = SpanRecorder()
    if trace:
        rec.count(ExecutionGovernor, "check", "governor_check")
    try:
        rec.enabled = trace
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            _setup(rec)
            setups.append(time.perf_counter() - t0)
        rec.enabled = False
        registry = MetricsRegistry()
        if not trace:
            win = _Window(seed, seconds, rec, registry, out)
            out.put("peak_rss_mb", peak_rss_mb())
            _end_to_end(out, win, statistics.median(setups))
            return out
        plain = _Window(seed, seconds / 2, rec, registry, out)
        rec.spans.clear()
        rec.enabled = True
        # The same rounds again, so the ratio compares equal work.
        traced = _Window(seed, None, rec, registry, out, plain.rounds)
        rec.enabled = False
        out.put("trace.overhead_ratio", traced.per_round / plain.per_round)
        _per_layer(out, rec, traced, registry, plain)
        out.spans = rec
        return out
    finally:
        rec.uninstall()


def _end_to_end(out: Outcome, win: _Window, setup_s: float) -> None:
    latencies = [t * 1e3 for t in win.latencies]
    # Rates are the median over rounds, so a burst of interference on
    # the machine moves one round, not the result.
    objects = sum(c[3] + c[4] for c in CELLS)
    rates = [objects / t for t in win.round_times]
    cells = [len(CELLS) / t for t in win.round_times]
    out.put("setup_s", setup_s)
    out.put("pipeline_objects_per_s", median(rates), len(rates))
    out.put("request_p50_ms", percentile(latencies, 50), len(latencies))
    out.put("request_p90_ms", percentile(latencies, 90), len(latencies))
    out.put("requests_per_s", median(cells), len(cells))


def _per_layer(out: Outcome, rec: SpanRecorder, win: _Window,
               registry: MetricsRegistry, plain: _Window) -> None:
    rounds = win.rounds

    def busy(name):
        return sum(s.seconds for s in rec.named(name)) / rounds

    inserts = [s.seconds * 1e6 for s in rec.named("rtree.insert")]
    joins = [s.seconds * 1e3 for s in rec.named("join.run")]
    cells = len(win.latencies)
    out.put("datasets.generate_s", busy("datasets.generate"))
    out.put("rtree.insert_s", busy("rtree.insert"))
    out.put("rtree.insert_us_p50", median(inserts), len(inserts))
    out.put("estimator.estimate_s", busy("estimator.estimate"))
    both = {k: plain.errors[k] + win.errors[k] for k in ("na", "da")}
    out.put("costmodel.na_abs_rel_err", statistics.fmean(both["na"]),
            len(both["na"]))
    out.put("costmodel.da_abs_rel_err", statistics.fmean(both["da"]),
            len(both["da"]))
    out.put("join.run_s", busy("join.run"))
    out.put("join.run_ms_p50", median(joins), len(joins))
    out.put("join.comparisons", win.comparisons / cells, cells)
    out.put("join.na", win.na / cells, cells)
    out.put("join.da", win.da / cells, cells)
    out.put("storage.da_per_na", win.da / win.na)
    checks = sum(s.attrs.get("governor_check_calls", 0)
                 for s in rec.named("join.run"))
    check_s = sum(s.attrs.get("governor_check_s", 0.0)
                  for s in rec.named("join.run"))
    out.put("exec.governor_checks_per_join", checks / cells, cells)
    out.put("exec.governor_check_s", check_s / rounds)
    joined_na = plain.na + win.na
    out.put("obs.join_na_registry_ratio",
            registry.counter("join.na").value / joined_na)
