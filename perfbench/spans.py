"""Spans and counters recorded from outside shufflelab.

A `Tracer` replaces public functions of the package with wrappers that
record one span per call (name, start, end, parent span, run id) and update
exact counters computed from the call's arguments.  Each name is patched
where its callers look it up: `engine` binds `objective` by
`from .model import objective`, so both `model.objective` and
`engine.objective` are replaced; everything else is reached through a module
attribute (`analysis` calls `_engine.run_sgd_closed_form`, `experiments`
calls `engine.run_sgd_closed_form`), so patching the defining module reaches
every caller.  Spans live in flat arrays while the workload runs and are
written out when the benchmark ends.

Only the process that installed the patches records spans, so traced runs
use one process (jobs=1).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# Spans that start one SGD run; they and everything under them share a run id.
RUN_SPANS = ("engine.run_sgd_closed_form", "engine.run_sgd")

# Percentiles tried for a timing's tail, lowest first.  Stored in units of
# 1/1000 percent so the ten-samples rule is exact integer arithmetic.
_PERCENTILES_MILLI = (50_000, 90_000, 99_000, 99_900, 99_990, 99_999)


def tail_percentile(n_samples: int):
    """Highest tried percentile with at least ten of n samples beyond it.

    Returns None when fewer than 20 samples exist (not even the median has
    ten beyond it).
    """
    best = None
    for pm in _PERCENTILES_MILLI:
        if n_samples * (100_000 - pm) >= 10 * 100_000:
            best = pm / 1000
    return best


def self_times(parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    `parents[i]` is the index of span i's parent, or -1 for a root.  Children
    nest inside their parent, so subtracting the direct children removes the
    whole interval they cover.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=dur.shape[0])
    return dur - child


class Tracer:
    """In-memory span store plus exact counters for one traced pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.run_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.run_attrs: dict = {}  # run span index -> (scheme tag, n, k)
        self.counters = defaultdict(int)
        self._stack: list = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` with a span named `name` around each call.

        `before(tracer, idx, args, kwargs)` runs as the span opens and
        `after(tracer, args, kwargs, result)` once it has returned; both
        update counters.
        """
        nid = self._nid(name)
        is_run = name in RUN_SPANS
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.name_id)
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            run = self.run_id[parent] if parent >= 0 else -1
            self.run_id.append(idx if is_run and run < 0 else run)
            self.start.append(0.0)
            self.end.append(0.0)
            if before is not None:
                before(self, idx, args, kwargs)
            stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, fn, before):
        """`fn` with `before(tracer, args)` run on each call; no span."""

        def wrapper(*args, **kwargs):
            before(self, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, patches):
        """Install `patches` (see `shufflelab_patches`) and undo them on exit."""
        saved = []
        try:
            for targets, make in patches:
                owner, attr = targets[0]
                wrapped = make(self, getattr(owner, attr))
                for owner, attr in targets:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) to an .npz file."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays()
        selfs = self_times(a["parent"], a["start"], a["end"])
        dur = a["end"] - a["start"]
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur, minlength=k)
        slf = np.bincount(a["name_id"], weights=selfs, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(slf[i])}
            for i, name in enumerate(self.names)
        }

    def run_durations(self):
        """(durations, (scheme, n, k) attrs, parent names) of the run spans
        named `engine.run_sgd_closed_form`."""
        nid = self._ids.get("engine.run_sgd_closed_form")
        if nid is None:
            return np.zeros(0), [], []
        a = self.arrays()
        idx = np.flatnonzero(a["name_id"] == nid)
        dur = a["end"][idx] - a["start"][idx]
        attrs = [self.run_attrs[int(i)] for i in idx]
        parents = [self.names[a["name_id"][p]] if p >= 0 else "" for p in a["parent"][idx]]
        return dur, attrs, parents


# ---------------------------------------------------------------------------
# what to patch in shufflelab


def _on_permutation(tr, idx, args, kwargs):
    n = int(args[0] if args else kwargs["n"])
    tr.counters["engine.rng_draws"] += max(n - 1, 0)


def _on_sequence_map(tr, idx, args, kwargs):
    p, seq = args[0], args[1]
    length, d = len(seq), p.dim
    # factors, gathered linear terms and suffix products are (len, d) float64
    # arrays; contraction and noise are (d,)
    tr.counters["engine.sequence_map.bytes_computed"] += 8 * (3 * length * d + 2 * d)


def _on_run(tr, idx, args, kwargs):
    p, cfg = args[0], args[1]
    tag = cfg.scheme.value
    tr.run_attrs[idx] = (tag, p.n, cfg.epochs)
    if tag == "wr":
        tr.counters["engine.rng_draws"] += p.n * cfg.epochs


def _on_emit(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counters["experiments.bytes_written"] += os.path.getsize(path)


def _on_patterns(tr, args):
    n = int(args[0])
    tr.counters["analysis.patterns_enumerated"] += math.comb(n, n // 2)


def _span(name, before=None, after=None):
    return lambda tr, fn: tr.wrap(fn, name, before, after)


ANALYSIS_SPANS = (
    "beta_exact",
    "sum_prod_expectation_exact",
    "stochastic_terms_exact",
    "permutation_moments",
    "expected_loss_rr_analytic",
    "expected_loss_ss_exact",
    "mc_expected_loss",
    "derive_run_seed",
)


def shufflelab_patches(sl) -> list:
    """(targets, factory) pairs covering the package's public entry points."""
    m, e, x = sl.model, sl.engine, sl.experiments
    a, b = sl.analysis, sl.bounds
    patches = [
        ([(m, "objective"), (e, "objective")], _span("model.objective")),
        ([(m, "build_ss_construction")], _span("model.build")),
        ([(m, "build_rr_construction")], _span("model.build")),
        ([(x, "build_instance")], _span("model.build")),
        ([(e, "sample_permutation")], _span("engine.sample_permutation", _on_permutation)),
        ([(e, "sequence_map")], _span("engine.sequence_map", _on_sequence_map)),
        ([(e, "run_sgd_closed_form")], _span("engine.run_sgd_closed_form", _on_run)),
        ([(e, "run_sgd")], _span("engine.run_sgd", _on_run)),
        ([(x, "run_sweep")], _span("experiments.run_sweep")),
        ([(x, "run_seed_for")], _span("experiments.run_seed_for")),
        ([(x, "fit_bound_constant")], _span("bounds")),
        ([(b.BoundSpec, "evaluate")], _span("bounds")),
        ([(sl.calibrate, "measure_constants")], _span("calibrate.measure_constants")),
        ([(sl.verify, "run_suite")], _span("verify.run_suite")),
        ([(sl.cli, "main")], _span("cli.main")),
        ([(a, "_pattern_matrix")], lambda tr, fn: tr.count_calls(fn, _on_patterns)),
    ]
    for emitter in ("emit_records_csv", "emit_summaries_csv", "emit_svg"):
        patches.append(([(x, emitter)], _span("experiments.emit", after=_on_emit)))
    for name in ANALYSIS_SPANS:
        patches.append(([(a, name)], _span(f"analysis.{name}")))
    return patches
