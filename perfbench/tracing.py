"""Traced run: the workload command's steps redone as library calls, with
a span around each call into a ``mpinfer`` module.

Rules that keep the traced run measuring the same program as the command:

* the learner is passed as is, never wrapped, so a learner-specific fast
  path inside ``train_ensemble`` still runs;
* ``Ensemble`` memoises its LOO and LOCO sums, so ``infer_all`` and
  ``loo_residuals`` are timed as the first aggregation call on a freshly
  trained ensemble.  ``estimate_B`` and ``loo_new_all``, which memoise
  nothing, get their own spans beside the command's steps, as do
  ``sample_minipatches`` and a per-patch ``learner.fit`` /
  ``predict_batch`` pass over the run's patches;
* the caller checks that the traced output equals the command's own
  output byte for byte.

Spans of the command's own steps sit under a ``command`` span; the side
calls are roots of their own.
"""

from __future__ import annotations

import csv
import io
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from workloads import ALPHA, COVERAGE_FEATURE, RIDGE_LAMBDA, input_files

from mpinfer.conformal import loo_residuals, predict_intervals_batch
from mpinfer.core import MPConfig, Task, load_dataset
from mpinfer.ensemble import sample_minipatches, train_ensemble
from mpinfer.learners import FIT_CALLS, RidgeLearner
from mpinfer.loco import estimate_B, infer_all, infer_feature, report_to_json
from mpinfer.oracle import ensemble_conditional_target
from mpinfer.rng import spawn_seed
from mpinfer.simgen import SimSpec, generate

# Layer spans reported as per-layer metrics (seconds summed per round).
LAYERS = (
    "core.load_dataset", "simgen.generate", "ensemble.sample_minipatches",
    "ensemble.train_ensemble", "learners.fit", "learners.predict",
    "loco.estimate_B", "loco.infer_all", "loco.infer_feature",
    "conformal.loo_residuals", "ensemble.loo_new_all",
    "conformal.predict_intervals_batch", "oracle.ensemble_conditional_target",
)


class Tracer:
    """Spans (id, round, name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "round": self.round, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, round_: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s["round"] == round_:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


def config_for(w, seed: int) -> MPConfig:
    """The settings ``mpinfer infer/predict`` builds from its default flags."""
    return MPConfig(K=w.K, seed=seed, alpha=ALPHA,
                    learner=RidgeLearner(lam=RIDGE_LAMBDA))


def _train(tr: Tracer, data, config, counts: dict):
    before = FIT_CALLS.value()
    with tr.span("ensemble.train_ensemble"):
        ens = train_ensemble(data, config, threads=1)
    counts["fits_per_ensemble"].append(FIT_CALLS.value() - before)
    counts["cache_mb"] = max(counts["cache_mb"], ens.cache.nbytes / 2 ** 20)
    return ens


def _side_calls(tr: Tracer, ens) -> None:
    """Patch draw and per-patch fit/predict, timed outside train_ensemble."""
    cfg, data, learner = ens.config, ens.dataset, ens.config.learner
    with tr.span("ensemble.sample_minipatches"):
        sample_minipatches(data.n_rows, data.n_features, cfg.n, cfg.m, cfg.K,
                           cfg.seed)
    X, Y = data.X, data.Y
    for p in ens.patches:
        X_sub, Y_sub, X_cols = X[p.rows][:, p.features], Y[p.rows], X[:, p.features]
        with tr.span("learners.fit"):
            model = learner.fit(X_sub, Y_sub, data.task, data.n_classes)
        with tr.span("learners.predict"):
            model.predict_batch(X_cols)


def _inference(tr: Tracer, counts: dict, fn, *args, **kwargs):
    before = FIT_CALLS.value()
    with tr.span(f"{fn.__module__.removeprefix('mpinfer.')}.{fn.__name__}"):
        out = fn(*args, **kwargs)
    counts["fits_in_inference"] += FIT_CALLS.value() - before
    return out


def _infer_round(tr, w, seed, work, counts):
    config = config_for(w, seed)
    with tr.span("command"):
        with tr.span("core.load_dataset"):
            data = load_dataset(input_files(w, work)["train"], Task.REGRESSION,
                                "target")
        ens = _train(tr, data, config, counts)
        report = _inference(tr, counts, infer_all, ens, bonferroni=True)
        text = report_to_json(report)
    _inference(tr, counts, estimate_B, ens,
               seed=spawn_seed(ens.config.seed, "estimate-b"))
    _side_calls(tr, ens)
    return text.encode("utf8")


def _read_new_points(path, names) -> np.ndarray:
    with open(path, newline="", encoding="utf8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(n) for n in names]
        return np.array([[float(r[c]) for c in cols] for r in reader if r])


def _predict_round(tr, w, seed, work, counts):
    files = input_files(w, work)
    config = config_for(w, seed)
    with tr.span("command"):
        with tr.span("core.load_dataset"):
            data = load_dataset(files["train"], Task.REGRESSION, "target")
        ens = _train(tr, data, config, counts)
        res = _inference(tr, counts, loo_residuals, ens)
        X_new = _read_new_points(files["new"], data.feature_names)
        ivs = _inference(tr, counts, predict_intervals_batch, ens, res, X_new,
                         config.alpha)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row_id", "lo", "hi"])
        for t, iv in enumerate(ivs):
            writer.writerow([t, format(iv.lo, ".17g"), format(iv.hi, ".17g")])
    _inference(tr, counts, ens.loo_new_all, X_new)
    _side_calls(tr, ens)
    return buf.getvalue().encode("utf8")


def _coverage_round(tr, w, seed, work, counts):
    """The replicate loop of ``mpinfer.bench.run_coverage``; returns the
    report rows as JSON-comparable dicts."""
    spec = SimSpec(model=w.model, task="regression", N=w.N, M=w.M, snr=w.snr,
                   seed=seed)
    base = config_for(w, seed)
    j = COVERAGE_FEATURE

    def draw(n_points: int, draw_seed: int):
        with tr.span("simgen.generate"):
            return generate(replace(spec, N=n_points, seed=draw_seed))

    rows = []
    for rep in range(w.replicates):
        rep_seed = spawn_seed(seed, "coverage", rep)
        with tr.span("command"):
            data = draw(w.N, spawn_seed(rep_seed, "data"))
            cfg = replace(base, seed=spawn_seed(rep_seed, "ensemble"))
            ens = _train(tr, data, cfg, counts)
            iv = _inference(tr, counts, infer_feature, ens, j)
            mc = _inference(tr, counts, ensemble_conditional_target, ens, j, draw,
                            n_test=w.n_test, seed=spawn_seed(rep_seed, "target"))
        rows.append({"rep": rep, "target": float(mc.value),
                     "target_se": float(mc.se), "lo": float(iv.lo),
                     "hi": float(iv.hi), "width": float(iv.hi - iv.lo),
                     "covered": bool(iv.lo <= mc.value <= iv.hi)})
        _side_calls(tr, ens)
    return rows


ROUNDS = {"infer": _infer_round, "predict": _predict_round,
          "coverage": _coverage_round}


def traced_round(tr: Tracer, w, seed: int, work):
    """One traced pass of the workload's command.

    Returns (output, counts): the output as the command would write it
    (the report rows for coverage), and the fit and cache counters of the
    round.
    """
    counts = {"fits_per_ensemble": [], "fits_in_inference": 0,
              "cache_mb": 0.0}
    return ROUNDS[w.kind](tr, w, seed, work, counts), counts
