"""Benchmark harness: coverage, width, power, selection, and predictive
coverage experiments with machine-readable reports.

Every replicate is a pure function of (master seed, settings, replicate
index): child seeds are derived before any parallel dispatch, so a run
is exactly reproducible, any prefix of replicates can be recomputed
independently, and reports are byte-identical for every thread count
(threads are an execution detail and are not echoed into reports).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .conformal import (
    loo_residuals, predict_intervals_batch, predict_sets_batch,
    sample_K_binomial,
)
from .core import Dataset, InvalidSize, InvalidSpec, MPConfig, Task
from .ensemble import thread_map, train_ensemble
from .learners import RidgeLearner
from .loco import infer_all, infer_feature, loco_split_baseline
from .oracle import ensemble_conditional_target, monte_carlo_target
from .rng import spawn_seed
from .simgen import SimSpec, generate, sampler, sidecar_dict, true_support

__all__ = [
    "BenchReport", "run_coverage", "run_width", "run_power",
    "run_selection", "run_predictive_coverage", "summarize_rows",
]


@dataclass(frozen=True)
class BenchReport:
    experiment: str
    master_seed: int
    settings: dict
    metrics: dict
    rows: tuple

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "settings": self.settings,
            "metrics": self.metrics,
            "rows": list(self.rows),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def verify_summary(self) -> bool:
        """Recompute the metrics from the raw rows; must match exactly."""
        return summarize_rows(self.experiment, list(self.rows)) == self.metrics

    def rows_to_csv(self) -> str:
        """Tidy per-replicate rows (one figure-ready record per line)."""
        buf = io.StringIO()
        columns = list(self.rows[0].keys()) if self.rows else []
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
        return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return "" if value is None else value


def _finite(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _settings(spec: SimSpec, config: MPConfig, **extra) -> dict:
    out = {"spec": sidecar_dict(spec), "config": config.settings_dict()}
    out.update(extra)
    return out


def summarize_rows(experiment: str, rows: list) -> dict:
    if experiment == "coverage":
        covered = [r["covered"] for r in rows]
        widths = [r["width"] for r in rows]
        return {
            "replicates": len(rows),
            "coverage": float(np.mean(covered)),
            "median_width": float(np.median(widths)),
        }
    if experiment == "width":
        out: dict[str, float] = {}
        sizes = sorted({r["N"] for r in rows})
        for N in sizes:
            ws = [r["width"] for r in rows if r["N"] == N]
            out[str(N)] = float(np.median(ws))
        return {"replicates_per_cell": len(rows) // max(1, len(sizes)),
                "median_width_by_N": out}
    if experiment == "power":
        grid = sorted({r["snr"] for r in rows})
        power = {}
        split_power = {}
        for snr in grid:
            cell = [r for r in rows if r["snr"] == snr]
            power[repr(snr)] = float(np.mean([r["reject"] for r in cell]))
            split_power[repr(snr)] = float(
                np.mean([r["split_reject"] for r in cell]))
        return {"replicates_per_cell": len(rows) // max(1, len(grid)),
                "power": power, "split_power": split_power}
    if experiment == "selection":
        keys = ("f1", "tpr", "fpr", "tnr", "fnr")
        return {"replicates": len(rows),
                **{f"mean_{k}": float(np.mean([r[k] for r in rows])) for k in keys}}
    if experiment == "predictive":
        covered = [r["covered"] for r in rows]
        metrics = {"evaluations": len(rows),
                   "coverage": float(np.mean(covered))}
        if rows and "width" in rows[0]:
            finite = [r["width"] for r in rows if r["width"] is not None]
            metrics["median_width"] = float(np.median(finite)) if finite else None
        if rows and "set_size" in rows[0]:
            metrics["mean_set_size"] = float(np.mean([r["set_size"] for r in rows]))
        return metrics
    raise InvalidSpec(f"unknown experiment {experiment!r}")


def _check_replicates(replicates: int) -> None:
    # with no replicate every metric would be a mean of nothing (NaN)
    if replicates < 1:
        raise InvalidSize(f"replicates must be >= 1, got {replicates}")


def _rep_dataset(spec: SimSpec, rep_seed: int) -> Dataset:
    return generate(replace(spec, seed=spawn_seed(rep_seed, "data")))


def run_coverage(spec: SimSpec, config: MPConfig, j: int, replicates: int,
                 seed: int, threads: int = 1, n_test: int = 10_000,
                 target: str = "conditional",
                 target_K: int = 10_000) -> BenchReport:
    """Per replicate: fresh data, one interval for feature j, and a Monte
    Carlo importance target from the same generating law.

    ``target="conditional"`` (default) scores the replicate's own fitted
    ensemble on fresh test points, the quantity the interval tracks at
    moderate patch counts; ``"independent"`` trains a separate
    high-precision ensemble (``target_K`` patches), which additionally
    exposes the ensemble-to-ensemble variability of the target itself.
    """
    _check_replicates(replicates)
    draw = sampler(spec)
    if target not in ("conditional", "independent"):
        raise InvalidSpec(f"unknown target mode {target!r}")

    def one(rep: int) -> dict:
        rep_seed = spawn_seed(seed, "coverage", rep)
        data = _rep_dataset(spec, rep_seed)
        cfg = replace(config, seed=spawn_seed(rep_seed, "ensemble"))
        ens = train_ensemble(data, cfg)
        iv = infer_feature(ens, j)
        if target == "conditional":
            mc = ensemble_conditional_target(
                ens, j, draw, n_test=n_test, seed=spawn_seed(rep_seed, "target"))
        else:
            mc = monte_carlo_target(
                data, replace(cfg, K=target_K), j, draw, n_test=n_test,
                seed=spawn_seed(rep_seed, "target"))
        return {
            "rep": rep,
            "target": float(mc.value),
            "target_se": float(mc.se),
            "lo": float(iv.lo), "hi": float(iv.hi),
            "width": float(iv.hi - iv.lo),
            "covered": bool(iv.lo <= mc.value <= iv.hi),
        }

    rows = thread_map(one, range(replicates), threads)
    settings = _settings(spec, config, j=j, replicates=replicates,
                         n_test=n_test, target_mode=target, target_K=target_K)
    return BenchReport("coverage", seed, settings,
                       summarize_rows("coverage", rows), tuple(rows))


def run_width(spec: SimSpec, config: MPConfig, j: int, n_grid: list[int],
              replicates: int, seed: int, threads: int = 1) -> BenchReport:
    """Median interval width for feature j at each training size."""
    _check_replicates(replicates)
    if not n_grid:
        raise InvalidSpec("empty size grid")
    cells = [(N, rep) for N in n_grid for rep in range(replicates)]

    def one(cell: tuple) -> dict:
        N, rep = cell
        rep_seed = spawn_seed(seed, "width", N, rep)
        data = _rep_dataset(replace(spec, N=N), rep_seed)
        cfg = replace(config, n=None, seed=spawn_seed(rep_seed, "ensemble"))
        ens = train_ensemble(data, cfg)
        iv = infer_feature(ens, j)
        return {"N": N, "rep": rep, "width": float(iv.hi - iv.lo)}

    rows = thread_map(one, cells, threads)
    settings = _settings(spec, config, j=j, replicates=replicates,
                         n_grid=list(n_grid))
    return BenchReport("width", seed, settings,
                       summarize_rows("width", rows), tuple(rows))


def run_power(spec: SimSpec, config: MPConfig, j: int, snr_grid: list[float],
              replicates: int, seed: int, threads: int = 1) -> BenchReport:
    """Rejection rate for feature j across signal magnitudes, with the
    split-sample baseline alongside."""
    _check_replicates(replicates)
    if not snr_grid:
        raise InvalidSpec("empty SNR grid")
    cells = [(float(snr), rep) for snr in snr_grid for rep in range(replicates)]

    def one(cell: tuple) -> dict:
        snr, rep = cell
        rep_seed = spawn_seed(seed, "power", repr(snr), rep)
        data = _rep_dataset(replace(spec, snr=snr), rep_seed)
        cfg = replace(config, seed=spawn_seed(rep_seed, "ensemble"))
        ens = train_ensemble(data, cfg)
        iv = infer_feature(ens, j)
        row = {
            "snr": snr, "rep": rep,
            "t": _finite(iv.t_stat) if iv.t_stat is not None else None,
            "p": _finite(iv.p_value) if iv.p_value is not None else None,
            "reject": bool(iv.reject),
        }
        learner = cfg.learner if cfg.learner is not None else RidgeLearner()
        base = loco_split_baseline(data, j, cfg.alpha, learner,
                                   split_seed=spawn_seed(rep_seed, "split"))
        row["split_p"] = _finite(base.p_value) if base.p_value is not None else None
        row["split_reject"] = bool(base.reject)
        return row

    rows = thread_map(one, cells, threads)
    settings = _settings(spec, config, j=j, replicates=replicates,
                         snr_grid=[float(s) for s in snr_grid],
                         baseline=True)
    return BenchReport("power", seed, settings,
                       summarize_rows("power", rows), tuple(rows))


def _selection_scores(selected: set[int], truth: set[int], M: int) -> dict:
    tp = len(selected & truth)
    fp = len(selected - truth)
    fn = len(truth - selected)
    tn = M - tp - fp - fn
    f1 = 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
    return {
        "f1": float(f1),
        "tpr": float(tp / len(truth)) if truth else 0.0,
        "fpr": float(fp / (M - len(truth))) if M > len(truth) else 0.0,
        "tnr": float(tn / (M - len(truth))) if M > len(truth) else 1.0,
        "fnr": float(fn / len(truth)) if truth else 0.0,
    }


def run_selection(spec: SimSpec, config: MPConfig, replicates: int,
                  seed: int, threads: int = 1) -> BenchReport:
    """Multiplicity-corrected tests on every feature, scored against the
    generating support."""
    _check_replicates(replicates)
    truth = true_support(spec)

    def one(rep: int) -> dict:
        rep_seed = spawn_seed(seed, "selection", rep)
        data = _rep_dataset(spec, rep_seed)
        cfg = replace(config, seed=spawn_seed(rep_seed, "ensemble"))
        ens = train_ensemble(data, cfg)
        report = infer_all(ens, bonferroni=True)
        selected = {iv.j for iv in report.intervals
                    if iv is not None and iv.reject}
        row = {"rep": rep, "selected": sorted(selected)}
        row.update(_selection_scores(selected, truth, data.n_features))
        return row

    rows = thread_map(one, range(replicates), threads)
    settings = _settings(spec, config, replicates=replicates,
                         true_support=sorted(truth))
    return BenchReport("selection", seed, settings,
                       summarize_rows("selection", rows), tuple(rows))


def run_predictive_coverage(spec: SimSpec, config: MPConfig, ensembles: int,
                            points_per_ensemble: int, seed: int,
                            threads: int = 1,
                            binomial_K_tilde: int | None = None) -> BenchReport:
    """Fresh-test-point coverage of the jackknife+ construction, pooled
    over independently trained ensembles.

    ``binomial_K_tilde`` opts into the randomised-ensemble-size variant:
    each ensemble's patch count is drawn as
    Binomial(K_tilde, 1 - n/(N+1)) instead of the fixed config K.
    """
    _check_replicates(ensembles)
    draw = sampler(spec)

    def one(e: int) -> list[dict]:
        rep_seed = spawn_seed(seed, "predictive", e)
        data = _rep_dataset(spec, rep_seed)
        cfg = replace(config, seed=spawn_seed(rep_seed, "ensemble"))
        if binomial_K_tilde is not None:
            resolved = cfg.resolve(data.n_rows, data.n_features)
            K = max(1, sample_K_binomial(binomial_K_tilde, resolved.n,
                                         data.n_rows,
                                         spawn_seed(rep_seed, "patch-count")))
            cfg = replace(cfg, K=K)
        ens = train_ensemble(data, cfg)
        res = loo_residuals(ens)
        test = draw(points_per_ensemble, spawn_seed(rep_seed, "testdata"))
        rows = []
        if spec.task == Task.REGRESSION:
            intervals = predict_intervals_batch(ens, res, test.X, cfg.alpha)
            for t, iv in enumerate(intervals):
                w = iv.width
                rows.append({
                    "ensemble": e, "point": t,
                    "covered": bool(iv.contains(float(test.Y[t]))),
                    "width": _finite(w),
                })
        else:
            sets = predict_sets_batch(ens, res, test.X, cfg.alpha)
            for t, ps in enumerate(sets):
                rows.append({
                    "ensemble": e, "point": t,
                    "covered": bool(ps.contains(int(test.Y[t]))),
                    "set_size": len(ps.labels),
                })
        return rows

    nested = thread_map(one, range(ensembles), threads)
    rows = [row for chunk in nested for row in chunk]
    settings = _settings(spec, config, ensembles=ensembles,
                         points_per_ensemble=points_per_ensemble,
                         binomial_K_tilde=binomial_K_tilde)
    return BenchReport("predictive", seed, settings,
                       summarize_rows("predictive", rows), tuple(rows))
