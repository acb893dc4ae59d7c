"""Checks one workload's command output against the reference and the
method's properties (see ``checks``).

Inputs are read back from the CSV files with numpy, not through
``mpinfer.core``.  From the package this module takes only what defines
the inputs: the patch draw (``sample_minipatches``), and for the coverage
workload the replicate seeds and generated data (``spawn_seed``,
``generate``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace

import numpy as np

import checks
from workloads import ALPHA, COVERAGE_FEATURE, RIDGE_LAMBDA, input_files

from mpinfer.ensemble import sample_minipatches
from mpinfer.rng import spawn_seed
from mpinfer.simgen import SimSpec, generate


def read_csv(path):
    """Features (all columns but the last) and the target column."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1]


def _patches(w, seed: int):
    return checks.patch_arrays(sample_minipatches(w.N, w.M, w.n, w.m, w.K, seed),
                               w.N, w.M)


def _check_settings(w, seed: int, settings: dict) -> list[str]:
    want = {"K": w.K, "n": w.n, "m": w.m, "seed": seed, "alpha": ALPHA}
    return [f"settings echo {k}={settings.get(k)!r}, expected {v!r}"
            for k, v in want.items() if settings.get(k) != v]


def verify_infer(w, seed: int, work, output: bytes) -> list[str]:
    report = json.loads(output)
    X, Y = read_csv(input_files(w, work)["train"])
    rows, feats, obs, fm = _patches(w, seed)
    W, b = checks.ridge_reference(X, Y, rows, feats, RIDGE_LAMBDA)
    cache = checks.predictions(W, b, X)
    loo, loco = checks.loo_loco(cache, obs, fm)
    mean, sd = checks.occlusion_stats(Y, loo, loco)
    problems = _check_settings(w, seed, report["settings"])
    problems += checks.check_occlusion(report["features"], mean, sd, w.N)
    problems += checks.check_intervals(report, w.N)
    problems += checks.check_support(report, w.support)
    problems += checks.check_b_hat(report["b_hat"], cache, obs)
    return problems


def parse_intervals(output: bytes):
    rows = list(csv.reader(io.StringIO(output.decode("utf8"))))
    if rows[0] != ["row_id", "lo", "hi"]:
        raise ValueError(f"unexpected header {rows[0]}")
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    if not np.array_equal(body[:, 0], np.arange(body.shape[0])):
        raise ValueError("row ids are not 0..T-1")
    return body[:, 1], body[:, 2]


def verify_predict(w, seed: int, work, output: bytes) -> list[str]:
    files = input_files(w, work)
    X, Y = read_csv(files["train"])
    X_new, y_new = read_csv(files["new"])
    lo, hi = parse_intervals(output)
    if lo.shape[0] != w.new_points:
        return [f"{lo.shape[0]} intervals for {w.new_points} new points"]
    rows, feats, obs, fm = _patches(w, seed)
    W, b = checks.ridge_reference(X, Y, rows, feats, RIDGE_LAMBDA)
    loo, _ = checks.loo_loco(checks.predictions(W, b, X), obs, fm)
    ref_lo, ref_hi = checks.jackknife_plus(Y, loo, checks.predictions(W, b, X_new),
                                           obs, ALPHA)
    scale = float(Y.std())
    return (checks.check_bounds(lo, hi, ref_lo, ref_hi, scale)
            + checks.check_predictive_coverage(lo, hi, y_new, ALPHA))


def coverage_reference(w, seed: int):
    """Per replicate: (conditional target, occlusion mean of feature j),
    following ``mpinfer bench coverage``'s documented seed derivation."""
    spec = SimSpec(model=w.model, task="regression", N=w.N, M=w.M, snr=w.snr,
                   seed=seed)
    j = COVERAGE_FEATURE
    targets, centres = [], []
    for rep in range(w.replicates):
        rep_seed = spawn_seed(seed, "coverage", rep)
        data = generate(replace(spec, seed=spawn_seed(rep_seed, "data")))
        rows, feats, obs, fm = _patches(w, spawn_seed(rep_seed, "ensemble"))
        W, b = checks.ridge_reference(data.X, data.Y, rows, feats, RIDGE_LAMBDA)
        loo, loco = checks.loo_loco(checks.predictions(W, b, data.X), obs, fm)
        mean, _ = checks.occlusion_stats(data.Y, loo, loco)
        test = generate(replace(spec, N=w.n_test, seed=spawn_seed(
            spawn_seed(rep_seed, "target"), "testdata")))
        targets.append(checks.conditional_target(W, b, fm, j, test.X, test.Y))
        centres.append(float(mean[j]))
    return targets, centres


def verify_coverage(w, seed: int, work, output: bytes) -> list[str]:
    report = json.loads(output)
    rows = report["rows"]
    if [r["rep"] for r in rows] != list(range(w.replicates)):
        return [f"replicates {[r['rep'] for r in rows]}, expected {w.replicates}"]
    targets, centres = coverage_reference(w, seed)
    problems = checks.check_coverage_rows(rows, targets, centres)
    covered = [r["covered"] for r in rows]
    if report["metrics"]["coverage"] != sum(covered) / len(covered):
        problems.append("summary coverage does not match the rows")
    return problems


def verify(w, seed: int, work, output: bytes) -> list[str]:
    if w.kind == "infer":
        return verify_infer(w, seed, work, output)
    if w.kind == "predict":
        return verify_predict(w, seed, work, output)
    return verify_coverage(w, seed, work, output)
