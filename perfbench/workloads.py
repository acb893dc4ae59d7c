"""The benchmark's workloads: what each prepares with ``mpinfer simulate``
and which ``mpinfer`` command it times.

Sizes are picked so that one command takes a few seconds on a 2-core
machine while the stage that dominates the command stays the one named
in the README (LOCO aggregate, new-point LOO, oracle).  Every workload
uses the CLI's default ridge learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

ALPHA = 0.1            # CLI default
RIDGE_LAMBDA = 0.0001  # CLI default
COVERAGE_FEATURE = 0   # CLI default --j
NEW_POINTS_SEED = 100_000  # added to the seed for predict's fresh rows


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "infer", "predict" or "coverage"
    model: str
    N: int
    M: int
    snr: float
    K: int
    support: tuple[int, ...] = ()  # infer: features that must be rejected
    new_points: int = 0        # predict: fresh rows scored
    replicates: int = 0        # coverage
    n_test: int = 0            # coverage

    @property
    def n(self) -> int:
        return math.isqrt(self.N - 1) + 1

    @property
    def m(self) -> int:
        return math.isqrt(self.M - 1) + 1


WORKLOADS = {w.name: w for w in (
    Workload("infer-ridge", "infer", "linear", N=2000, M=100, snr=5.0, K=2500,
             support=tuple(range(10))),
    Workload("predict-ridge", "predict", "linear", N=1000, M=50, snr=5.0,
             K=4000, new_points=1000),
    Workload("coverage-ridge", "coverage", "linear", N=250, M=50, snr=0.0,
             K=2000, replicates=2, n_test=10_000),
)}


def input_files(w: Workload, work: Path) -> dict[str, Path]:
    """Files the workload's set-up writes, by role."""
    if w.kind == "infer":
        return {"train": work / "train.csv"}
    if w.kind == "predict":
        return {"train": work / "train.csv", "new": work / "new.csv"}
    return {}


def simulate_args(w: Workload, seed: int, work: Path) -> list[list[str]]:
    """``mpinfer simulate`` argument lists that write the workload's inputs."""
    def sim(N: int, data_seed: int, out: Path) -> list[str]:
        return ["simulate", "--model", w.model, "--task", "regression",
                "--N", str(N), "--M", str(w.M), "--snr", repr(w.snr),
                "--seed", str(data_seed), "--out", str(out)]

    files = input_files(w, work)
    out = [sim(w.N, seed, files["train"])] if "train" in files else []
    if "new" in files:
        out.append(sim(w.new_points, seed + NEW_POINTS_SEED, files["new"]))
    return out


def output_file(w: Workload, work: Path) -> Path:
    return work / ("intervals.csv" if w.kind == "predict" else "report.json")


def command_args(w: Workload, seed: int, work: Path) -> list[str]:
    """The timed ``mpinfer`` command, with the CLI's default --threads."""
    out = str(output_file(w, work))
    if w.kind == "coverage":
        return ["bench", "coverage", "--model", w.model, "--task", "regression",
                "--N", str(w.N), "--M", str(w.M), "--snr", repr(w.snr),
                "--K", str(w.K), "--replicates", str(w.replicates),
                "--n-test", str(w.n_test), "--j", str(COVERAGE_FEATURE),
                "--seed", str(seed), "--out", out]
    files = input_files(w, work)
    args = [w.kind, "--data", str(files["train"]), "--task", "regression",
            "--K", str(w.K), "--seed", str(seed)]
    if w.kind == "infer":
        return args + ["--bonferroni", "--format", "json", "--out", out]
    return args + ["--new-data", str(files["new"]), "--out", out]
