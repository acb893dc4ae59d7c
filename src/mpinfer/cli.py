"""Command-line surface.

Subcommands: simulate, infer, predict, oracle, and
bench {coverage,width,power,selection,predictive}.  Progress goes to
stderr; stdout carries only the output path, or the report itself with
--format json and no --out.

Exit codes: 0 success, 2 usage error, 3 data error, 4 coverage failure,
5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bench as bench_mod
from .conformal import loo_residuals, predict_intervals_batch, predict_sets_batch
from .core import (
    CoverageFailure, Dataset, InvalidSpec, MissingColumn, MPConfig,
    MPInferError, Task, load_dataset, parse_columns, read_csv, save_dataset,
)
from .ensemble import train_ensemble
from .learners import learner_from_name
from .loco import infer_all, report_to_csv, report_to_json
from .oracle import LinearTargetParams, linear_closed_form_target, monte_carlo_target
from .simgen import SimModel, SimSpec, generate, sampler, write_sidecar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COVERAGE = 4
EXIT_INTERNAL = 5

_DATA_ERRORS = (
    "MissingColumn", "NonNumericCell", "TooFewRows", "NonFiniteValue",
    "ZeroVarianceFeature", "InvalidClassIndex", "DimensionMismatch",
    "InvalidSize", "InvalidSpec", "SingularSystem",
)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--K", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learner", choices=["ridge", "tree", "constant"],
                   default="ridge")
    p.add_argument("--ridge-lambda", type=float, default=0.0001)
    p.add_argument("--tree-depth", type=int, default=8)
    p.add_argument("--tree-min-leaf", type=int, default=3)
    p.add_argument("--no-buffer", action="store_true")
    p.add_argument("--c", type=float, default=0.000005,
                   help="variance-barrier constant")
    p.add_argument("--threads", type=int, default=1)


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=[m.value for m in SimModel],
                   default="linear")
    p.add_argument("--task", choices=[t.value for t in Task],
                   default="regression")
    p.add_argument("--N", type=int, default=500)
    p.add_argument("--M", type=int, default=50)
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=[t.value for t in Task], required=True)
    p.add_argument("--target-col", default="target",
                   help="target column name, or 0-based index")


def _config_from(args) -> MPConfig:
    learner = learner_from_name(args.learner, ridge_lambda=args.ridge_lambda,
                                max_depth=args.tree_depth,
                                min_leaf=args.tree_min_leaf)
    return MPConfig(n=args.n, m=args.m, K=args.K, seed=args.seed,
                    alpha=args.alpha, learner=learner, buffer_c=args.c,
                    use_buffer=not args.no_buffer)


def _spec_from(args) -> SimSpec:
    return SimSpec(model=args.model, task=args.task, N=args.N, M=args.M,
                   snr=args.snr, rho=args.rho, seed=args.seed)


def _grid(cast):
    """argparse type for a comma-separated list of ``cast`` values."""
    def parse(raw: str) -> list:
        try:
            return [cast(v) for v in raw.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, got {raw!r}") from None
    return parse


def _target_col(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def _load(args) -> Dataset:
    return load_dataset(args.data, Task(args.task), _target_col(args.target_col))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf8") as fh:
            fh.write(text)
        print(out)
    else:
        print(text)


def _cmd_simulate(args) -> int:
    spec = _spec_from(args)
    data = generate(spec)
    out = args.out or "simulated.csv"
    save_dataset(data, out)
    write_sidecar(spec, out + ".json")
    _progress(f"wrote {data.n_rows}x{data.n_features} dataset")
    print(out)
    return EXIT_OK


def _cmd_infer(args) -> int:
    data = _load(args)
    config = _config_from(args)
    _progress(f"training ensemble on {data.n_rows}x{data.n_features}")
    ens = train_ensemble(data, config, threads=args.threads)
    _progress("running per-feature inference")
    report = infer_all(ens, bonferroni=args.bonferroni)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit(text, args.out)
    return EXIT_OK


def _read_new_points(path, data: Dataset) -> np.ndarray:
    """New rows as a (T, M) matrix, columns matched to the training
    features by header name; other columns are not read."""
    header, rows = read_csv(path)
    missing = [n for n in data.feature_names if n not in header]
    if missing:
        raise MissingColumn(f"{path}: no column named {missing[0]!r}")
    return parse_columns(header, rows, [header.index(n) for n in data.feature_names])


def _cmd_predict(args) -> int:
    data = _load(args)
    X_new = _read_new_points(args.new_data, data)
    config = _config_from(args)
    ens = train_ensemble(data, config, threads=args.threads)
    res = loo_residuals(ens)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if data.task == Task.REGRESSION:
        writer.writerow(["row_id", "lo", "hi"])
        for t, iv in enumerate(predict_intervals_batch(ens, res, X_new, config.alpha)):
            writer.writerow([t, format(iv.lo, ".17g"), format(iv.hi, ".17g")])
    else:
        writer.writerow(["row_id", "labels"])
        for t, ps in enumerate(predict_sets_batch(ens, res, X_new, config.alpha)):
            writer.writerow([t, ";".join(data.label_names[y] for y in ps.labels)])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _spec_from(args)
    if spec.model == SimModel.NONLINEAR or spec.task != Task.REGRESSION:
        raise InvalidSpec(
            "closed-form targets exist for the linear regression models only")
    train = generate(spec)
    config = _config_from(args)
    mc = monte_carlo_target(train, config, args.j, sampler(spec),
                            n_test=args.n_test,
                            seed=args.seed, error="squared")
    cfg = config.resolve(train.n_rows, train.n_features)
    from .simgen import true_beta
    closed = linear_closed_form_target(LinearTargetParams(
        beta=true_beta(spec), gamma=cfg.m / spec.M, M=spec.M, j=args.j))
    payload = {
        "target_mc": mc.value,
        "target_closed_form": closed,
        "gap": mc.value - closed,
        "mc_se": mc.se,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    spec = _spec_from(args)
    config = _config_from(args)
    kind = args.experiment
    _progress(f"running {kind} bench ({args.replicates} replicates)")
    if kind == "coverage":
        report = bench_mod.run_coverage(spec, config, args.j, args.replicates,
                                        args.seed, threads=args.threads,
                                        n_test=args.n_test,
                                        target=args.target_mode)
    elif kind == "width":
        report = bench_mod.run_width(spec, config, args.j, args.n_grid,
                                     args.replicates, args.seed,
                                     threads=args.threads)
    elif kind == "power":
        report = bench_mod.run_power(spec, config, args.j, args.snr_grid,
                                     args.replicates, args.seed,
                                     threads=args.threads)
    elif kind == "selection":
        report = bench_mod.run_selection(spec, config, args.replicates,
                                         args.seed, threads=args.threads)
    else:
        report = bench_mod.run_predictive_coverage(
            spec, config, args.replicates, args.points_per_ensemble,
            args.seed, threads=args.threads,
            binomial_K_tilde=args.binomial_k_tilde)
    text = report.rows_to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpinfer",
        description="Minipatch ensembles with refit-free feature-importance "
                    "and predictive inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset + sidecar")
    _add_spec_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("infer", help="feature-importance report for a CSV")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--bonferroni", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("predict", help="predictive intervals/sets for new rows")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--new-data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("oracle", help="Monte Carlo vs closed-form target")
    _add_spec_flags(p)
    _add_config_flags(p)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--n-test", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("bench", help="replicated experiment suites")
    p.add_argument("experiment",
                   choices=["coverage", "width", "power", "selection",
                            "predictive"])
    _add_spec_flags(p)
    _add_config_flags(p)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--n-test", type=int, default=10_000)
    p.add_argument("--target-mode", choices=["conditional", "independent"],
                   default="conditional")
    p.add_argument("--n-grid", type=_grid(int), default="250,1000")
    p.add_argument("--snr-grid", type=_grid(float), default="0,5,10")
    p.add_argument("--points-per-ensemble", type=int, default=100)
    p.add_argument("--binomial-k-tilde", type=int, default=None,
                   help="draw each ensemble's patch count as "
                        "Binomial(K_tilde, 1 - n/(N+1))")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CoverageFailure as exc:
        _progress(f"coverage failure: {exc}")
        return EXIT_COVERAGE
    except MPInferError as exc:
        if type(exc).__name__ in _DATA_ERRORS:
            _progress(f"data error: {exc}")
            return EXIT_DATA
        _progress(f"error: {exc}")
        return EXIT_INTERNAL
    except OSError as exc:
        _progress(f"data error: {exc}")
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        _progress(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
