"""End-to-end benchmark of the ``mpinfer`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload infer-ridge --seed 1 --seconds 30 --trace 0

Set-up writes the workload's inputs with ``mpinfer simulate``.  Then one
client runs the workload's ``mpinfer`` command as a child process, one at
a time (a closed loop), in whole rounds until ``--seconds`` have passed.
Every output is checked: the first against the reference and the
method's properties (``verify``), the rest for byte equality with the
first.  With ``--trace 1`` the command's steps are instead redone as
traced library calls (``tracing``); spans go to ``perfbench/work/spans/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    WORKLOADS, command_args, output_file, simulate_args,
)

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


def run_mpinfer(args: list[str], log: Path) -> dict:
    """Run one ``mpinfer`` command; its own wall, CPU and peak memory."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mpinfer.cli", *args],
                                cwd=HERE.parent, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def set_up(w, seed: int, work: Path, log: Path) -> None:
    """Write the inputs; a workload without input files starts a bare
    ``mpinfer`` process instead, so set-up times its start-up."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for args in simulate_args(w, seed, work) or [["--help"]]:
        if run_mpinfer(args, log)["rc"] != 0:
            raise RuntimeError(f"set-up failed: mpinfer {' '.join(args)} (see {log})")


def command_loop(w, seed: int, seconds: float, work: Path, log: Path):
    """Closed loop of untraced commands in whole rounds until ``seconds``
    pass; returns (per-round measurements, failed, first output, problems)."""
    out_path = output_file(w, work)
    runs, failed, first, problems = [], 0, None, []
    deadline = time.perf_counter() + seconds
    while True:
        out_path.unlink(missing_ok=True)
        m = run_mpinfer(command_args(w, seed, work), log)
        runs.append(m)
        if m["rc"] != 0:
            failed += 1
        elif first is None:
            first = out_path.read_bytes()
        elif out_path.read_bytes() != first:
            problems.append(f"round {len(runs)}: output differs from round 1")
        if time.perf_counter() >= deadline:
            return runs, failed, first, problems


def timed_run(w, seed: int, seconds: float, work: Path, log: Path):
    """End-to-end metrics: medians over the rounds of the loop."""
    runs, failed, output, problems = command_loop(w, seed, seconds, work, log)
    metrics = {key: (statistics.median(r[key] for r in runs), unit)
               for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                                 ("peak_rss_mb", "MB"))}
    return metrics, len(runs), failed, output, problems


def traced_run(w, seed: int, seconds: float, work: Path, log: Path):
    """Per-layer metrics: the command once, untraced, for its output, then
    traced rounds until ``seconds`` pass; spans go to ``WORK/spans``."""
    import tracing
    from checks import check_fits

    runs, failed, output, problems = command_loop(w, seed, 0.0, work, log)
    if w.kind == "coverage" and output is not None:
        expected = json.loads(output)["rows"]
    else:
        expected = output
    tr = tracing.Tracer()
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        out, counts = tracing.traced_round(tr, w, seed, work)
        if out != expected:
            problems.append(f"traced round {tr.round}: output differs from the command's")
        problems += check_fits(counts["fits_per_ensemble"], w.K,
                               counts["fits_in_inference"])
        rounds.append((tr.totals(tr.round), counts))
        tr.round += 1
        if time.perf_counter() >= deadline:
            break

    metrics = {f"{name}_s": (statistics.median(t.get(name, 0.0) for t, _ in rounds), "s")
               for name in tracing.LAYERS}
    metrics["ensemble.fits"] = (
        statistics.median(sum(c["fits_per_ensemble"]) for _, c in rounds), "count")
    metrics["ensemble.fits_in_inference"] = (
        max(c["fits_in_inference"] for _, c in rounds), "count")
    metrics["ensemble.cache_mb"] = (rounds[0][1]["cache_mb"], "MB")

    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{w.name}-seed{seed}.json").write_text(json.dumps({
        "workload": w.name, "seed": seed,
        "command_wall_s": runs[0]["wall_s"],
        "traced_command_s": [t["command"] for t, _ in rounds],
        "spans": tr.spans,
    }))
    return metrics, len(runs) + len(rounds), failed, output, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpinfer" / "cli.py").is_file():
        print(f"no mpinfer sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / w.name
    log = WORK / f"{w.name}.stderr.log"
    WORK.mkdir(exist_ok=True)
    log.unlink(missing_ok=True)
    set_up(w, args.seed, work, log)
    setup_s = time.perf_counter() - _START

    sys.path.insert(0, str(SRC))
    from verify import verify

    measure = traced_run if args.trace else timed_run
    metrics, attempted, failed, output, problems = measure(
        w, args.seed, args.seconds, work, log)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    if output is None:
        problems.append("no round of the command succeeded")
    else:
        try:
            problems += verify(w, args.seed, work, output)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
