"""Benchmark of the diabrisk CLI on a seeded synthetic BRFSS-2015 table.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Each command runs the way users run it: one fresh ``diabrisk`` process, one at
a time. A round runs every command of the workload once and then checks what
each one wrote. An untraced run (``--trace 0``) makes rounds until
``--seconds`` are used, at least three, and prints the end-to-end metrics:
the sum over commands of each command's median wall time, the median
start-up of a fresh interpreter that imports ``diabrisk.cli``, and the median
over rounds of the largest peak RSS of a command. A traced run
(``--trace 1``) makes one untraced round and one round through ``tracer.py``
and prints the per-layer metrics and the tracing overhead. The last line of standard output is one JSON object.

Inputs are made from ``--seed`` by ``synth.py``; the program gets the CSV,
the workload's config file from ``configs/`` and ``--seed``. Everything is
written under ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import os

# One BLAS thread for the program and for the checks: with the default two,
# the same command's wall time varied by up to a quarter between runs on a
# shared two-core machine, for no gain in the median.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import synth
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENTRY = "import sys; from diabrisk.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3
MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    name: str
    args: tuple
    check: object
    data: str = "table"     # input file: table | short_row | bad_byte
    expect_exit: int = 0


@dataclass(frozen=True)
class Workload:
    scale: float            # share of the 253,680-row table
    config: str             # file under configs/
    ops: tuple


WORKLOADS = {
    # ingestion-bound: three loads, eda/correlation/plots, plus two malformed
    # tables that must end in a data error (exit 2) and today raise instead
    "survey": Workload(0.16, "survey.cfg", (
        Op("eda", ("eda",), checks.eda),
        Op("baseline", ("baseline",), checks.baseline),
        Op("train-income", ("train", "--experiment", "income"), checks.train_income),
        Op("eda-short-row", ("eda",), checks.data_error, "short_row", 2),
        Op("eda-bad-byte", ("eda",), checks.data_error, "bad_byte", 2),
    )),
    # logistic optimizers and grid search: the 50-fit C x optimizer grid
    "health-tuned": Workload(0.1, "health-tuned.cfg", (
        Op("train-health-tuned", ("train", "--experiment", "health", "--tuned"),
           checks.health_tuned),
    )),
    # 180 one-column tree fits, their predictions, ROC scoring and fold
    # bookkeeping; split-first keeps raw rows in the test set
    "income-tuned": Workload(0.15, "income-tuned.cfg", (
        Op("train-income-tuned",
           ("train", "--experiment", "income", "--tuned", "--split-first"),
           checks.income_tuned),
    )),
    # deep unbounded forest trees on 21 SMOTE'd columns, lasso path and RFE
    "features": Workload(0.05, "features.cfg", (
        Op("features", ("features",), checks.features),
    )),
}

# the first data row of a malformed copy; neither depends on the seed
SHORT_ROW = b"0.0,1.0,1.0,1.0,30.0,0.0,0.0,0.0,1.0,1.0,1.0,0.0,1.0,0.0,3.0,0.0,0.0,0.0,1.0,9.0\n"
BAD_BYTE_ROW = (b"0.0,1.0,1.0,1.0,30.0,0.0,0.0,0.0,1.0,1.0,1.0,0.0,1.0,0.0,3.0,"
                b"0.0,0.0,0.0,1.0,9.0,6.0,\xff7.0\n")


@dataclass
class Result:
    op: Op
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    stderr: str = ""


def child_env():
    """The caller's environment (BLAS pinned to one thread above) with the
    checkout's sources first on the path, UTF-8 text I/O and bytecode caching
    on, as for an installed program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUTF8"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(argv, cwd, env, stderr=subprocess.DEVNULL):
    """Run one process to its end: (exit code, wall s, user+sys CPU s, peak
    RSS MB). The process is killed after COMMAND_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def check_program(env, cwd):
    """Import diabrisk.cli once (this also fills the bytecode cache) and make
    sure it comes from this checkout."""
    out = subprocess.run(
        [sys.executable, "-c", "import diabrisk.cli; print(diabrisk.cli.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    found = Path(out.stdout.strip()).resolve() if out.returncode == 0 else None
    if found != (SRC / "diabrisk" / "cli.py").resolve():
        raise SystemExit(f"diabrisk.cli not importable from {SRC}: {out.stderr.strip()}")


def measure_setup(env, cwd):
    """Median wall time of fresh interpreters that import diabrisk.cli."""
    argv = [sys.executable, "-c", "import diabrisk.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _, _ = launch(argv, cwd, env)
        if code != 0:
            raise SystemExit("import diabrisk.cli failed")
        samples.append(wall)
    return statistics.median(samples)


def prepare(work, workload, seed):
    """Fresh work directory with the seeded table, its malformed copies and
    the config file. Returns the generated table."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    table = synth.generate(seed, workload.scale)
    text = synth.to_csv_bytes(table)
    (work / "table.csv").write_bytes(text)
    if any(op.data != "table" for op in workload.ops):
        header, _, rest = text.partition(b"\n")
        rest = rest.partition(b"\n")[2]  # first data row replaced
        (work / "short_row.csv").write_bytes(header + b"\n" + SHORT_ROW + rest)
        (work / "bad_byte.csv").write_bytes(header + b"\n" + BAD_BYTE_ROW + rest)
    shutil.copyfile(HERE / "configs" / workload.config, work / "bench.cfg")
    return table


def run_round(workload, work, env, seed, traced):
    """Every command of the workload once, each with a fresh output directory.
    Paths are relative to the work directory, so report.json is the same in
    every round."""
    results = []
    for op in workload.ops:
        out = Path("out") / op.name
        shutil.rmtree(work / out, ignore_errors=True)
        cli = list(op.args) + ["--data", f"{op.data}.csv", "--config", "bench.cfg",
                               "--seed", str(seed), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), f"spans-{op.name}.json", "--"] + cli
        else:
            argv = [sys.executable, "-c", ENTRY] + cli
        with open(work / f"stderr-{op.name}.txt", "w+b") as err:
            code, wall, cpu, rss = launch(argv, work, env, stderr=err)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        results.append(Result(op, code, wall, cpu, rss, work / out, stderr))
    return results


def report_name(op):
    return ("splitfirst_" if "--split-first" in op.args else "") + "report.json"


def judge(results, inputs, first_reports):
    """(failed count, problems). An operation fails when its exit code is not
    the documented one or its outputs fail a check; problems lists the
    checks that failed on operations that exited as documented."""
    failed, problems = 0, []
    for r in results:
        if r.exit != r.op.expect_exit:
            failed += 1
            continue
        try:
            found = r.op.check(inputs, r.out, r.stderr)
            if r.op.expect_exit == 0:
                body = (r.out / report_name(r.op)).read_bytes()
                if first_reports.setdefault(r.op.name, body) != body:
                    found.append("report.json differs from the first round's")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            # a missing or unreadable output is a failed check, not a crash
            found = [f"output unreadable: {exc!r}"]
        if found:
            failed += 1
            problems += [f"{r.op.name}: {p}" for p in found]
    return failed, problems


def artifact_bytes(results):
    return sum(f.stat().st_size for r in results if r.out.is_dir()
               for f in r.out.iterdir() if f.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diabrisk" / "cli.py").is_file():
        print(f"no diabrisk sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    table = prepare(work, workload, args.seed)
    inputs = checks.Inputs(table, args.seed, checks.read_config(work / "bench.cfg"))
    env = child_env()
    check_program(env, work)

    rounds, first_reports = [], {}
    attempted = failed = 0
    problems = []

    def one_round(traced):
        nonlocal attempted, failed
        results = run_round(workload, work, env, args.seed, traced)
        n_failed, found = judge(results, inputs, first_reports)
        attempted += len(results)
        failed += n_failed
        problems.extend(found)
        rounds.append(results)
        return results

    if args.trace:
        untraced = one_round(False)
        traced = one_round(True)
        traces = [json.loads((work / f"spans-{op.name}.json").read_text())
                  for op in workload.ops]
        layers = tracer.layer_metrics(traces, untraced, artifact_bytes(traced))
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in layers.items()}
        overhead = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
        summary = [f"tracing overhead: {overhead:.4f} s "
                   f"(traced round minus untraced round)"]
    else:
        setup_s = measure_setup(env, work)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            one_round(False)
            last = time.perf_counter() - t0
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > args.seconds:
                break
        # per-command medians, so a burst of load from elsewhere on the
        # machine that slows one command in one round does not count
        metrics = {
            "wall_s": {"value": sum(
                statistics.median(rnd[i].wall_s for rnd in rounds)
                for i in range(len(workload.ops))), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                max(r.rss_mb for r in rnd) for rnd in rounds), "unit": "MB"},
        }
        summary = ["round wall s: " + " ".join(
            f"{sum(r.wall_s for r in rnd):.3f}" for rnd in rounds)]

    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(f"attempted: {attempted}  failed: {failed}")
    for line in summary:
        print(line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
