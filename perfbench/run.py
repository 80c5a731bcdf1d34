"""escatter benchmark: runs a workload's ``escatter-entropy`` commands as a
user runs them, checks every table row against committed reference values
and prints the end-to-end metrics; with ``--trace 1`` it also replays the
rows through the library under a tracer and prints the per-layer metrics.

Run from the root of a checkout (nothing needs building):

    python3 perfbench/run.py --workload ring-stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds, one pass
after another, each pass in a fresh seeded row order and preceded by one
timed fresh import of ``escatter.cli``, and reports medians over the
passes.  ``--trace 1`` runs the commands once at 2 and once at 1
worker threads, then replays them in-process through ``escatter.cli``:
once cut to their smallest rows as a warm-up, once untraced and once
traced.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(machine, command lines, samples, spans) goes to
``.perfbench_work/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from check import TableCheck, check_table, load_reference
from workloads import COLUMNS, THREADS, WORKLOADS, Command, Plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A command still running after this long is killed and its rows fail.
COMMAND_TIMEOUT_S = 150.0
MAX_PASSES = 100
#: Repeats of the continuous-limit calls; entropy.jaynes_s is their median.
JAYNES_REPEATS = 5

NPROC = len(os.sched_getaffinity(0))
#: Worker threads times BLAS threads stays within the CPUs we may use.
BLAS_THREADS = max(1, NPROC // THREADS)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")

END_TO_END_UNITS = {
    "table_s": "s",
    "rows_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "geometry.cells": "count",
    "geometry.cell_integrals_s": "s",
    "geometry.cells_per_s": "1/s",
    "entropy.ring_s": "s",
    "entropy.sphere_s": "s",
    "entropy.reduce_self_s": "s",
    "entropy.jaynes_s": "s",
    "spin.parallel_s": "s",
    "spin.antiparallel_s": "s",
    "spin.postselect_row_max_s": "s",
    "spin.postselect_row_sum_s": "s",
    "density_matrix.kernel_calls": "count",
    "density_matrix.kernel_element_us": "us",
    "density_matrix.build_s": "s",
    "density_matrix.eigen_s": "s",
    "density_matrix.nnz": "count",
    "cli.table_s": "s",
    **{f"cli.command_s.{name}": "s" for name in COLUMNS},
    "cli.thread_speedup": "ratio",
    "cli.slowest_row_share": "ratio",
    "trace.overhead_s": "s",
}


def machine_info() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "worker_threads": THREADS,
    }


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class CliRun:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def run_cli(argv: list[str], env: dict) -> CliRun:
    """Run ``python -m escatter.cli`` once; wall time and peak RSS come
    from the child's own exit (``wait4``)."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "stdout.txt", "w+b") as out, open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "escatter.cli", *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(proc.returncode, out.read().decode(), err.read().decode(),
                      wall, usage.ru_maxrss / 1024.0)


def measure_setup(env: dict, samples: int) -> tuple[list[float], list[str]]:
    """Wall times of fresh interpreters that import ``escatter.cli``."""
    times, problems = [], []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import escatter.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"import escatter.cli failed: {proc.stderr.strip()[-500:]}")
    return times, problems


@dataclass
class Pass:
    commands: list[Command]
    runs: list[CliRun]
    checks: list[TableCheck]

    @property
    def table_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def cells(self) -> int:
        return sum(c.cells for c in self.checks)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


def run_pass(commands: list[Command], env: dict, reference: dict,
             threads: int = THREADS) -> Pass:
    runs = [run_cli(c.argv(threads), env) for c in commands]
    checks = [check_table(c, r.exit_code, r.stdout, reference)
              for c, r in zip(commands, runs)]
    return Pass(commands, runs, checks)


@dataclass
class Result:
    workload: str
    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    record: dict = field(default_factory=dict)
    summary: list = field(default_factory=list)


def _pass_record(p: Pass) -> dict:
    return {"argv": [c.argv() for c in p.commands],
            "command_s": [r.wall_s for r in p.runs],
            "rss_mb": [r.rss_mb for r in p.runs],
            "table_s": p.table_s}


def measure(workload: str, seed: int, seconds: float, env: dict,
            reference: dict) -> Result:
    """Untraced run for ``seconds``: passes over the workload, each after
    one fresh-interpreter import for setup_s, so that both sample the same
    stretch of machine time."""
    plan = Plan(workload, seed)
    _, setup_problems = measure_setup(env, 1)  # warm-up, writes bytecode
    setup: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        times, problems = measure_setup(env, 1)
        setup += times
        setup_problems += problems
        passes.append(run_pass(plan.next_pass(), env, reference))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    problems = setup_problems + [msg for p in passes for c in p.checks
                                 for msg in c.problems]
    table = [p.table_s for p in passes]
    metrics = {
        "table_s": statistics.median(table),
        "rows_per_s": statistics.median((p.attempted - p.failed) / p.table_s
                                        for p in passes),
        "cells_per_s": statistics.median(p.cells / p.table_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    attempted = sum(p.attempted for p in passes)
    failed = attempted if setup_problems else sum(p.failed for p in passes)
    summary = [
        f"table_s      {metrics['table_s']:12.4f} s      median of {len(passes)} passes"
        f" (min {min(table):.4f}, max {max(table):.4f})",
        f"rows_per_s   {metrics['rows_per_s']:12.4f} 1/s    {passes[0].attempted} rows per pass",
        f"cells_per_s  {metrics['cells_per_s']:12.6g} 1/s    {passes[0].cells} cells per pass",
        f"peak_rss_mb  {metrics['peak_rss_mb']:12.1f} MB     largest command, median over passes",
        f"setup_s      {metrics['setup_s']:12.4f} s      median of {len(setup)} fresh imports"
        f" (min {min(setup):.4f}, max {max(setup):.4f})",
        f"fail_frac    {failed / attempted:12.4f} frac   {failed} of {attempted} rows",
    ]
    record = {"setup_s": setup, "passes": [_pass_record(p) for p in passes]}
    return Result(workload, metrics, attempted, failed, problems, record, summary)


def _compare_replay(commands: list[Command], cli_runs: list[CliRun],
                    outputs: list[tuple[int, str]]) -> tuple[int, list[str]]:
    """Rows whose replayed line differs from the CLI table's; a different
    exit code, header or line count fails every row of the command."""
    failed, problems = 0, []
    for command, run, (code, text) in zip(commands, cli_runs, outputs):
        want, got = run.stdout.splitlines(), text.splitlines()
        whole = code != run.exit_code or got[:2] != want[:2] or len(got) != len(want)
        for i in range(len(command.row_keys())):
            line = 2 + i
            if whole or got[line:line + 1] != want[line:line + 1]:
                failed += 1
                problems.append(f"replay of {command.name} row {i} differs: "
                                f"exit {code} {got[line:line + 1]} vs CLI exit "
                                f"{run.exit_code} {want[line:line + 1]}")
    return failed, problems


def traced(workload: str, seed: int, env: dict, reference: dict) -> Result:
    """Traced run: CLI at 2 and 1 threads, then a warm-up, an untraced and
    a traced replay of the same commands in this process; per-layer
    metrics come from the traced one."""
    import tracing  # imports numpy, so only after the BLAS settings

    commands = Plan(workload, seed).next_pass()
    cli2 = run_pass(commands, env, reference)
    cli1 = run_pass(commands, env, reference, threads=1)
    problems = [msg for p in (cli2, cli1) for c in p.checks for msg in c.problems]
    replayed = cli2.attempted
    attempted = cli2.attempted + cli1.attempted + replayed
    failed = cli2.failed + cli1.failed

    tracer = tracing.Tracer()
    try:
        tracing.replay(workload, tracing.warm_up_commands(commands))
        start = time.perf_counter()
        tracing.replay(workload, commands)
        plain_s = time.perf_counter() - start
        with tracer.installed():
            start = time.perf_counter()
            outputs = tracing.replay(workload, commands, tracer)
            traced_s = time.perf_counter() - start
            calls = tracing.jaynes_points(commands)
            for repeat in range(JAYNES_REPEATS):
                with tracer.span("entropy.jaynes_pass", row_id=f"{workload}:jaynes:{repeat}"):
                    for call in calls:
                        call()
    except Exception:  # a failing library call fails the replay, not the run
        problems.append("replay failed:\n" + traceback.format_exc())
        failed += replayed
        plain_s = traced_s = 0.0
    else:
        mismatched, msgs = _compare_replay(commands, cli2.runs, outputs)
        failed += mismatched
        problems += msgs

    layers = tracing.layer_metrics(tracer.spans)
    slowest_row_s = layers.pop("slowest_row_s")
    command_s = {name: 0.0 for name in COLUMNS}
    for command, run in zip(commands, cli2.runs):
        command_s[command.name] += run.wall_s
    metrics = {
        **layers,
        "cli.table_s": cli2.table_s,
        **{f"cli.command_s.{name}": t for name, t in command_s.items()},
        "cli.thread_speedup": cli1.table_s / cli2.table_s,
        "cli.slowest_row_share": slowest_row_s / cli2.table_s,
        "trace.overhead_s": traced_s - plain_s,
    }
    summary = [f"{name:34s} {value:14.6g} {PER_LAYER_UNITS[name]}"
               for name, value in metrics.items()]
    summary += [
        f"tracing overhead: traced replay {traced_s:.4f} s vs untraced replay "
        f"{plain_s:.4f} s ({traced_s - plain_s:+.4f} s); the CLI table took "
        f"{cli2.table_s:.4f} s at {THREADS} threads, {cli1.table_s:.4f} s at 1",
        f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} rows: "
        f"CLI at {THREADS} and 1 threads, and the replay checked against the CLI)",
    ]
    record = {"passes": [_pass_record(cli2), _pass_record(cli1)],
              "replay_s": plain_s, "traced_replay_s": traced_s,
              "spans": tracer.spans}
    return Result(workload, metrics, attempted, failed, problems, record, summary)


def _print_result(result: Result, seed: int, trace: int, machine: dict) -> None:
    print(f"== workload {result.workload}, seed {seed}, trace {trace}")
    for line in result.summary:
        print("  " + line)
    for msg in result.problems[:20]:
        print("  FAIL " + msg)
    out = WORK / f"result-{result.workload}-seed{seed}-trace{trace}.json"
    WORK.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": result.workload, "seed": seed, "trace": trace,
                   "machine": machine, "metrics": result.metrics,
                   "attempted": result.attempted, "failed": result.failed,
                   "problems": result.problems, **result.record}, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "escatter" / "cli.py").is_file():
        print(f"error: no escatter sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    env = cli_env()
    reference = load_reference()
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        if args.trace:
            result = traced(name, args.seed, env, reference)
        else:
            result = measure(name, args.seed, args.seconds, env, reference)
        _print_result(result, args.seed, args.trace, machine)
        results.append(result)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for result in results:
        prefix = f"{result.workload}/" if len(results) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": units[name]}
                        for name, value in result.metrics.items()})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0 and not any(r.problems for r in results),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
