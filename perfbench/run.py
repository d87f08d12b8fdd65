"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload close --seed 1 --seconds 20 --trace 0

Each call starts fresh interpreters (``child.py``) with an isolated
environment: every ``REPRO_*`` variable unset, ``PYTHONHASHSEED`` fixed,
an empty commissioning cache per process, and all processes pinned to one
CPU.  Service and cache directories live under ``.perfbench_run/`` in the
checkout.

* ``--trace 0`` prints the end-to-end metrics.  Set-up is sampled three
  times (two set-up-only processes plus the measuring one) and reported
  as the median.
* ``--trace 1`` prints the per-layer metrics: the timed time is split
  into an untraced half (the reference for the tracing overhead) and a
  traced half (the spans).

The last line of standard output is the result object.  The exit code
is 0 when every output matched its oracle, 1 when one did not, and 2
when the benchmark could not run at all (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REF_NS  # noqa: E402
#: Wall-clock budget for one invocation, all child processes included.
BUDGET_S = 170.0
#: Set-up-only processes per ``--trace 0`` run (the measuring process is
#: one more set-up sample).
SETUP_PROBES = 2


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU (affinity is inherited).

    The probes in ``calibrate.py`` then time the CPU the program runs on.
    Every workload is a closed loop with one producer, so pinning takes no
    parallel work away; it also replaces cross-CPU wake-ups, whose latency
    on a shared host swings with the neighbours, by plain context switches.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def isolated_env(root: pathlib.Path, cache_dir: pathlib.Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class Child:
    """One ``child.py`` process in its own process group."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: pathlib.Path):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            env=env,
            cwd=cwd,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, marker: str, deadline: float) -> tuple[float, str]:
        """Wait for the next line starting with ``marker``."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"timed out waiting for {marker}")
            try:
                stamp, line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise BenchError(f"timed out waiting for {marker}") from None
            if line is None:
                raise BenchError(
                    f"child exited with {self.proc.wait()} before {marker}"
                )
            if line.startswith(marker):
                return stamp - self.started, line[len(marker):].strip()
            print(line, file=sys.stderr)

    def reap(self) -> None:
        """Wait for the child, then kill whatever is left of its group."""
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._reader.join(timeout=5)


def run_child(argv, env, cwd, deadline) -> tuple[float, dict]:
    """Start a child; return (seconds to ``@@ready``, its result payload).

    The seconds are scaled to the reference host speed with the
    calibration loop the child timed at its start and at ``@@ready``.
    """
    child = Child(argv, env, cwd)
    try:
        ready_s, ready = child.expect("@@ready", deadline)
        _, payload = child.expect("@@result", deadline)
    finally:
        child.reap()
    if child.proc.returncode != 0:
        raise BenchError(f"child exited with {child.proc.returncode}")
    return ready_s * REF_NS["cpu"] / json.loads(ready)["cal_ns"], json.loads(payload)


def load_benchmark(root: pathlib.Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json is missing")
    return json.loads(path.read_text())


def measure(args, root: pathlib.Path, bench: dict) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    pin_to_one_cpu()
    work = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    errors: list[str] = []
    attempted = failed = 0
    try:
        setup_samples = []
        if not args.trace:
            for probe in range(SETUP_PROBES):
                rundir = work / f"probe-{probe}"
                env = isolated_env(root, rundir / "cache")
                ready_s, payload = run_child(
                    ["--role", "setup", *common, "--rundir", str(rundir)],
                    env, root, deadline,
                )
                setup_samples.append(ready_s)
                errors += payload["errors"]
                shutil.rmtree(rundir, ignore_errors=True)

        rundir = work / "main"
        env = isolated_env(root, rundir / "cache")
        state = work / "state.json"
        spans = root / ".perfbench_run" / f"spans-{args.workload}.csv"
        ready_s, main = run_child(
            [
                "--role", "main", *common,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--rundir", str(rundir),
                "--state", str(state),
                "--spans", str(spans) if args.trace else "",
            ],
            env, root, deadline,
        )
        setup_samples.append(ready_s)
        errors += main["errors"]
        attempted += main["attempted"]
        failed += main["failed"]

        _, restart = run_child(
            [
                "--role", "restart", *common,
                "--trace", str(args.trace),
                "--rundir", str(rundir),
                "--state", str(state),
            ],
            env, root, deadline,
        )
        errors += restart["errors"]
        attempted += restart["attempted"]
        failed += restart["failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {**main["layers"], **restart["layers"]}
        wanted = bench["per_layer"]
    else:
        values = {**main["metrics"], "setup_s": statistics.median(setup_samples)}
        wanted = bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in values:
            raise BenchError(f"no value measured for metric {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for message in errors:
        print(f"WRONG: {message}", file=sys.stderr)
    return {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {root / 'src'}")
        bench = load_benchmark(root)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        result = measure(args, root, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
