"""Cold-CLI benchmark of kscheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kscheck checkout.  One client in a closed loop starts
``python -m kscheck.cli VERB INPUT ... --json`` as a fresh process, reads its
stdout to the end, reaps it with ``os.wait4`` and checks the answer against a
known one before starting the next call.  A run makes whole rounds (every
call of the workload once per round, in seeded order) for about S seconds,
set-up samples between them included, and at least MIN_ROUNDS of them.
Every round makes the same calls, so a run on a slower host makes fewer
rounds of the same mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each call
once plainly and once under perfbench/tracer.py and prints the per-layer
metrics.  Each workload's report ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
runs every workload, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import oracle
import workloads

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
WORK_DIR = ".perfbench_work"

# The latency metrics average the median and the slowest call of each round
# over at least this many rounds; a traced run, whose calls each run twice,
# needs only one.
MIN_ROUNDS = 3

SETUP_SPAWNS = 2  # per pause: before the first round and after each
SETUP_CODE = "import sys, kscheck; from kscheck.scenario import load_scenario; load_scenario(sys.argv[1])"


def spawn(argv, env, stderr_path: Path) -> tuple[float, float, int, bytes]:
    """Run one process to completion: (wall s, peak RSS MB, exit code, stdout).

    Stdout is read to EOF before reaping, so a long report is never cut.
    """
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def measure_setup(workload, env, work: Path, first: int) -> list[float]:
    """Times for cold processes to import kscheck and load one input each.

    A short host slowdown can cover several spawns in a row, so the run
    takes a few samples before the first round and after every round.
    """
    scenarios = sorted({case.scenario for case in workload.cases if case.scenario})
    times = []
    for k in range(first, first + SETUP_SPAWNS):
        argv = [sys.executable, "-c", SETUP_CODE, scenarios[k % len(scenarios)]]
        wall, _, code, _ = spawn(argv, env, work / "setup.err")
        if code != 0:
            raise RuntimeError(f"set-up load of {argv[-1]} exited {code}: "
                               + (work / "setup.err").read_text()[-500:])
        times.append(wall)
    return times


class Runner:
    def __init__(self, env, work: Path, trace: bool):
        self.env, self.work, self.trace = env, work, trace
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.rounds: list[tuple[float, float, float]] = []  # (wall s, median call s, slowest call s)
        self.by_call: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        self.traced: list[dict] = []

    def _checked(self, argv, call, label: str) -> tuple[float, float, bytes] | None:
        self.attempted += 1
        try:
            wall, rss, code, out = spawn(argv, self.env, self.work / "call.err")
        except OSError as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        reason = oracle.check(code, out, call.expect)
        if reason is not None:
            err = (self.work / "call.err").read_text(errors="replace").strip().splitlines()
            self.failures.append(f"{label}: {reason}" + (f" ({err[-1]})" if err else ""))
            return None
        return wall, rss, out

    def round(self, calls) -> None:
        done = len(self.latencies)
        start = time.perf_counter()
        for case, call in calls:
            self.call(case, call)
        wall = time.perf_counter() - start
        walls = self.latencies[done:] or [0.0]
        self.rounds.append((wall, statistics.median(walls), max(walls)))

    def call(self, case, call):
        label = " ".join([call.verb, case.name, *call.options])
        plain = self._checked([sys.executable, "-m", "kscheck.cli", *call.argv(case)], call, label)
        if plain is None:
            return
        wall, rss, out = plain
        self.latencies.append(wall)
        self.by_call.setdefault(label, []).append(wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not self.trace:
            return
        spans = self.work / "spans.json"
        traced = self._checked(
            [sys.executable, str(TRACER), str(spans), repr(time.monotonic()), str(len(self.traced)),
             "--", *call.argv(case)],
            call,
            label + " (traced)",
        )
        if traced is not None:
            self.traced.append({
                "trace": json.loads(spans.read_text()),
                "wall": traced[0],
                "plain_wall": wall,
                "stdout_bytes": len(out),
                "input_bytes": case.size.get("bytes", 0),
            })


def run(args, name: str) -> int:
    root = Path.cwd()
    if not (root / "src" / "kscheck" / "cli.py").is_file():
        print("run from the root of a kscheck checkout: src/kscheck/cli.py not found", file=sys.stderr)
        return 2
    workload = workloads.build(name, args.seed)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        workload.write(work)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        min_rounds = 1 if args.trace else MIN_ROUNDS

        runner = Runner(env, work, bool(args.trace))
        order = random.Random(f"order:{name}:{args.seed}")
        start = time.perf_counter()
        setup = measure_setup(workload, env, work, 0)
        while True:
            runner.round(workload.round_calls(order))
            setup += measure_setup(workload, env, work, len(setup))
            elapsed = time.perf_counter() - start
            rounds = len(runner.rounds)
            # stop where another round would end more than half a round late
            if rounds >= min_rounds and elapsed * (1 + 0.5 / rounds) > args.seconds:
                break
        setup_s = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name}, seed {args.seed}, {rounds} rounds, "
          f"{runner.attempted} calls, {len(setup)} set-up samples, {elapsed:.1f} s")
    for case in workload.cases:
        if case.size:
            print(f"  input {case.name}: " + ", ".join(f"{k} {v}" for k, v in case.size.items()))
    for name, walls in sorted(runner.by_call.items()):
        print(f"  call {name}: median {1000 * statistics.median(walls):.0f} ms of {len(walls)}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    failed = len(runner.failures)
    print(f"  fail_rate {failed / runner.attempted:.4f} ratio")

    if args.trace:
        if not runner.traced:
            print("no traced call succeeded", file=sys.stderr)
            return 1
        values = layers.aggregate(runner.traced)
        metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}
    else:
        if not runner.latencies:
            print("no call succeeded", file=sys.stderr)
            return 1
        calls_per_round = sum(len(case.calls) for case in workload.cases)
        print(f"  latency_p50_ms, latency_tail_ms: the median and the slowest of each round of "
              f"{calls_per_round} calls, mean over {rounds} rounds")
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdicts_per_s": (len(runner.latencies) / sum(wall for wall, _, _ in runner.rounds), "1/s"),
            "latency_p50_ms": (1000 * statistics.fmean(median for _, median, _ in runner.rounds), "ms"),
            "latency_tail_ms": (1000 * statistics.fmean(slowest for _, _, slowest in runner.rounds), "ms"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        target = f"  -> {layers.PER_LAYER[name]}" if args.trace else ""
        print(f"  {name:36s} {value:14.6f} {unit}{target}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the call in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
