"""The charsum benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every round of a workload runs in a fresh interpreter
(``child.py``), because each ``charsum`` invocation a user makes starts with
empty caches.  Rounds repeat until ``--seconds`` have passed; each round runs
the same plan, made from the workload name and the seed.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
medians over rounds of set-up time, wall time, CPU time, peak RSS and each
round's per-operation latency percentiles.  With ``--trace 1`` it
repeats an untraced round, a traced round and a traced round with
``CHARSUM_THREADS=1``, and reports the per-layer metrics.

The first round's outputs are checked in full (``checks.py``); later rounds
must reproduce them byte for byte.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Raw
samples go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

from workloads import WORKLOADS, make_plan  # noqa: E402

# Every run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


class Run:
    """Rounds of one workload, each in its own interpreter."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.plan = make_plan(workload, seed)
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def child(self, plan, *, keep=False, trace=False, threads=None, spans=None) -> dict:
        self.count += 1
        work = self.workdir / f"c{self.count}"
        work.mkdir()
        spec = {
            "plan": plan,
            "dir": str(work),
            "keep": keep,
            "trace": trace,
            "result": str(work / "result.json"),
            "spans": spans,
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env.pop("CHARSUM_THREADS", None)
        if threads is not None:
            env["CHARSUM_THREADS"] = str(threads)
        log_path = work / "log.txt"
        with open(log_path, "w") as log:
            spawn_t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(SRC), repr(spawn_t0), str(spec_path)],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
        if proc.returncode != 0:
            tail = log_path.read_text()[-2000:]
            raise RuntimeError(f"round interpreter exited with {proc.returncode}:\n{tail}")
        result = json.loads((work / "result.json").read_text())
        result["dir"] = str(work)
        return result


def _wall(result: dict) -> float:
    return sum(result["latency_s"])


def _percentile_ms(latencies: list[float], pct: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def _verdicts(run: Run, rounds: list[dict]) -> dict[tuple[int, int], str]:
    """The problem with each failed (round, operation), over all rounds."""
    from checks import QueryChecker, SweepChecker

    if run.workload == "query-point":
        checker = QueryChecker()
    else:
        checker = SweepChecker(HERE / "bound4_violators.json")
    first = rounds[0]
    failed = {}
    for i, argv in enumerate(run.plan):
        if first["errors"][i]:
            found = [first["errors"][i].strip().splitlines()[-1]]
        elif first["digests"][i] is None:
            found = ["no output written"]
        else:
            try:
                text = Path(first["dir"], f"op{i}.out").read_text()
                found = checker.check(argv, first["codes"][i], text)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [f"malformed output: {exc!r}"]
        if found:
            failed[1, i] = "; ".join(found)
    for r, result in enumerate(rounds[1:], start=2):
        for i in range(len(run.plan)):
            if (result["codes"][i], result["digests"][i]) != (first["codes"][i], first["digests"][i]):
                failed[r, i] = "differs from round 1"
            elif (1, i) in failed:
                failed[r, i] = "repeats a failed output"
    return failed


def _machine(run: Run, result: dict, seconds: int, trace: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": result["python"],
        "numpy": result["numpy"],
        "charsum_threads": result["charsum_threads"],
        "operations_per_round": len(run.plan),
    }


def timed(run: Run, seconds: int) -> tuple[dict, list[dict], dict]:
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run.child(run.plan, keep=not rounds))
    samples = {
        "setup_s": [r["setup_s"] for r in rounds],
        "wall_s": [_wall(r) for r in rounds],
        "cpu_s": [sum(r["cpu_s"]) for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "query_p50_ms": [_percentile_ms(r["latency_s"], 50) for r in rounds],
        "query_p99_ms": [_percentile_ms(r["latency_s"], 99) for r in rounds],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    notes = {name: f"median of {len(values)} rounds" for name, values in samples.items()}
    for name in ("query_p50_ms", "query_p99_ms"):
        notes[name] += f", n={len(run.plan)} operations each"
    return metrics, rounds, {"notes": notes, "samples": samples}


def traced(run: Run, seconds: int) -> tuple[dict, list[dict], dict]:
    spans = OUT / f"spans-{run.workload}-seed{run.seed}.jsonl"
    plain, default, single = [], [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(run.child(run.plan, keep=not plain))
        default.append(run.child(run.plan, trace=True, spans=str(spans) if len(default) == 0 else None))
        single.append(run.child(run.plan, trace=True, threads=1))
    median = statistics.median
    layers = {name: median([r["layers"][name] for r in default]) for name in default[0]["layers"]}
    wall = {kind: median([_wall(r) for r in rounds]) for kind, rounds in
            (("plain", plain), ("default", default), ("single", single))}
    layers["verify.thread_speedup"] = wall["single"] / wall["default"]
    layers["trace.overhead_ratio"] = wall["default"] / wall["plain"]
    notes = {name: f"median of {len(default)} traced rounds" for name in layers}
    samples = {"spans": str(spans.relative_to(ROOT))}
    return layers, plain + default + single, {"notes": notes, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and waits for its round interpreter:
    # subprocess.run does that when the wait is interrupted by an exception.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "charsum" / "cli.py").is_file():
        print(f"error: no charsum sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = Run(args.workload, args.seed, workdir)
        measure = traced if args.trace else timed
        metrics, rounds, extra = measure(run, args.seconds)
        failures = _verdicts(run, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = _machine(run, rounds[0], args.seconds, args.trace)
    attempted = len(rounds) * len(run.plan)
    failed = len(failures)
    problems = [
        f"round {r} op {i} ({' '.join(run.plan[i][:4])}): {why}"
        for (r, i), why in sorted(failures.items())
    ]
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        note = extra["notes"].get(m["name"], "")
        print(f"{args.workload} {m['name']} = {metrics[m['name']]!r} {m['unit']} ({note})")
    print(f"{args.workload} error_rate = {failed / attempted!r} ({failed} of {attempted} operations failed)")
    record = {"machine": machine, **result, "samples": extra["samples"], "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
