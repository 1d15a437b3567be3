"""entrokit benchmark: end-to-end and per-layer metrics on seeded workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload gas-all --seed 1 --seconds 35 --trace 0

Each repetition is one fresh interpreter (``bench/child.py``) that imports
``entrokit.cli`` from the checkout's ``src/`` and calls ``main()`` once;
repetitions run one at a time (closed loop, one client) until ``--seconds``
have passed, and at least ``MIN_REPS`` of them.  Every repetition's report
goes through the verdict gate below.

``--trace 0`` reports the end-to-end metrics: medians of ``setup_s``
(interpreter start to ``entrokit.cli`` imported), ``run_s`` (the ``main()``
call) and ``peak_rss_mb`` over the repetitions.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``probes.py`` (medians over the traced ones) and ``trace.overhead_ratio``,
traced over untraced median ``run_s``.  Every time is adjusted for the
machine's speed during its repetition (``speed.py``); the unadjusted medians
are printed beside them.

A repetition fails when its exit code is not 0, when the report's
``aggregate_pass`` is false, when any check has status ``fail`` or a check
the workload relies on does not pass, when the ``mutation_matrix`` summary
is not ok, or when its report's sha256 differs from the other repetitions of
the same (workload, seed).  ``error_rate`` is failed over attempted
repetitions.  A traced run is also incorrect when a layer the workload
exercises reads zero, or one it bypasses does not.  Medians are taken over
the repetitions that pass only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for people, with the report digest.  It is printed
even when repetitions fail, with ``correct`` false and the metrics the
passing repetitions give (none when no repetition passed); the exit code is
then 1.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from probes import METRICS
from speed import NOMINAL_S
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_REPS = 3
# Every process this run starts ends within this many seconds of its start.
HARD_LIMIT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
# Printed beside the metrics: the unadjusted times and the machine's speed.
DIAGNOSTICS = {"setup_wall_s": "s", "run_wall_s": "s", "reference_s": "s"}


@dataclass
class Repetition:
    traced: bool
    timing: dict | None = None
    digest: str | None = None
    problems: list[str] = field(default_factory=list)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # The built-in default config, not one picked up from the environment.
    env.pop("ENTROKIT_CONFIG_DIR", None)
    return env


def _report_problems(report: dict, must_pass) -> list[str]:
    problems = []
    if report.get("aggregate_pass") is not True:
        problems.append("aggregate_pass is not true")
    status = {}
    for suite, checks in report.get("suites", {}).items():
        for check in checks:
            status[check["check"]] = check["status"]
            if check["status"] == "fail":
                problems.append(f"check {suite}/{check['check']} failed")
    for name in must_pass:
        if status.get(name) != "pass":
            problems.append(f"check {name} is {status.get(name, 'missing')}, not pass")
    matrix = report.get("summaries", {}).get("mutation_matrix")
    if matrix is not None and matrix.get("ok") is not True:
        problems.append("mutation_matrix.ok is not true")
    return problems


def run_repetition(workload, workdir: str, argv: list[str], traced: bool, index: int,
                   timeout: float) -> Repetition:
    rep = Repetition(traced)
    report_name = f"report-{index}.json"
    cmd = [sys.executable, CHILD, SRC, "1" if traced else "0", "--", *argv,
           "--out", report_name]
    started = _monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        rep.problems.append(f"no result within {timeout:.0f} s")
        return rep
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rep.problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep
    result = json.loads(lines[-1])
    reference = statistics.fmean(result["reference_s"])
    adjust = NOMINAL_S / reference
    setup_wall_s = result["imported_at"] - started
    rep.timing = {
        "setup_s": setup_wall_s * adjust,
        "run_s": result["run_s"] * adjust,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_wall_s": setup_wall_s,
        "run_wall_s": result["run_s"],
        "reference_s": reference,
    }
    if traced:
        rep.timing["layers"] = {
            name: value * adjust if METRICS[name] in ("s", "ms") else value
            for name, value in result["layers"].items()
        }
    if traced:
        rep.problems += _layer_problems(workload, result["layers"])
    if result["exit_code"] != 0:
        rep.problems.append(f"entrokit exited {result['exit_code']}")
    report_path = os.path.join(workdir, report_name)
    try:
        with open(report_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        rep.problems.append(f"no report: {exc}")
        return rep
    os.remove(report_path)
    rep.digest = hashlib.sha256(raw).hexdigest()
    try:
        report = json.loads(raw)
    except ValueError as exc:
        rep.problems.append(f"report is not JSON: {exc}")
        return rep
    rep.problems += _report_problems(report, workload.must_pass)
    return rep


def _layer_problems(workload, layers: dict) -> list[str]:
    problems = []
    for name, value in layers.items():
        if name in workload.bypassed and value != 0:
            problems.append(f"{name} = {value}, but {workload.name} bypasses it")
        if name not in workload.bypassed and value == 0:
            problems.append(f"{name} reads zero, but {workload.name} exercises it")
    return problems


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str):
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    argv = workload.write_inputs(workdir, seed)
    # Compile bytecode and warm the file cache; users do not pay this per run.
    subprocess.run(
        [sys.executable, "-c", "import entrokit.cli"], cwd=workdir, env=_child_env(),
        timeout=HARD_LIMIT_S,
    )

    reps: list[Repetition] = []
    deadline = time.monotonic() + seconds

    def repeat(traced: bool):
        timeout = hard_deadline - time.monotonic()
        reps.append(run_repetition(workload, workdir, argv, traced, len(reps), timeout))

    while time.monotonic() < hard_deadline and (
        len(reps) < MIN_REPS or time.monotonic() < deadline
    ):
        repeat(traced=trace and len(reps) % 2 == 1)
    if trace and not reps[-1].traced and time.monotonic() < hard_deadline:
        repeat(traced=True)

    digests = collections.Counter(r.digest for r in reps if r.digest is not None)
    digest = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if r.digest is not None and r.digest != digest:
            r.problems.append(f"report sha256 {r.digest} differs from {digest}")

    failed = sum(1 for r in reps if r.problems)
    for i, r in enumerate(reps):
        for problem in r.problems:
            print(f"repetition {i}{' (traced)' if r.traced else ''}: {problem}", file=sys.stderr)

    # Medians are taken over the repetitions that passed the gate only.
    untraced = [r.timing for r in reps if not r.problems and not r.traced]
    traced_timings = [r.timing for r in reps if not r.problems and r.traced]
    print(f"workload {workload.name}, seed {seed}: {len(reps)} repetitions "
          f"({sum(r.traced for r in reps)} traced), {failed} failed; error_rate "
          f"{failed / len(reps):.4g} (failed/attempted)")
    print(f"report sha256 workload={workload.name} seed={seed} {digest}")

    metrics = {}
    if not trace:
        for name, unit in {**END_TO_END, **DIAGNOSTICS}.items():
            values = [t[name] for t in untraced]
            if not values:
                continue
            if name in END_TO_END:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:<14} {statistics.median(values):12.6g} {unit:<6} "
                  f"median of {len(values)} [min {min(values):.6g}, max {max(values):.6g}]")
    elif traced_timings:
        for name, unit in METRICS.items():
            values = [t["layers"][name] for t in traced_timings]
            # Counts repeat from run to run; median_low keeps them whole numbers.
            value = (statistics.median_low if unit == "count" else statistics.median)(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<32} {value:14.6g} {unit}")
        if untraced:
            overhead = (statistics.median([t["run_s"] for t in traced_timings])
                        / statistics.median([t["run_s"] for t in untraced]))
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
            print(f"  {'trace.overhead_ratio':<32} {overhead:14.6g} ratio "
                  f"(traced/untraced median run_s, {len(traced_timings)}/{len(untraced)} runs)")
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entrokit", "cli.py")):
        print(f"entrokit sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
