"""Host-time benchmark of the simulator.  Run from the repository root::

    python3 perfbench/run.py --workload single_run --seed 0 --seconds 20 --trace 0

Each sample is a fresh interpreter (``child.py``) whose ``HOME``,
``XDG_CACHE_HOME``, ``TMPDIR`` and working directory are a new, empty
directory, so nothing cached on disk carries over between samples.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, in seconds at the reference host speed, and the per-layer
breakdown with ``--trace 1``.  The line
before it is a JSON report with the host and provenance stamp, sample
counts and every raw sample.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Tuple

import shared

HERE = os.path.dirname(os.path.abspath(__file__))
#: A run ends well inside the 180 s every run is allowed.
HARD_LIMIT_S = 170.0
#: Simulations a child process runs per pass, counted as failed when the
#: child dies before reporting.
SIMS_PER_PASS = {"single_run": 1, "policy_sweep": 9, "sim_only": 18}

LAYER_METRICS = [
    ("import.busy_s", "s"),
    ("graphics.busy_s", "s"), ("graphics.calls", "count"),
    ("graphics.instructions", "count"),
    ("compute.busy_s", "s"), ("compute.calls", "count"),
    ("compute.instructions", "count"),
    ("isa.busy_s", "s"), ("isa.warps", "count"),
    ("timing.build_s", "s"), ("timing.busy_s", "s"),
    ("timing.cycles", "cycle"), ("timing.instructions", "count"),
    ("timing.instr_per_busy_s", "1/s"),
    ("memory.l1_hit_rate", "ratio"), ("memory.l2_accesses", "count"),
    ("memory.l2_hit_rate", "ratio"), ("memory.l2_mshr_merges", "count"),
    ("memory.dram_bytes", "B"),
    ("other_s", "s"), ("trace.overhead_frac", "ratio"),
]


class Run:
    """One benchmark run: spawns the child processes and keeps their
    records."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.tmp_base = os.path.join(root, ".perfbench_tmp")
        self.records: List[dict] = []
        self.lost_sims = 0
        self.errors: List[str] = []

    def spawn(self, trace: int) -> None:
        """One fresh child interpreter in a new empty directory."""
        os.makedirs(self.tmp_base, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="sample-", dir=self.tmp_base)
        env = {"PATH": os.environ.get("PATH", os.defpath),
               "HOME": tmp, "XDG_CACHE_HOME": os.path.join(tmp, "cache"),
               "TMPDIR": tmp, "PYTHONPATH": os.path.join(self.root, "src")}
        timeout = self.started + HARD_LIMIT_S - time.monotonic()
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
               "--seed", str(self.seed), "--t0", repr(t0),
               "--trace", str(trace)]
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            out, err = "", "timed out after %.0fs" % timeout
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.lost_sims += SIMS_PER_PASS[self.workload]
            self.errors.append("child exited %s: %s"
                               % (proc.returncode, err.strip()[-2000:]))
            return
        record = json.loads(lines[-1])
        record["trace"] = trace
        self.records.append(record)

    def loop(self, seconds: float, traces: Tuple[int, ...]) -> None:
        """Spawn children one after another, cycling through ``traces``,
        while the next one should end within ``seconds``, judged by the
        last one's duration; every trace flag runs at least once."""
        deadline = self.started + seconds
        i, last = 0, 0.0
        while i < len(traces) or time.monotonic() + last <= deadline:
            start = time.monotonic()
            self.spawn(traces[i % len(traces)])
            last = time.monotonic() - start
            i += 1

    def totals(self) -> Tuple[int, int]:
        attempted = sum(r["attempted"] for r in self.records) + self.lost_sims
        failed = sum(r["failed"] for r in self.records) + self.lost_sims
        return attempted, failed

    def problems(self) -> List[str]:
        out = list(self.errors)
        for r in self.records:
            out.extend(r["problems"])
        return out


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, and wait until all end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _median(values) -> float:
    return shared.median_summary(values)["median"]


def end_to_end(run: Run) -> Tuple[dict, dict, dict]:
    """The six end-to-end metrics, the sample count behind each, and the
    same figures in plain host seconds.

    A sample is one child process.  Times are at the reference host
    speed: each is scaled by the host-speed probe readings taken around
    it (``shared.at_reference_speed``), because the speed of the host
    drifts up to 2x over tens of seconds.  ``latency_p50_s`` is the
    median over samples of the sample's mean simulation latency: the
    simulations of one ``policy_sweep`` or ``sim_only`` sample differ
    several-fold in cost, so a median taken across them jumps between
    pairs as the seed changes; the raw median across simulations is in
    the report.
    """
    recs = [r for r in run.records if r["trace"] == 0]

    def medians(suffix: str) -> dict:
        walls = [r["wall" + suffix] for r in recs]
        return {
            "setup_s": _median([r["setup" + suffix] for r in recs]),
            "wall_s": _median(walls),
            "latency_p50_s": _median(
                [statistics.mean(r["latencies" + suffix]) for r in recs
                 if r["latencies" + suffix]]),
            "instr_per_s": (_median([r["instructions"] for r in recs])
                            / _median(walls)),
        }

    attempted, failed = run.totals()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scaled = medians("_ref_s")
    units = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
             "instr_per_s": "1/s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    timed = [r for r in recs if r["latencies_s"]]
    samples = {"setup_s": len(recs), "wall_s": len(recs),
               "latency_p50_s": len(timed), "instr_per_s": len(recs),
               "peak_rss_mb": len(run.records),
               "success_rate": attempted}
    every = [x for r in recs for x in r["latencies_s"]]
    readings = [x for r in recs for x in r["probe_readings_s"]]
    extras = {"simulation_latency_p50_s": _median(every),
              "simulations_timed": len(every),
              "host_seconds": medians("_s"),
              "probe_p50_s": _median(readings),
              "probe_readings": len(readings)}
    return metrics, samples, extras


def per_layer(run: Run) -> Tuple[dict, dict]:
    """Mean per traced process of every layer metric, and the extras
    that only some workloads have."""
    traced = [r for r in run.records if r["trace"] == 1]
    n = len(traced)

    def busy(layer: str) -> float:
        return sum(r["layers"]["busy"].get(layer, 0.0) for r in traced) / n

    def count(name: str) -> float:
        return sum(r["layers"]["counts"].get(name, 0) for r in traced) / n

    if run.workload == "single_run":
        plain = [r["compare_wall_s"] for r in run.records if r["trace"] == 0]
        overhead = (_median([r["compare_wall_s"] for r in traced])
                    / _median(plain) - 1.0)
    else:
        overhead = _median([r["traced_s"] / r["untraced_s"] - 1.0
                            for r in traced])
    timing_busy = busy("timing.run")
    values = {
        "import.busy_s": busy("import"),
        "graphics.busy_s": busy("graphics"),
        "graphics.calls": count("graphics.calls"),
        "graphics.instructions": count("graphics.instructions"),
        "compute.busy_s": busy("compute"),
        "compute.calls": count("compute.calls"),
        "compute.instructions": count("compute.instructions"),
        "isa.busy_s": busy("isa"),
        "isa.warps": count("isa.warps"),
        "timing.build_s": busy("timing.build"),
        "timing.busy_s": timing_busy,
        "timing.cycles": count("timing.cycles"),
        "timing.instructions": count("timing.instructions"),
        "timing.instr_per_busy_s": count("timing.instructions") / timing_busy,
        "memory.l1_hit_rate": (count("memory.l1_hits")
                               / count("memory.l1_accesses")),
        "memory.l2_accesses": count("memory.l2_accesses"),
        "memory.l2_hit_rate": (count("memory.l2_hits")
                               / count("memory.l2_accesses")),
        "memory.l2_mshr_merges": count("memory.l2_mshr_merges"),
        "memory.dram_bytes": count("memory.dram_bytes"),
        "other_s": sum(r["layers"]["other_s"] for r in traced) / n,
        "trace.overhead_frac": overhead,
    }
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    extras = {"traced_processes": n,
              "traced_wall_s": sum(r["layers"]["wall_s"] for r in traced) / n}
    for policy in sorted({p for r in traced
                          for p in r["layers"]["run_by_policy"]}):
        extras["timing.busy_s." + policy] = sum(
            r["layers"]["run_by_policy"].get(policy, 0.0) for r in traced) / n
    if run.workload == "policy_sweep":
        campaign = busy("campaign")
        extras["campaign.busy_s"] = campaign
        extras["campaign.parallel_eff"] = _median(
            [r["untraced_s"] / (r["workers"] * r["layers"]["busy"]["campaign"])
             for r in traced])
    return metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator.")
    parser.add_argument("--workload", required=True, choices=shared.WORKLOADS)
    parser.add_argument("--seed", type=int, default=shared.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("run from the repository root: %s has no src/repro" % root,
              file=sys.stderr)
        return 2
    # The "build": byte-compile once, so no sample pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                   check=True, stdout=subprocess.DEVNULL)

    run = Run(root, args.workload, args.seed)
    if args.trace and args.workload == "single_run":
        # Untraced and traced cold processes alternate: the untraced ones
        # are the reference for the tracing overhead.
        run.loop(args.seconds, (0, 1))
    else:
        run.loop(args.seconds, (args.trace,))
    try:
        os.rmdir(run.tmp_base)
    except OSError:
        pass  # another run is using it
    if not run.records or not any(r["trace"] == args.trace
                                  for r in run.records):
        print("\n".join(run.problems()), file=sys.stderr)
        return 1
    attempted, failed = run.totals()
    if args.trace:
        metrics, extras = per_layer(run)
        samples = {}
    else:
        metrics, samples, extras = end_to_end(run)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": shared.host_stamp(root, args.seed),
        "cold_state": {"fresh_interpreter_per_process": True,
                       "empty_home_tmpdir_cwd": True,
                       "campaign_result_cache": "off"},
        "error_rate": failed / attempted,
        "samples": samples, "extras": extras,
        "problems": run.problems()[:50],
        "records": run.records,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
