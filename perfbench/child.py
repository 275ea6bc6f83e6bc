"""One benchmark process: a fresh interpreter that runs one pass of a
workload and prints one JSON record as its last line.

Started only by ``run.py``, which times the spawn (``--t0``, a
``time.monotonic()`` reading; CLOCK_MONOTONIC is shared by every process
on the host).  Every time here is host time; simulated cycles are marked
as such.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import shared
from repro.api import WorkloadSpec, simulate
from repro.campaign import CampaignRunner, Job
from repro.config import get_preset
from repro.core.platform import POLICY_NAMES, collect_streams, make_policy
from repro.harness.experiments import PAIR_COMPUTE, PAIR_COMPUTE_ARGS, PAIR_SCENES
from repro.timing import GPU

#: Per-job budget inside a campaign worker; a job past it counts as failed.
JOB_TIMEOUT_S = 120.0


class Recorder:
    """Sequential layer spans over a traced wall window.

    Spans must not overlap: each starts at or after the previous one
    ended.  Time between spans is unattributed (``other_s``); time inside
    :meth:`paused` is left out of the window altogether (the untraced
    reference runs happen there).
    """

    def __init__(self, start: float) -> None:
        self.start = start
        self.cursor = start
        self.paused_s = 0.0
        self.other_s = 0.0
        self.busy: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.phase = "setup"
        #: (phase, layer) -> spans, to prove what a phase did not do.
        self.phase_calls: Dict[str, int] = {}
        #: GPU.run time per partition policy (a split of timing.run).
        self.run_by_policy: Dict[str, float] = {}
        self.end = start

    def add(self, layer: str, start: float, end: float) -> None:
        if start < self.cursor:
            raise RuntimeError("span %s overlaps the previous span" % layer)
        self.other_s += start - self.cursor
        self.busy[layer] = self.busy.get(layer, 0.0) + (end - start)
        key = "%s/%s" % (self.phase, layer)
        self.phase_calls[key] = self.phase_calls.get(key, 0) + 1
        self.cursor = end

    @contextmanager
    def span(self, layer: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(layer, start, time.monotonic())

    @contextmanager
    def paused(self):
        start = time.monotonic()
        self.other_s += start - self.cursor
        try:
            yield
        finally:
            self.cursor = time.monotonic()
            self.paused_s += self.cursor - start

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def close(self) -> dict:
        self.end = time.monotonic()
        self.other_s += self.end - self.cursor
        wall = self.end - self.start - self.paused_s
        attributed = sum(self.busy.values())
        if abs(attributed + self.other_s - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(
                "layer accounting broken: busy %.6f + other %.6f != wall %.6f"
                % (attributed, self.other_s, wall))
        return {"wall_s": wall, "other_s": self.other_s,
                "busy": self.busy, "counts": self.counts,
                "phase_calls": self.phase_calls,
                "run_by_policy": self.run_by_policy}


def _stream_shape(streams) -> Dict[str, Tuple[int, int]]:
    """Traced (instructions, kernels) per stream, keyed like to_dict."""
    return {str(sid): (sum(k.num_instructions for k in kernels), len(kernels))
            for sid, kernels in streams.items()}


def _pinned_shape(pins: dict, config: str, res: str, scene: str,
                  compute: str) -> Dict[str, Tuple[int, int]]:
    key = "%s|%s|%s+%s" % (config, res, scene, compute)
    return {sid: tuple(v) for sid, v in pins["traces"][key].items()}


class Probes:
    """Host-speed readings (:func:`shared.host_probe`) taken between the
    timed operations of one process, and the host time each took."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.spent_s: List[float] = []

    def read(self, reps: int = shared.PROBE_REPS) -> None:
        start = time.monotonic()
        self.readings.append(shared.host_probe(reps))
        self.spent_s.append(time.monotonic() - start)

    def scale(self, seconds: float, first: int, stop: int) -> float:
        """``seconds`` at the reference speed, judged by the mean of
        readings ``first`` up to ``stop``."""
        return shared.at_reference_speed(seconds,
                                          self.readings[first:stop])

    def record(self, **scaled) -> dict:
        """The record fields of a probed process: its scaled times and
        every reading."""
        scaled["probe_readings_s"] = self.readings
        return scaled


class Sampler:
    """Short probe readings in a background thread, while the calling
    thread waits on worker processes.

    Each reading is one unit of ``SAMPLE_STEPS`` steps, about a
    millisecond, every ``SAMPLE_EVERY_S``: a load of about 1% that wakes
    on whichever CPU is free and finishes before the scheduler shares it.
    """

    SAMPLE_STEPS = 6000
    SAMPLE_EVERY_S = 0.1

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.readings.append(shared.host_probe(1, self.SAMPLE_STEPS))
            if self._stop.wait(self.SAMPLE_EVERY_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Outcome:
    """Per-simulation tally: attempts, failures and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.instructions = 0

    def check(self, label: str, stats: dict, expected, pin,
              totals=None) -> None:
        self.attempted += 1
        self.instructions += sum(s["instructions"]
                                 for s in stats["streams"].values())
        problems = shared.check_stats(stats, expected, pin, totals)
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (label, p) for p in problems)

    def fail(self, label: str, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append("%s: %s" % (label, error))

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20],
                "instructions": self.instructions}


# ---------------------------------------------------------------------------
# Traced simulation: the five public calls, each in its own span
# ---------------------------------------------------------------------------

def _memory_counts(rec: Recorder, gpu, stats) -> None:
    l1_hits = sum(st.l1_hits for st in stats.streams.values())
    l1_accesses = sum(st.l1_accesses for st in stats.streams.values())
    l2 = gpu.l2.aggregate_stats()
    rec.count("memory.l1_hits", l1_hits)
    rec.count("memory.l1_accesses", l1_accesses)
    rec.count("memory.l2_accesses", l2.accesses)
    rec.count("memory.l2_hits", l2.hits)
    rec.count("memory.l2_mshr_merges", l2.mshr_merges)
    rec.count("memory.dram_bytes", gpu.l2.dram.aggregate_bytes())


def trace_streams(rec: Recorder, config, scene: str, compute: str,
                  res: str) -> dict:
    """Steps 1-3: trace graphics, trace compute, lower every warp."""
    with rec.span("graphics"):
        gfx = collect_streams(config, scene=scene, res=res)
    with rec.span("compute"):
        cmp_ = collect_streams(config, compute=compute,
                               compute_args=PAIR_COMPUTE_ARGS.get(compute))
    streams = dict(gfx)
    streams.update(cmp_)
    rec.count("graphics.calls", 1)
    rec.count("compute.calls", 1)
    rec.count("graphics.instructions",
              sum(k.num_instructions for s in gfx.values() for k in s))
    rec.count("compute.instructions",
              sum(k.num_instructions for s in cmp_.values() for k in s))
    warps = [w for kernels in streams.values() for k in kernels
             for cta in k.ctas for w in cta.warps]
    with rec.span("isa"):
        for w in warps:
            w.issue_stream()
    rec.count("isa.warps", len(warps))
    return streams


def simulate_traced(rec: Recorder, config, streams, policy: str):
    """Steps 4-5: build the GPU and add the streams, then run it."""
    with rec.span("timing.build"):
        gpu = GPU(config, policy=make_policy(policy, config, sorted(streams)))
        for sid, kernels in sorted(streams.items()):
            gpu.add_stream(sid, kernels)
    start = time.monotonic()
    with rec.span("timing.run"):
        stats = gpu.run()
    rec.run_by_policy[policy] = (rec.run_by_policy.get(policy, 0.0)
                                 + rec.cursor - start)
    rec.count("timing.cycles", stats.cycles)
    rec.count("timing.instructions", stats.total_instructions)
    _memory_counts(rec, gpu, stats)
    return stats


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_single(args, pins: dict) -> dict:
    ref = shared.REFERENCE
    label = "%s+%s/%s" % (ref["scene"], ref["compute"], ref["policy"])
    key = shared.job_key("single_run", ref["scene"], ref["compute"],
                         ref["policy"])
    out = Outcome()
    config = get_preset(ref["config"])
    if args.trace:
        rec = Recorder(args.t0)
        rec.add("import", args.t0, args.t_imported)
        streams = trace_streams(rec, config, ref["scene"], ref["compute"],
                                ref["res"])
        stats = simulate_traced(rec, config, streams, ref["policy"])
        layers = rec.close()
        expected = _stream_shape(streams)
        stats = stats.to_dict()
        record = {"layers": layers, "compare_wall_s": rec.end - args.t0}
    else:
        probes = Probes()
        probes.read()
        t_first = time.monotonic()
        result = simulate(
            config=config, policy=ref["policy"],
            workload=WorkloadSpec(scene=ref["scene"], res=ref["res"],
                                  compute=ref["compute"]))
        t_end = time.monotonic()
        probes.read()
        stats = result.stats.to_dict()
        expected = _pinned_shape(pins, ref["config"], ref["res"],
                                 ref["scene"], ref["compute"])
        setup = t_first - args.t0 - probes.spent_s[0]
        latency = t_end - t_first
        record = {"setup_s": setup, "latencies_s": [latency],
                  "wall_s": setup + latency, "compare_wall_s": setup + latency}
        setup_ref = probes.scale(setup, 0, 1)
        latency_ref = probes.scale(latency, 0, 2)
        record.update(probes.record(
            setup_ref_s=setup_ref, latencies_ref_s=[latency_ref],
            wall_ref_s=setup_ref + latency_ref))
    out.check(label, stats, expected, pins["jobs"].get(key),
              totals=(shared.REFERENCE_CYCLES, shared.REFERENCE_INSTRUCTIONS))
    record.update(out.to_dict())
    return record


def _sweep_jobs(pairs):
    return [Job(scene=scene, compute=compute,
                compute_args=PAIR_COMPUTE_ARGS.get(compute),
                policy=policy, config=shared.SWEEP_CONFIG,
                res=shared.SWEEP_RES,
                label="%s+%s/%s" % (scene, compute, policy))
            for scene, compute in pairs for policy in shared.SWEEP_POLICIES]


def _check_sweep_job(out: Outcome, pins: dict, job, stats: dict) -> None:
    out.check(job.display_label, stats,
              _pinned_shape(pins, shared.SWEEP_CONFIG, shared.SWEEP_RES,
                            job.scene, job.compute),
              pins["jobs"].get(shared.job_key(
                  "policy_sweep", job.scene, job.compute, job.policy)))


def _check_campaign(out: Outcome, pins: dict, jobs, campaign) -> List[float]:
    latencies = []
    for job, result in zip(jobs, campaign.results):
        if not result.ok:
            out.fail(result.label, "%s: %s" % (result.status, result.error))
            continue
        latencies.append(result.wall_seconds)
        _check_sweep_job(out, pins, job, result.stats)
    return latencies


def run_sweep(args, pins: dict) -> dict:
    jobs = _sweep_jobs(shared.pairs_for_seed(args.seed, PAIR_SCENES,
                                             PAIR_COMPUTE))
    workers = min(2, os.cpu_count() or 1)
    runner = CampaignRunner(workers=workers, cache=None, retries=0,
                            timeout=JOB_TIMEOUT_S)
    out = Outcome()
    if not args.trace:
        probes = Probes()
        probes.read()
        t_first = time.monotonic()
        # The workers run on every CPU, and the CPUs of a shared host need
        # not run at the same speed: sample the host all through the
        # campaign rather than before and after it.
        with Sampler() as sampler:
            campaign = runner.run(jobs)
        t_end = time.monotonic()
        probes.readings.append(statistics.mean(sampler.readings))
        latencies = _check_campaign(out, pins, jobs, campaign)
        setup = t_first - args.t0 - probes.spent_s[0]
        record = {"setup_s": setup, "latencies_s": latencies,
                  "wall_s": t_end - t_first}
        record.update(probes.record(
            setup_ref_s=probes.scale(setup, 0, 1),
            latencies_ref_s=[probes.scale(x, 1, 2) for x in latencies],
            wall_ref_s=probes.scale(record["wall_s"], 1, 2),
            probe_sampled_s=sampler.readings))
        record.update(out.to_dict())
        return record
    rec = Recorder(args.t0)
    rec.add("import", args.t0, args.t_imported)
    config = get_preset(shared.SWEEP_CONFIG)
    # Serial in-process replay of the nine jobs, one span per public call.
    replay_start = rec.cursor
    for job in jobs:
        streams = trace_streams(rec, config, job.scene, job.compute, job.res)
        stats = simulate_traced(rec, config, streams, job.policy)
        out.check(job.display_label, stats.to_dict(), _stream_shape(streams),
                  pins["jobs"].get(shared.job_key(
                      "policy_sweep", job.scene, job.compute, job.policy)))
    traced_replay_s = rec.cursor - replay_start
    # The same nine jobs untraced, serially: the reference for the tracing
    # overhead and for the campaign's parallel efficiency.
    with rec.paused():
        start = time.monotonic()
        results = [simulate(config=config, policy=job.policy,
                            workload=WorkloadSpec(
                                scene=job.scene, res=job.res,
                                compute=job.compute,
                                compute_args=job.compute_args))
                   for job in jobs]
        serial_s = time.monotonic() - start
        for job, result in zip(jobs, results):
            _check_sweep_job(out, pins, job, result.stats.to_dict())
    rec.phase = "campaign"
    with rec.span("campaign"):
        campaign = runner.run(jobs)
    _check_campaign(out, pins, jobs, campaign)
    record = {"layers": rec.close(), "traced_s": traced_replay_s,
              "untraced_s": serial_s, "workers": workers}
    record.update(out.to_dict())
    return record


def run_sim_only(args, pins: dict) -> dict:
    pairs = shared.pairs_for_seed(args.seed, PAIR_SCENES, PAIR_COMPUTE)
    config = get_preset(shared.SIM_ONLY_CONFIG)
    rec = Recorder(args.t0)
    rec.add("import", args.t0, args.t_imported)
    probes = Probes()
    if not args.trace:
        probes.read()
    # Set-up traces and lowers every pair; the recorder costs nothing
    # measurable at this grain and is read only on the traced run.
    streams_by_pair = {
        (scene, compute): trace_streams(rec, config, scene, compute,
                                        shared.SIM_ONLY_RES)
        for scene, compute in pairs}
    shapes = {pair: _stream_shape(s) for pair, s in streams_by_pair.items()}
    if not args.trace:
        probes.read()
    out = Outcome()
    t_first = time.monotonic()

    def check(pair, policy: str, stats: dict) -> None:
        out.check("%s+%s/%s" % (pair + (policy,)), stats, shapes[pair],
                  pins["jobs"].get(shared.job_key("sim_only", *pair,
                                                  policy)))

    def untraced_pass(probed: bool) -> Tuple[float, List[float]]:
        """All 18 simulations; ``probed`` reads the host speed after
        each, outside its latency."""
        start = time.monotonic()
        latencies, results = [], []
        for pair, streams in streams_by_pair.items():
            for policy in POLICY_NAMES:
                t = time.monotonic()
                result = simulate(config=config, streams=streams,
                                  policy=policy)
                latencies.append(time.monotonic() - t)
                results.append((pair, policy, result.stats))
                if probed:
                    probes.read()
        wall = time.monotonic() - start - sum(probes.spent_s[2:])
        for pair, policy, stats in results:
            check(pair, policy, stats.to_dict())
        return wall, latencies

    if not args.trace:
        wall, latencies = untraced_pass(probed=True)
        setup = t_first - args.t0 - sum(probes.spent_s[:2])
        # Simulation i ran between readings i + 1 and i + 2.
        latencies_ref = [probes.scale(x, i + 1, i + 3)
                         for i, x in enumerate(latencies)]
        record = {"setup_s": setup, "wall_s": wall,
                  "latencies_s": latencies}
        record.update(probes.record(
            setup_ref_s=probes.scale(setup, 0, 2),
            latencies_ref_s=latencies_ref, wall_ref_s=sum(latencies_ref)))
        record.update(out.to_dict())
        return record
    rec.phase = "timed"
    pass_start = rec.cursor
    for pair, streams in streams_by_pair.items():
        for policy in POLICY_NAMES:
            stats = simulate_traced(rec, config, streams, policy)
            check(pair, policy, stats.to_dict())
    traced_s = rec.cursor - pass_start
    with rec.paused():
        untraced_s, _ = untraced_pass(probed=False)
    layers = rec.close()
    leaked = {k: n for k, n in layers["phase_calls"].items()
              if k.split("/")[0] == "timed"
              and k.split("/")[1] in ("graphics", "compute", "isa")}
    if leaked:
        raise RuntimeError("sim_only timed phase traced or lowered: %s"
                           % leaked)
    record = {"layers": layers, "traced_s": traced_s,
              "untraced_s": untraced_s}
    record.update(out.to_dict())
    return record


RUNNERS = {"single_run": run_single, "policy_sweep": run_sweep,
           "sim_only": run_sim_only}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.t_imported = time.monotonic()
    pins = shared.load_pins()
    record = RUNNERS[args.workload](args, pins)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
