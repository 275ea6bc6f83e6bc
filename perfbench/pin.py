"""Regenerate ``pins.json``: the stats digest of every simulation any seed
of the benchmark can run, plus the traced shape of every pair.

Run from the repository root, only when a change is meant to alter the
simulated results::

    PYTHONPATH=src python3 perfbench/pin.py

A change that only makes the simulator faster must leave ``pins.json``
untouched; the benchmark reports every simulation whose digest moved as
failed.
"""

from __future__ import annotations

import json
import sys
import time

import shared


def main() -> int:
    from repro.api import simulate
    from repro.config import get_preset
    from repro.core.platform import POLICY_NAMES, collect_streams
    from repro.harness.experiments import (
        PAIR_COMPUTE, PAIR_COMPUTE_ARGS, PAIR_SCENES)

    traces, jobs = {}, {}

    def pin(workload, config_name, res, scene, compute, policies):
        config = get_preset(config_name)
        start = time.monotonic()
        streams = collect_streams(
            config, scene=scene, res=res, compute=compute,
            compute_args=(None if workload == "single_run"
                          else PAIR_COMPUTE_ARGS.get(compute)))
        traced = time.monotonic() - start
        traces["%s|%s|%s+%s" % (config_name, res, scene, compute)] = {
            str(sid): [sum(k.num_instructions for k in kernels), len(kernels)]
            for sid, kernels in sorted(streams.items())}
        for policy in policies:
            start = time.monotonic()
            stats = simulate(config=config, streams=streams,
                             policy=policy).stats.to_dict()
            jobs[shared.job_key(workload, scene, compute, policy)] = {
                "digest": shared.stats_digest(stats),
                "cycles": stats["cycles"]}
            print("%-40s trace %.2fs sim %.2fs cycles %d"
                  % (shared.job_key(workload, scene, compute, policy),
                     traced, time.monotonic() - start, stats["cycles"]),
                  file=sys.stderr)

    ref = shared.REFERENCE
    pin("single_run", ref["config"], ref["res"], ref["scene"],
        ref["compute"], [ref["policy"]])
    for scene in PAIR_SCENES:
        for compute in PAIR_COMPUTE:
            pin("policy_sweep", shared.SWEEP_CONFIG, shared.SWEEP_RES,
                scene, compute, shared.SWEEP_POLICIES)
            pin("sim_only", shared.SIM_ONLY_CONFIG, shared.SIM_ONLY_RES,
                scene, compute, POLICY_NAMES)
    with open(shared.PINS_FILE, "w", encoding="utf-8") as f:
        json.dump({"traces": traces, "jobs": jobs}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
