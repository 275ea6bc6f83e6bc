"""Golden-stats regression gate for the timing core.

The hot-path overhaul (global event heap, precomputed issue tuples,
resolved set-mapping tables) is a pure refactor: simulated behaviour must
be *bit-identical* to the pre-optimisation simulator.  These tests pin
that contract by replaying the reference workload (sponza + hologram at
nano on JetsonOrin-mini) under every partition policy, and under mps with
the LRR warp scheduler, and comparing the full ``GPUStats.to_dict()`` tree
against snapshots in ``tests/golden/``.  The golden list and the workload
come from :mod:`repro.validate.goldens`, the module behind
``repro validate check-goldens`` / ``regen-goldens``.

If a deliberate model change alters the numbers, regenerate the snapshots
(``repro validate regen-goldens``) and say so in the commit message —
never update them to paper over an accidental diff.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import simulate
from repro.timing import SM
from repro.validate import goldens


@pytest.fixture(scope="module")
def reference_workload():
    """(config, streams) for the golden workload, built once per module."""
    return goldens.reference_workload()


@pytest.mark.parametrize("name", goldens.GOLDEN_NAMES)
def test_golden_stats(reference_workload, name):
    config, streams = reference_workload
    with open(goldens.golden_path(name), "r", encoding="utf-8") as f:
        golden = json.load(f)
    got = goldens.compute_golden(name, config, streams)
    assert got == golden, (
        "GPUStats diverged from golden snapshot %s" % name)


def test_no_sm_ticks_twice_per_cycle(reference_workload, monkeypatch):
    """A CTA completion refills SMs mid-cycle; an SM that was already due
    must still tick only once in that cycle."""
    config, streams = reference_workload
    seen = set()
    repeats = []
    real_tick = SM.tick

    def tick(sm, cycle):
        key = (sm.sm_id, cycle)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return real_tick(sm, cycle)

    monkeypatch.setattr(SM, "tick", tick)
    stats = simulate(config=config, streams=streams, policy="mps").stats
    assert stats.total_instructions > 0
    assert repeats == [], "%d (sm, cycle) pairs ticked twice, first %r" % (
        len(repeats), repeats[:3])


def test_simrate_smoke(reference_workload):
    """Tier-1 canary: the reference run must stay fast.

    The bound is deliberately loose (the golden runs take ~0.3s each on
    the structure-of-arrays core) — it exists to catch order-of-magnitude
    regressions like an accidental return to per-cycle full scans, not to
    benchmark.  Real rates live in benchmarks/test_timing_simrate.py.
    Re-tightened after the SoA refactor so future PRs cannot silently give
    the win back and still pass tier-1.
    """
    config, streams = reference_workload
    t0 = time.perf_counter()
    stats = simulate(config=config, streams=streams, policy="mps").stats
    wall = time.perf_counter() - t0
    assert stats.total_instructions > 0
    assert wall < 30.0, (
        "reference run took %.1fs; timing-core fast path has regressed"
        % wall)
