"""Self-tests for the benchmark's own code.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import child  # noqa: E402
import shared  # noqa: E402

GRID_SCENES = ("SPH", "PT", "SPL")
GRID_COMPUTE = ("VIO", "HOLO", "NN")


def _stats():
    return {"cycles": 120, "occupancy_trace": [], "l2_snapshots": [],
            "l2_stream_snapshots": [],
            "streams": {
                "0": {"stream": 0, "instructions": 40, "l1_hits": 7,
                      "kernels_completed": 2},
                "1": {"stream": 1, "instructions": 60, "l1_hits": 9,
                      "kernels_completed": 3}}}


def test_digest_check_passes_on_pinned_stats():
    stats = _stats()
    pin = {"digest": shared.stats_digest(stats), "cycles": 120}
    assert shared.check_stats(stats, {"0": (40, 2), "1": (60, 3)}, pin,
                              totals=(120, 100)) == []


def test_digest_check_fires_on_one_changed_counter():
    stats = _stats()
    pin = {"digest": shared.stats_digest(stats), "cycles": 120}
    changed = copy.deepcopy(stats)
    changed["streams"]["1"]["l1_hits"] += 1
    problems = shared.check_stats(changed, {"0": (40, 2), "1": (60, 3)}, pin)
    assert len(problems) == 1 and "digest" in problems[0]


def test_check_fires_on_lost_instructions_and_kernels():
    stats = _stats()
    problems = shared.check_stats(stats, {"0": (41, 2), "1": (60, 4)}, None,
                                  totals=(121, 100))
    assert len(problems) == 3


def test_digest_check_on_the_reference_run():
    from repro.api import WorkloadSpec, simulate
    ref = shared.REFERENCE
    stats = simulate(config=ref["config"], policy=ref["policy"],
                     workload=WorkloadSpec(scene=ref["scene"], res=ref["res"],
                                           compute=ref["compute"])
                     ).stats.to_dict()
    pins = shared.load_pins()
    pin = pins["jobs"][shared.job_key("single_run", ref["scene"],
                                      ref["compute"], ref["policy"])]
    shape = {sid: tuple(v) for sid, v in pins["traces"][
        "%s|%s|%s+%s" % (ref["config"], ref["res"], ref["scene"],
                         ref["compute"])].items()}
    totals = (shared.REFERENCE_CYCLES, shared.REFERENCE_INSTRUCTIONS)
    assert shared.check_stats(stats, shape, pin, totals) == []
    stats["streams"]["0"]["l1_hits"] += 1
    assert shared.check_stats(stats, shape, pin, totals)


def test_default_seed_pairs():
    assert shared.pairs_for_seed(shared.DEFAULT_SEED, GRID_SCENES,
                                 GRID_COMPUTE) == [
        ("SPH", "VIO"), ("PT", "NN"), ("SPL", "HOLO")]


def test_benchmark_grid_is_the_paper_grid():
    from repro.harness.experiments import PAIR_COMPUTE, PAIR_SCENES
    assert (tuple(PAIR_SCENES), tuple(PAIR_COMPUTE)) == (GRID_SCENES,
                                                         GRID_COMPUTE)


def test_seed_pairs_are_deterministic_and_use_each_workload_once():
    for seed in range(20):
        pairs = shared.pairs_for_seed(seed, GRID_SCENES, GRID_COMPUTE)
        assert pairs == shared.pairs_for_seed(seed, GRID_SCENES,
                                              GRID_COMPUTE)
        assert [s for s, _ in pairs] == list(GRID_SCENES)
        assert sorted(c for _, c in pairs) == sorted(GRID_COMPUTE)
    assert len({tuple(shared.pairs_for_seed(s, GRID_SCENES, GRID_COMPUTE))
                for s in range(20)}) > 1


def test_median_summary():
    assert shared.median_summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    assert shared.median_summary([4, 1, 3, 2]) == {"median": 2.5, "n": 4}
    with pytest.raises(ValueError):
        shared.median_summary([])


def test_recorder_accounts_for_the_whole_window():
    start = time.monotonic()
    rec = child.Recorder(start)
    with rec.span("graphics"):
        time.sleep(0.01)
    with rec.paused():
        time.sleep(0.01)
    with rec.span("timing.run"):
        time.sleep(0.01)
    layers = rec.close()
    assert set(layers["busy"]) == {"graphics", "timing.run"}
    assert sum(layers["busy"].values()) + layers["other_s"] == pytest.approx(
        layers["wall_s"], abs=1e-6)
    assert layers["wall_s"] < rec.end - start


def test_recorder_rejects_overlapping_spans():
    rec = child.Recorder(time.monotonic())
    with pytest.raises(RuntimeError, match="overlaps"):
        with rec.span("outer"):
            with rec.span("inner"):
                pass


def test_reference_speed_scaling():
    ref = shared.REF_PROBE_S
    assert shared.at_reference_speed(2.0, [ref]) == pytest.approx(2.0)
    # A host at half speed reads twice the probe time: halve the seconds.
    assert shared.at_reference_speed(2.0, [2 * ref]) == pytest.approx(1.0)
    assert shared.at_reference_speed(3.0, [ref, 2 * ref]) == pytest.approx(
        2.0)


def test_probes_scale_by_the_readings_around_an_operation():
    probes = child.Probes()
    ref = shared.REF_PROBE_S
    probes.readings = [ref, 2 * ref, 2 * ref]
    assert probes.scale(1.0, 0, 1) == pytest.approx(1.0)
    assert probes.scale(1.5, 0, 2) == pytest.approx(1.0)
    assert probes.scale(2.0, 1, 3) == pytest.approx(1.0)
    assert probes.record(wall_ref_s=1.0)["probe_readings_s"] == \
        probes.readings


def test_host_probe_reads_positive_time():
    assert 0.0 < shared.host_probe(reps=1) < 5.0
    # A short unit is scaled to a whole one.
    assert 0.0 < shared.host_probe(reps=1, steps=600) < 5.0


def test_sampler_reads_at_least_once():
    with child.Sampler() as sampler:
        pass
    assert len(sampler.readings) == 1
    with child.Sampler() as sampler:
        time.sleep(3.5 * child.Sampler.SAMPLE_EVERY_S)
    assert 2 <= len(sampler.readings) <= 5
    assert all(r > 0.0 for r in sampler.readings)
