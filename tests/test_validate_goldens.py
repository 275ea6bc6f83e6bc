"""Golden-snapshot manager: regen is byte-stable, check mirrors tier-1.

``repro validate regen-goldens`` replaces the ad-hoc scripts that used to
regenerate ``tests/golden``; these tests pin that the manager writes the
*exact historical byte format* (an unchanged engine regenerates byte-for-
byte identical files) and that ``check`` reports differences usefully.
"""

import filecmp
import json
import os

import pytest

from repro.validate import check_goldens, regen_goldens
from repro.validate.goldens import (
    GOLDEN_NAMES,
    QOS_GOLDEN_SCENARIOS,
    compute_golden,
    compute_qos_golden,
    default_golden_dir,
    golden_path,
    qos_golden_path,
    reference_workload,
)


def test_default_golden_dir_is_the_repo_checkout():
    d = default_golden_dir()
    assert os.path.isdir(d)
    assert os.path.basename(d) == "golden"
    assert os.path.exists(golden_path("mps"))


def test_check_current_engine_matches_snapshots():
    problems = check_goldens()
    assert problems == {}, (
        "engine diverged from golden snapshots: %r" % problems)


def test_regen_is_byte_identical_for_unchanged_engine(tmp_path):
    written = regen_goldens(golden_dir=str(tmp_path))
    assert len(written) == len(GOLDEN_NAMES) + len(QOS_GOLDEN_SCENARIOS)
    for name in GOLDEN_NAMES:
        fresh = golden_path(name, str(tmp_path))
        checked_in = golden_path(name)
        assert filecmp.cmp(fresh, checked_in, shallow=False), (
            "regen-goldens no longer reproduces the checked-in bytes for "
            "golden %r" % name)
    for scenario in QOS_GOLDEN_SCENARIOS:
        fresh = qos_golden_path(scenario, str(tmp_path))
        checked_in = qos_golden_path(scenario)
        assert filecmp.cmp(fresh, checked_in, shallow=False), (
            "regen-goldens no longer reproduces the checked-in bytes for "
            "QoS scenario %r" % scenario)


def test_check_reports_missing_snapshot(tmp_path):
    problems = check_goldens(golden_dir=str(tmp_path),
                             names=("mps",), qos_scenarios=())
    assert "missing snapshot" in problems["mps"]


def test_check_localises_a_difference(tmp_path):
    config, streams = reference_workload()
    tree = compute_golden("mps", config, streams)
    tree["cycles"] += 1
    path = golden_path("mps", str(tmp_path))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tree, f, indent=1, sort_keys=True)
    problems = check_goldens(golden_dir=str(tmp_path), names=("mps",),
                             qos_scenarios=())
    assert "$.cycles" in problems["mps"]


def test_check_localises_a_qos_difference(tmp_path):
    tree = compute_qos_golden("steady")
    tree["total_cycles"] += 1
    path = qos_golden_path("steady", str(tmp_path))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tree, f, indent=1, sort_keys=True)
    problems = check_goldens(golden_dir=str(tmp_path), names=(),
                             qos_scenarios=("steady",))
    assert "$.total_cycles" in problems["qos:steady"]


def test_qos_golden_reports_missing_snapshot(tmp_path):
    problems = check_goldens(golden_dir=str(tmp_path), names=(),
                             qos_scenarios=("bursty",))
    assert "missing snapshot" in problems["qos:bursty"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_snapshot_format_is_canonical(name):
    """sorted keys, indent=1, no trailing newline — diffs stay reviewable."""
    with open(golden_path(name), "r", encoding="utf-8") as f:
        raw = f.read()
    assert raw == json.dumps(json.loads(raw), indent=1, sort_keys=True)


@pytest.mark.parametrize("scenario", QOS_GOLDEN_SCENARIOS)
def test_qos_snapshot_format_is_canonical(scenario):
    with open(qos_golden_path(scenario), "r", encoding="utf-8") as f:
        raw = f.read()
    assert raw == json.dumps(json.loads(raw), indent=1, sort_keys=True)
    tree = json.loads(raw)
    # The QoS goldens keep the per-frame events: ordering is pinned too.
    assert tree["kind"] == "qos-report" and tree["events"]
