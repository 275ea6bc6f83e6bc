"""Pure helpers shared by the benchmark entry point, its child processes
and its self-tests.

Nothing here imports ``repro``: the entry point (``run.py``) stays a thin
process manager, and during a run the simulator is imported only inside
fresh child interpreters (``child.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

WORKLOADS = ("single_run", "policy_sweep", "sim_only")

#: The seed whose pairs are SPH+VIO, PT+NN and SPL+HOLO.
DEFAULT_SEED = 0

#: The ROADMAP reference run, and its stats when the benchmark was defined
#: (the ``BENCH_timing.json`` baseline).
REFERENCE = {"scene": "SPL", "compute": "HOLO", "res": "nano",
             "policy": "mps", "config": "JetsonOrin-mini"}
REFERENCE_CYCLES = 17419
REFERENCE_INSTRUCTIONS = 98120

#: The fig14 shape, at 2k instead of the paper's 4k.
SWEEP_POLICIES = ("mps", "mig", "tap")
SWEEP_CONFIG = "RTX3070-mini"
SWEEP_RES = "2k"

SIM_ONLY_CONFIG = "JetsonOrin-mini"
SIM_ONLY_RES = "2k"

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def pairs_for_seed(seed: int, scenes: Sequence[str],
                   computes: Sequence[str]) -> List[Tuple[str, str]]:
    """Pair every scene with one compute workload, shuffled by ``seed``.

    Each seed uses every scene and every compute workload exactly once,
    so the traced work is the same on every seed and only the pairing,
    which decides how the two streams contend, changes.
    """
    if len(scenes) != len(computes):
        raise ValueError("need as many scenes as compute workloads")
    shuffled = list(computes)
    random.Random(seed).shuffle(shuffled)
    return list(zip(scenes, shuffled))


def job_key(workload: str, scene: str, compute: str, policy: str) -> str:
    """Name of one simulation in ``pins.json``."""
    return "%s:%s+%s/%s" % (workload, scene, compute, policy)


def stats_digest(stats: dict) -> str:
    """SHA-256 of ``GPUStats.to_dict()`` as sorted, compact JSON."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_pins(path: str = PINS_FILE) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_stats(stats: dict, expected: Dict[str, Tuple[int, int]],
                pin: Optional[dict],
                totals: Optional[Tuple[int, int]] = None) -> List[str]:
    """Problems with one simulation's stats; an empty list means correct.

    ``expected`` maps each stream id (as a string, the ``to_dict`` key)
    to its traced ``(instructions, kernels)``: every traced instruction
    must be simulated and every kernel must complete.  ``pin``, when
    given, holds the stats digest recorded for this job when the
    benchmark was defined; a perf-only change must reproduce it exactly.  ``totals``,
    when given, is the expected ``(cycles, instructions)`` of the run.
    """
    problems = []
    streams = stats.get("streams", {})
    if sorted(streams) != sorted(expected):
        problems.append("streams %s, expected %s"
                        % (sorted(streams), sorted(expected)))
    for sid, (instructions, kernels) in sorted(expected.items()):
        st = streams.get(sid)
        if st is None:
            continue
        if st["instructions"] != instructions:
            problems.append("stream %s simulated %d of %d traced instructions"
                            % (sid, st["instructions"], instructions))
        if st["kernels_completed"] != kernels:
            problems.append("stream %s completed %d of %d kernels"
                            % (sid, st["kernels_completed"], kernels))
    if totals is not None:
        got = (stats.get("cycles"),
               sum(st["instructions"] for st in streams.values()))
        if got != tuple(totals):
            problems.append("%d cycles / %d instructions, expected %d / %d"
                            % (got + tuple(totals)))
    if pin is not None and stats_digest(stats) != pin["digest"]:
        problems.append("stats digest differs from the pinned one "
                        "(cycles %s, pinned %s)"
                        % (stats.get("cycles"), pin["cycles"]))
    return problems


def median_summary(values: Iterable[float]) -> Dict[str, float]:
    """Median and sample count of ``values``."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no samples")
    return {"median": statistics.median(vals), "n": len(vals)}


#: Fixed pure-Python work of the host-speed probe: a pointer chase over
#: small objects with dict stores, the operation mix of the simulator's
#: inner loops.  It touches no ``repro`` code, so a change to the
#: simulator never changes what the probe measures.
PROBE_NODES = 40000
PROBE_STEPS = 60000
PROBE_REPS = 9
#: What one probe unit takes on the reference host (2-vCPU Xeon VM,
#: Python 3.11) in a quiet stretch.  Reported times are host seconds
#: scaled by ``REF_PROBE_S / probe``: seconds at the reference speed.
REF_PROBE_S = 0.0075


class _ProbeNode:
    __slots__ = ("a", "b", "nxt")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.nxt = None


_PROBE_RING: List[_ProbeNode] = []


def _probe_unit(steps: int) -> int:
    if not _PROBE_RING:
        _PROBE_RING.extend(_ProbeNode(i, 3 * i) for i in range(PROBE_NODES))
        for i, node in enumerate(_PROBE_RING):
            node.nxt = _PROBE_RING[(i * 7919) % PROBE_NODES]
    node, table, acc = _PROBE_RING[0], {}, 0
    for i in range(steps):
        acc += node.a - node.b + (i * 7) % 13
        table[node.a & 4095] = acc
        node = node.nxt
    return acc


def host_probe(reps: int = PROBE_REPS, steps: int = PROBE_STEPS) -> float:
    """Median seconds of one probe unit over ``reps`` repetitions; a
    shorter unit of ``steps`` steps is timed and scaled to a whole one.

    The host this benchmark was defined on changes speed by up to 2x
    within tens of seconds, with nothing else running, and CPU time
    tracks wall time.  A probe read right before and after each timed
    operation measures the speed the operation ran at.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _probe_unit(steps)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * PROBE_STEPS / steps


def at_reference_speed(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` of host time scaled to the reference host speed, given
    the probe readings taken around it."""
    return seconds * REF_PROBE_S / statistics.mean(probes)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root``, or None outside a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file under ``src_dir`` (path + content),
    so a result identifies the code it measured even without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_dir).encode("utf-8"))
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_stamp(root: str, seed: int) -> dict:
    """Host and provenance of a result; compare results only within one
    ``host_id``."""
    cpu = _cpu_model()
    cpus = os.cpu_count() or 1
    host_id = hashlib.sha256(("%s|%s|%d" % (platform.node(), cpu, cpus))
                             .encode("utf-8")).hexdigest()[:16]
    return {
        "cpu_model": cpu,
        "logical_cpus": cpus,
        "python": platform.python_version(),
        "host_id": host_id,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src", "repro")),
        "seed": seed,
    }
