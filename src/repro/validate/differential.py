"""Differential oracle: the serial model must agree with itself, bit for bit.

Each fuzzed case runs twice.  The ``serial`` arm simulates the case's
kernels as built; the ``roundtrip`` arm first sends every kernel through
:func:`~repro.isa.serialize.kernel_to_dict` → JSON →
:func:`~repro.isa.serialize.kernel_from_dict` — the path saved traces take
— and simulates the copies.  The oracle compares the full canonical
``GPUStats.to_dict()`` trees — plus, on telemetry-on cases, the recorded
run logs and trace events.  A mismatch means the trace format dropped or
distorted something the timing model reads.  It is shrunk to a minimal
failing case (fewer streams, kernels, CTAs, a simpler policy) before it
is reported, so a CI failure arrives as a small repro, not a 40-kernel
blob.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..api import simulate
from ..isa import KernelTrace
from ..isa.serialize import kernel_from_dict, kernel_to_dict
from .fuzz import FuzzCase

__all__ = ["ENGINES", "CaseResult", "FuzzReport", "run_case",
           "check_case", "shrink_case", "run_fuzz", "first_difference"]

#: Oracle arms: the reference run and the trace round-trip re-run.
ENGINES = ("serial", "roundtrip")


def canonical(stats) -> dict:
    """JSON-canonical form of a stats tree (the bit-identity currency)."""
    return json.loads(json.dumps(stats.to_dict(), sort_keys=True))


def first_difference(a, b, path: str = "$") -> Optional[str]:
    """Human-readable locus of the first difference between two trees."""
    if type(a) is not type(b):
        return "%s: type %s vs %s" % (path, type(a).__name__,
                                      type(b).__name__)
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return "%s.%s: missing on left" % (path, k)
            if k not in b:
                return "%s.%s: missing on right" % (path, k)
            diff = first_difference(a[k], b[k], "%s.%s" % (path, k))
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return "%s: length %d vs %d" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    if a != b:
        return "%s: %r vs %r" % (path, a, b)
    return None


def _strip_volatile(obj, uids: Dict[int, int]):
    """Drop wall-clock fields (``unix_time``) from a record tree and
    renumber kernel ``uid`` values in first-seen order: a uid is a
    process-wide counter drawn when a kernel object is built, so two
    loads of the same trace differ in uid but not in content."""
    if isinstance(obj, dict):
        return {k: (uids.setdefault(v, len(uids)) if k == "uid"
                    else _strip_volatile(v, uids))
                for k, v in obj.items() if k != "unix_time"}
    if isinstance(obj, list):
        return [_strip_volatile(v, uids) for v in obj]
    return obj


def canonical_run(out) -> dict:
    """Everything of one run the oracle holds identical across arms:
    the stats tree plus, when the run recorded telemetry, the structured
    run log and the trace events (wall-clock stamps excluded)."""
    tree: Dict[str, object] = {"stats": canonical(out.stats)}
    request = getattr(out, "request", None)
    telemetry = request.telemetry if request is not None else None
    if telemetry is not None and getattr(telemetry, "enabled", False):
        uids: Dict[int, int] = {}
        tree["runlog"] = _strip_volatile(telemetry.runlog.records, uids)
        tree["trace"] = _strip_volatile(telemetry.sink.events, uids)
    return json.loads(json.dumps(tree, sort_keys=True))


def _round_trip(streams: Dict[int, List[KernelTrace]]
                ) -> Dict[int, List[KernelTrace]]:
    """Copy every kernel through its JSON trace form."""
    return {sid: [kernel_from_dict(json.loads(json.dumps(kernel_to_dict(k))))
                  for k in kernels]
            for sid, kernels in streams.items()}


def run_case(case: FuzzCase, engine: str):
    """Execute ``case`` on one oracle arm; returns the RunResult."""
    if engine not in ENGINES:
        raise ValueError("unknown oracle arm %r; known: %s"
                         % (engine, ENGINES))
    request = case.request(telemetry=case.make_telemetry())
    if engine == "roundtrip":
        request = replace(request, streams=_round_trip(case.streams))
    return simulate(request)


@dataclass
class CaseResult:
    """Oracle verdict for one case."""

    case: FuzzCase
    engines: List[str]
    #: arm -> first-difference description (empty when all agree).
    mismatches: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_case(case: FuzzCase, engines: Sequence[str] = ENGINES,
               run: Callable = run_case) -> CaseResult:
    """Run ``case`` through ``engines`` and compare against the serial run.

    ``run`` is injectable so tests can wrap an arm with a deliberate
    regression and watch the shrinker catch it.
    """
    result = CaseResult(case=case, engines=list(engines))
    reference = None
    for engine in engines:
        tree = canonical_run(run(case, engine))
        if engine == "serial":
            reference = tree
            continue
        if reference is None:
            raise ValueError("engine list must start with 'serial'")
        diff = first_difference(reference, tree)
        if diff:
            result.mismatches[engine] = diff
    return result


# -- shrinking ---------------------------------------------------------------

def _subset_kernel(kernel: KernelTrace, ctas) -> KernelTrace:
    return KernelTrace(
        kernel.name, list(ctas), kernel.threads_per_cta,
        regs_per_thread=kernel.regs_per_thread,
        shared_mem_per_cta=kernel.shared_mem_per_cta,
        kind=kernel.kind, depends_on_prev=kernel.depends_on_prev,
    )


def _with_streams(case: FuzzCase, streams: Dict[int, List[KernelTrace]],
                  policy_spec="unchanged", note: str = "") -> FuzzCase:
    spec = case.policy_spec if policy_spec == "unchanged" else policy_spec
    descr = dict(case.descr)
    descr["shrunk"] = descr.get("shrunk", []) + [note]
    descr["workload"] = {
        str(sid): {"kind": "shrunk",
                   "kernels": [{"name": k.name, "ctas": k.num_ctas,
                                "insts": k.num_instructions}
                               for k in kernels]}
        for sid, kernels in streams.items()
    }
    descr["policy"] = spec
    return FuzzCase(seed=case.seed, config=case.config, streams=streams,
                    policy_spec=spec, descr=descr,
                    telemetry_on=case.telemetry_on)


def _candidates(case: FuzzCase):
    """Smaller variants of ``case``, most aggressive first."""
    streams = case.streams
    if len(streams) > 1:
        for sid in sorted(streams):
            rest = {s: list(k) for s, k in streams.items() if s != sid}
            yield _with_streams(case, rest, note="drop stream %d" % sid)
    for sid in sorted(streams):
        kernels = streams[sid]
        if len(kernels) > 1:
            half = len(kernels) // 2
            for part, label in ((kernels[:half], "first"),
                                (kernels[half:], "last")):
                out = {s: (list(part) if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(case, out,
                                    note="stream %d %s half" % (sid, label))
            for i in range(len(kernels)):
                part = kernels[:i] + kernels[i + 1:]
                out = {s: (part if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(case, out,
                                    note="stream %d drop kernel %d" % (sid, i))
    for sid in sorted(streams):
        for i, kernel in enumerate(streams[sid]):
            if kernel.num_ctas > 1:
                keep = kernel.ctas[:max(1, kernel.num_ctas // 2)]
                part = list(streams[sid])
                part[i] = _subset_kernel(kernel, keep)
                out = {s: (part if s == sid else list(k))
                       for s, k in streams.items()}
                yield _with_streams(
                    case, out,
                    note="stream %d kernel %d -> %d CTAs" % (sid, i,
                                                             len(keep)))
    if case.policy_spec not in (None, {"name": "mps"}):
        yield _with_streams(case, {s: list(k) for s, k in streams.items()},
                            policy_spec={"name": "mps"},
                            note="policy -> mps")


def _size(case: FuzzCase):
    return (len(case.streams),
            sum(len(k) for k in case.streams.values()),
            sum(kr.num_ctas for k in case.streams.values() for kr in k))


def shrink_case(case: FuzzCase, is_failing: Callable[[FuzzCase], bool],
                max_evals: int = 120):
    """Greedily minimise ``case`` while ``is_failing`` stays true.

    Returns ``(minimal_case, evaluations)``.  Classic ddmin-style descent:
    try dropping streams, kernel halves, single kernels, CTA halves and the
    policy, restarting from the first smaller variant that still fails.
    """
    evals = 0
    current = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(current):
            if _size(candidate) >= _size(current):
                continue
            evals += 1
            if is_failing(candidate):
                current = candidate
                improved = True
                break
            if evals >= max_evals:
                break
    return current, evals


# -- fuzz driver -------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep (what the CLI prints / CI uploads)."""

    seeds: List[int] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)
    invariant_runs: int = 0
    qos_probes: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "seeds": len(self.seeds),
            "failures": len(self.failures),
            "invariant_checked_runs": self.invariant_runs,
            "qos_probes": self.qos_probes,
        }


#: Every Nth fuzz seed also replays a short open-loop QoS scenario twice
#: and compares the canonical reports — the QoS stack (arrival
#: generation, monitor, adaptive controller) is policed for determinism
#: by the same sweep that polices the timing model.  Sparse because one QoS
#: probe costs two multi-client simulations.
_QOS_PROBE_EVERY = 5
_QOS_PROBE_REQUESTS = 3


def _qos_probe(seed: int) -> Optional[dict]:
    """Same-seed bit-identity check on one short QoS scenario run.

    Returns a failure record, or None when the two runs agree.
    """
    from ..qos import canonical_report, run_scenario
    from ..qos.scenario import scenario_names

    names = scenario_names()
    scenario = names[(seed // _QOS_PROBE_EVERY) % len(names)]
    runs = [run_scenario(scenario, seed, policy="adaptive",
                         requests=_QOS_PROBE_REQUESTS)
            for _ in range(2)]
    texts = [canonical_report(r) for r in runs]
    if texts[0] == texts[1] and runs[0]["events"] == runs[1]["events"]:
        return None
    diff = first_difference(
        {**json.loads(texts[0]), "events": runs[0]["events"]},
        {**json.loads(texts[1]), "events": runs[1]["events"]})
    return {"seed": seed, "kind": "qos-nondeterminism",
            "scenario": scenario, "diff": diff}


def run_fuzz(seeds: Sequence[int], check_invariants: bool = False,
             corpus_dir: Optional[str] = None, allow_scenes: bool = True,
             include_qos: bool = True,
             progress: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Round-trip-test every seed; optionally re-run with invariants on.

    With ``check_invariants``, each case additionally runs serially under
    an :class:`~repro.validate.InvariantChecker` and the checked run must
    be bit-identical to the unchecked serial reference — proving on the
    whole fuzz corpus that the checker observes without disturbing.

    With ``include_qos``, every ``_QOS_PROBE_EVERY``-th seed also runs a
    short open-loop QoS scenario twice under the adaptive controller and
    requires bit-identical reports (failure kind ``qos-nondeterminism``).

    Failures (mismatch details plus the shrunk minimal case description)
    are appended to ``report.failures`` and, when ``corpus_dir`` is given,
    written there as one JSON file per failing seed.
    """
    import os

    from .fuzz import build_case
    from .invariants import InvariantChecker, InvariantViolation

    report = FuzzReport()
    for seed in seeds:
        case = build_case(seed, allow_scenes=allow_scenes)
        result = check_case(case)
        report.seeds.append(seed)
        failure = None
        if not result.ok:
            def still_fails(c: FuzzCase) -> bool:
                return not check_case(c).ok
            minimal, evals = shrink_case(case, still_fails)
            failure = {
                "seed": seed,
                "kind": "engine-mismatch",
                "mismatches": result.mismatches,
                "case": case.descr,
                "minimal": minimal.descr,
                "shrink_evals": evals,
            }
        elif check_invariants:
            report.invariant_runs += 1
            checker = InvariantChecker()
            try:
                checked = simulate(case.request(telemetry=checker))
                serial = run_case(case, "serial")
                diff = first_difference(canonical(serial.stats),
                                        canonical(checked.stats))
                if diff:
                    failure = {"seed": seed, "kind": "invariants-perturbed",
                               "diff": diff, "case": case.descr}
            except InvariantViolation as exc:
                failure = {"seed": seed, "kind": "invariant-violation",
                           "error": str(exc), "case": case.descr,
                           "checks": checker.report()}
        if (failure is None and include_qos
                and seed % _QOS_PROBE_EVERY == 0):
            report.qos_probes += 1
            failure = _qos_probe(seed)
        if failure:
            report.failures.append(failure)
            if corpus_dir:
                os.makedirs(corpus_dir, exist_ok=True)
                path = os.path.join(corpus_dir, "fuzz-seed-%d.json" % seed)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(failure, f, indent=1, sort_keys=True)
        if progress:
            status = "FAIL" if failure else "ok"
            progress("seed %d: %s (%d insts, engines: %s)"
                     % (seed, status, case.total_instructions,
                        ",".join(result.engines)))
    return report
