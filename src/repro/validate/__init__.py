"""repro.validate — the simulator's correctness layer.

Four tools, one goal: every timing-model change is either provably
neutral or deliberately snapshotted.

* :mod:`~repro.validate.invariants` — an :class:`InvariantChecker`
  telemetry recorder asserting conservation laws during a run (instruction
  conservation, cache accounting, stall sums, event-heap monotonicity,
  partition disjointness, scoreboard drain).
* :mod:`~repro.validate.fuzz` — seeded random RunRequests over policy ×
  partition fractions × cache geometry × workload mix.
* :mod:`~repro.validate.differential` — runs each case as built and
  again after a JSON trace round-trip (``kernel_to_dict`` →
  ``kernel_from_dict``), asserts bit-identity — stats, run logs and trace
  events alike — and shrinks failures to minimal repros.
* :mod:`~repro.validate.goldens` — regenerates/checks the
  ``tests/golden`` snapshots (``repro validate regen-goldens``).
"""

from .differential import (
    CaseResult,
    ENGINES,
    FuzzReport,
    check_case,
    first_difference,
    run_fuzz,
    shrink_case,
)
from .fuzz import FuzzCase, build_case, build_cases
from .goldens import check as check_goldens
from .goldens import regen as regen_goldens
from .invariants import InvariantChecker, InvariantViolation, check_run

__all__ = [
    "CaseResult",
    "ENGINES",
    "FuzzCase",
    "FuzzReport",
    "InvariantChecker",
    "InvariantViolation",
    "build_case",
    "build_cases",
    "check_case",
    "check_goldens",
    "check_run",
    "first_difference",
    "regen_goldens",
    "run_fuzz",
    "shrink_case",
]
