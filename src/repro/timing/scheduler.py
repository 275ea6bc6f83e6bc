"""Warp schedulers: greedy-then-oldest (GTO) and loose round robin (LRR).

Each SM has ``schedulers_per_sm`` of these, each owning a slice of the
resident warps and one pipe of every execution-unit class.  GTO keeps
issuing from the same warp while it can (greedy), otherwise falls back to
the oldest ready warp — GPGPU-Sim's default policy, which Accel-Sim (and so
CRISP) inherits.  LRR, the other classic GPGPU-Sim option, rotates
priority past the warp id that issued last.

Both policies share one ready queue: a dict of ``estimate -> [cursor,
slot, slot, ...]`` buckets (element 0 is the read cursor) plus a small
min-heap of the bucket keys.  An estimate is a warp's earliest possible
issue cycle.  Estimates only ever under-shoot (unit contention can push
the true time later), so a due entry is re-validated against the current
scoreboard/unit state and re-queued at the corrected cycle if the warp is
not actually ready.  Every push appends, so the queue order is "ascending
estimate, FIFO within estimate".  List appends and cursor bumps are
cheaper than heap sifts (~3 per issued instruction under contention).

Everything here is structure-of-arrays, and the re-validation — the single
hottest computation in the simulator — collapses to two flat-array reads
per visit: ``next_ready[slot]`` (the register/stall readiness the SM caches
at each commit, exact because the scoreboard is single-writer) against the
pipe's ``next_free[unit_idx]``.  No scoreboard walk, no attribute chases,
no nested calls.

Selection and commit happen in :meth:`repro.timing.sm.SM.tick`: the GTO
sweep is inline there, and LRR calls :meth:`GTOScheduler.pick_lrr`.  This
class owns the queue, the wake-up path and the event horizon.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from ..isa.instructions import IE_UNIT_IDX, IE_USES_LDST
from .exec_units import SchedulerUnits
from .slots import SlotState
from .warp import BLOCKED


class GTOScheduler:
    """One warp-scheduler partition.

    ``policy`` selects the issue order: ``"gto"`` (greedy-then-oldest, the
    default) or ``"lrr"`` (loose round robin).

    ``state`` is the flat warp-slot state shared by every scheduler of one
    SM; warps are referred to by slot index throughout.
    """

    def __init__(self, index: int, units: SchedulerUnits, policy: str,
                 state: SlotState) -> None:
        if policy not in ("gto", "lrr"):
            raise ValueError("scheduler policy must be 'gto' or 'lrr'")
        self.index = index
        self.units = units
        #: Flat pipe next-free cycles (dense UNIT_INDEX order).
        self._pnf = units.next_free
        self.lrr = policy == "lrr"
        self.state = state
        #: Ready queue: estimate -> [cursor, slot, ...] (element 0 is the
        #: read cursor) plus a min-heap of live keys.
        self._buckets: Dict[int, List[int]] = {}
        self._bkeys: List[int] = []
        #: Flat per-unit issue counters (dense UNIT_INDEX order).
        self._icnt = units.issue_counts
        #: Slot of the warp that issued last (-1 = none): the greedy pick.
        self._greedy = -1
        #: Warp id of the warp that issued last: the LRR rotation point.
        self._last_warp_id = -1
        #: Earliest cycle this scheduler may act; maintained by the SM tick
        #: loop so stalled schedulers are skipped without rescanning.
        self.next_event_cache = 0

    # -- ready queue ---------------------------------------------------------
    def _qpush(self, est: int, slot: int) -> None:
        """Queue ``slot`` at estimated issue cycle ``est``."""
        b = self._buckets.get(est)
        if b is None:
            self._buckets[est] = [1, slot]
            heapq.heappush(self._bkeys, est)
        else:
            b.append(slot)

    # -- membership ----------------------------------------------------------
    def add_warp(self, slot: int) -> None:
        """Queue a newly resident warp slot."""
        self._qpush(0, slot)
        self.next_event_cache = 0

    def wake(self, slot: int, time: int) -> None:
        """Re-queue a warp slot parked on a barrier."""
        self._qpush(time, slot)
        if time < self.next_event_cache:
            self.next_event_cache = time

    def _issue_time(self, slot: int, cycle: int) -> int:
        """Earliest cycle ``slot``'s next instruction can issue (>= cycle)."""
        st = self.state
        if st.done[slot] or st.barrier[slot]:
            return BLOCKED
        ready = st.next_ready[slot]
        nf = self._pnf[st.cur[slot][IE_UNIT_IDX]]
        if nf > ready:
            ready = nf
        return ready if ready > cycle else cycle

    # -- selection -------------------------------------------------------------
    def pick_lrr(self, cycle: int) -> int:
        """Loose round robin: slot of the ready warp whose id follows the
        last issued warp's (wrapping at 4096); -1 if none is ready.

        Sweeps the due buckets in queue order.  Ready entries stay where
        they are, non-ready ones are re-queued at their corrected cycle and
        done or parked ones are dropped.  The first ready entry with the
        smallest rotation distance wins and is the only one removed; the
        caller re-queues it after the commit.
        """
        st = self.state
        done = st.done
        barrier = st.barrier
        nr = st.next_ready
        cur = st.cur
        warp_ids = st.warp_ids
        pnf = self._pnf
        keys = self._bkeys
        buckets = self._buckets
        last = self._last_warp_id
        swept = []
        best = -1
        best_dist = 4096
        win_bucket: List[int] = []
        win_index = 0
        while keys and keys[0] <= cycle:
            est = heapq.heappop(keys)
            b = buckets[est]
            kept = [1]
            for s in b[b[0]:]:
                if done[s] or barrier[s]:
                    continue  # done: dropped; parked: re-queued by wake()
                ready = nr[s]
                nf = pnf[cur[s][IE_UNIT_IDX]]
                if nf > ready:
                    ready = nf
                if ready <= cycle:
                    dist = (warp_ids[s] - last - 1) % 4096
                    if dist < best_dist:
                        best_dist = dist
                        best = s
                        win_bucket = kept
                        win_index = len(kept)
                    kept.append(s)
                    continue
                # Corrected cycles are > cycle >= est: never a swept bucket.
                self._qpush(ready, s)
            buckets[est] = kept
            swept.append(est)
        if best >= 0:
            del win_bucket[win_index]
        for est in swept:
            if len(buckets[est]) > 1:
                heapq.heappush(keys, est)
            else:
                del buckets[est]
        return best

    # -- telemetry ---------------------------------------------------------
    def stall_reason(self, slot: int, cycle: int) -> str:
        """Why ``slot`` cannot issue at ``cycle`` (read-only, sampling only).

        Called by ``SM.sample_stalls`` at telemetry sample ticks, never from
        the issue path.  Mirrors the ``_issue_time`` walk but names the first
        binding constraint instead of computing a ready cycle.
        """
        from ..telemetry.stall import (
            READY, STALL_BARRIER, STALL_LDST_QUEUE, STALL_NO_INSTRUCTION,
            STALL_PIPE_BUSY, STALL_SCOREBOARD,
        )
        st = self.state
        if st.done[slot]:
            return STALL_NO_INSTRUCTION
        if st.barrier[slot]:
            return STALL_BARRIER
        entry = st.cur[slot]
        if st.next_ready[slot] > cycle:
            return STALL_SCOREBOARD
        if self._pnf[entry[IE_UNIT_IDX]] > cycle:
            if entry[IE_USES_LDST]:
                return STALL_LDST_QUEUE
            return STALL_PIPE_BUSY
        return READY

    # -- event horizon -----------------------------------------------------------
    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this scheduler may act.

        Estimates may be stale-low; the GPU loop simply visits that cycle
        and re-validates, so under-estimates cost a visit, never accuracy.
        """
        st = self.state
        best = BLOCKED
        g = self._greedy
        if not self.lrr and g >= 0 and not st.done[g] \
                and not st.barrier[g]:
            best = self._issue_time(g, cycle)
        done = st.done
        barrier = st.barrier
        keys = self._bkeys
        buckets = self._buckets
        while keys:
            est = keys[0]
            b = buckets[est]
            i = b[0]
            n = len(b)
            while i < n and (done[b[i]] or barrier[b[i]]):
                i += 1
            if i >= n:
                del buckets[heapq.heappop(keys)]
                continue
            b[0] = i
            if est < best:
                best = est
            break
        return best
