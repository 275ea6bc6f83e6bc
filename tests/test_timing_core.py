"""Tests for warp state, schedulers, and execution-unit pipes.

Scheduler and warp behaviour is driven through the path that runs in a
simulation: an SM with one warp scheduler, hand-built resident CTAs and
``SM.tick``.  The warp that issued at a tick is read from the SM's slot
state.
"""

from repro.config import RTX_3070_MINI
from repro.isa import (
    CTATrace,
    DataClass,
    KernelTrace,
    MemAccess,
    Op,
    Unit,
    WarpInstruction,
    WarpTrace,
)
from repro.memory import L2Cache
from repro.timing import BLOCKED, SM, GPUStats, UnitPipe, WarpContext
from repro.timing.sm import ResidentCTA


def make_sm(policy="gto"):
    """An SM with a single warp scheduler running ``policy``."""
    config = RTX_3070_MINI.replace(schedulers_per_sm=1,
                                   scheduler_policy=policy)
    return SM(0, config, L2Cache(config), GPUStats())


def add_warp(sm, instrs, warp_id=0):
    """Make a one-warp CTA resident on ``sm`` and queue its warp.

    Hand-built rather than launched so a test picks the warp id (the LRR
    rotation key) freely, up to the 4096 wrap.
    """
    trace = WarpTrace(list(instrs))
    kernel = KernelTrace("k", [CTATrace([trace], 0)], threads_per_cta=32)
    cta = ResidentCTA(kernel, kernel.ctas[0], kernel.cta_resources(32), 0)
    w = WarpContext(trace, 0, cta, warp_id=warp_id,
                    sstat=sm.stats.stream(0), state=sm.slot_state)
    cta.warps.append(w)
    cta.live_warps = 0 if w.done else 1
    sm.resident.append(cta)
    sm.issued_by_stream.setdefault(0, 0)
    sm.schedulers[0].add_warp(w.slot)
    return w


def ffma_warp(sm, n_instrs=1, warp_id=0):
    """A warp of ``n_instrs`` independent FFMAs (ready every cycle)."""
    return add_warp(sm, [WarpInstruction(Op.FFMA, dst=8 + i)
                         for i in range(n_instrs)], warp_id=warp_id)


def tick(sm, cycle):
    """``sm.tick(cycle)``; the WarpContext that issued, or None."""
    st = sm.slot_state
    before = list(st.pc)
    sm.tick(cycle)
    issued = [s for s in range(st.count) if st.pc[s] != before[s]]
    assert len(issued) <= 1, "one scheduler issued more than once"
    return st.warps[issued[0]] if issued else None


def next_event(sm):
    """The scheduler's cached next cycle (its queue horizon)."""
    return sm.schedulers[0].next_event_cache


def park(w):
    w.barrier_wait = True


def unpark(sm, w, release):
    """What SM._barrier does on release: clear the flag, hold the warp to
    the release cycle and wake it there."""
    w.barrier_wait = False
    w.stall_until = release
    sm.schedulers[0].wake(w.slot, release)


class TestUnitPipe:
    def test_pipelined_issue(self):
        p = UnitPipe(Unit.FP)
        assert p.issue(0, initiation=1) == 0
        assert p.issue(0, initiation=1) == 1  # next cycle, II=1

    def test_initiation_interval_blocks(self):
        p = UnitPipe(Unit.SFU)
        assert p.issue(0, initiation=4) == 0
        assert p.issue(1, initiation=4) == 4

    def test_earliest_issue(self):
        p = UnitPipe(Unit.FP)
        p.issue(5, initiation=3)
        assert p.earliest_issue(5) == 8
        assert p.earliest_issue(20) == 20


class TestWarpContext:
    def test_empty_trace_is_done(self):
        sm = make_sm()
        w = add_warp(sm, [])
        assert w.done
        assert tick(sm, 0) is None
        assert next_event(sm) == BLOCKED

    def test_dependency_blocks_until_writeback(self):
        sm = make_sm()
        w = add_warp(sm, [
            WarpInstruction(Op.LDG, dst=4, mem=MemAccess([0], DataClass.COMPUTE)),
            WarpInstruction(Op.FFMA, dst=8, srcs=(4,)),
        ])
        assert tick(sm, 0) is w
        writeback = w.last_commit_cycle  # the load's completion (RAW)
        assert writeback > 30
        assert tick(sm, 1) is None
        assert next_event(sm) == writeback
        assert tick(sm, writeback) is w

    def test_waw_hazard_checked(self):
        sm = make_sm()
        w = add_warp(sm, [
            WarpInstruction(Op.FFMA, dst=4, srcs=(1,)),
            WarpInstruction(Op.FFMA, dst=4, srcs=(2,)),
        ])
        assert tick(sm, 0) is w
        assert tick(sm, 1) is None  # dst 4 still in flight (FFMA: 4 cycles)
        assert next_event(sm) == 4
        assert tick(sm, 4) is w

    def test_independent_instruction_ready_immediately(self):
        sm = make_sm()
        w = add_warp(sm, [
            WarpInstruction(Op.FFMA, dst=4, srcs=(1,)),
            WarpInstruction(Op.FFMA, dst=8, srcs=(2,)),
        ])
        assert tick(sm, 0) is w
        assert tick(sm, 1) is w

    def test_stall_until_enforced(self):
        sm = make_sm()
        w = add_warp(sm, [WarpInstruction(Op.FFMA, dst=4)])
        w.stall_until = 77
        assert tick(sm, 0) is None
        assert next_event(sm) == 77
        assert tick(sm, 77) is w

    def test_barrier_wait_blocks(self):
        sm = make_sm()
        w = add_warp(sm, [WarpInstruction(Op.FFMA, dst=4)])
        park(w)
        assert tick(sm, 0) is None
        assert next_event(sm) == BLOCKED

    def test_done_after_last_instruction(self):
        sm = make_sm()
        w = add_warp(sm, [WarpInstruction(Op.EXIT)])
        assert not w.done
        assert tick(sm, 0) is w
        assert w.done


class TestGTOScheduler:
    def test_pick_returns_ready_warp(self):
        sm = make_sm()
        w = ffma_warp(sm)
        assert tick(sm, 0) is w

    def test_pick_negative_when_empty(self):
        sm = make_sm()
        assert tick(sm, 0) is None
        assert next_event(sm) == BLOCKED

    def test_greedy_prefers_last_issued(self):
        sm = make_sm()
        a = add_warp(sm, [WarpInstruction(Op.FFMA, dst=4)] * 3, warp_id=0)
        b = add_warp(sm, [WarpInstruction(Op.FFMA, dst=4)] * 3, warp_id=1)
        first = tick(sm, 0)
        assert first in (a, b)
        # Both warps are ready once the WAW hazard clears; the one that
        # issued last is preferred (greedy).
        assert tick(sm, 8) is first
        assert tick(sm, 16) is first

    def test_oldest_selected_when_greedy_stalled(self):
        sm = make_sm()
        a = add_warp(sm, [
            WarpInstruction(Op.FFMA, dst=4),
            WarpInstruction(Op.FFMA, dst=8, srcs=(4,)),
        ], warp_id=0)
        b = ffma_warp(sm, warp_id=1)
        assert tick(sm, 0) is a  # oldest first
        # a now stalls on its dependency until cycle 4 -> b is picked.
        assert tick(sm, 1) is b

    def test_done_warps_dropped(self):
        sm = make_sm()
        w = add_warp(sm, [WarpInstruction(Op.EXIT)])
        assert tick(sm, 0) is w
        assert tick(sm, 1) is None
        assert next_event(sm) == BLOCKED

    def test_next_event_reports_dependency_time(self):
        sm = make_sm()
        w = add_warp(sm, [
            WarpInstruction(Op.LDG, dst=4, mem=MemAccess([0], DataClass.COMPUTE)),
            WarpInstruction(Op.FFMA, dst=8, srcs=(4,)),
        ])
        assert tick(sm, 0) is w
        assert tick(sm, 1) is None
        assert sm.schedulers[0].next_event(1) == w.last_commit_cycle
        assert next_event(sm) == w.last_commit_cycle

    def test_wake_requeues_parked_warp(self):
        sm = make_sm()
        w = ffma_warp(sm)
        park(w)
        assert tick(sm, 0) is None  # parked entry dropped
        unpark(sm, w, 5)
        assert tick(sm, 5) is w


class TestLRRWrapAround:
    """Round-robin priority must wrap past the hard-coded 4096-id modulo:
    after warp id 4095 issues, id 0 is "next", and ids just above the last
    issued id always beat ids far below it."""

    def issue(self, sm, cycle):
        w = tick(sm, cycle)
        assert w is not None
        return w

    def test_id_above_last_beats_id_below(self):
        sm = make_sm("lrr")
        seed = ffma_warp(sm, 1, warp_id=4094)  # sets last, then done
        assert self.issue(sm, 0) is seed
        ffma_warp(sm, 2, warp_id=0)
        hi = ffma_warp(sm, 2, warp_id=4095)
        # last issued id is 4094: id 4095 (distance 0 mod 4096) must beat
        # id 0 (distance 1 mod 4096).  An unwrapped comparison would pick 0.
        assert self.issue(sm, 1) is hi

    def test_wraps_from_4095_to_zero(self):
        sm = make_sm("lrr")
        seed = ffma_warp(sm, 1, warp_id=4095)
        assert self.issue(sm, 0) is seed
        a = ffma_warp(sm, 2, warp_id=0)
        b = ffma_warp(sm, 2, warp_id=1)
        # last = 4095 == modulo boundary: round robin restarts at id 0.
        assert self.issue(sm, 1) is a
        assert self.issue(sm, 2) is b

    def test_full_rotation_across_boundary(self):
        sm = make_sm("lrr")
        for wid in (4093, 4095, 2):
            ffma_warp(sm, 4, warp_id=wid)
        order = [self.issue(sm, cycle).warp_id for cycle in range(6)]
        # First lap starts from the lowest id (nothing issued yet), then
        # rotation proceeds ascending-from-last, wrapping 4095 -> 2.
        assert order == [2, 4093, 4095, 2, 4093, 4095]

    def test_equal_ids_first_queued_wins(self):
        """Warps of different CTAs share ids; on a tie the entry first in
        queue order (ascending estimate, FIFO within one) issues."""
        sm = make_sm("lrr")
        x = ffma_warp(sm, 2, warp_id=0)
        y = ffma_warp(sm, 2, warp_id=0)
        order = [self.issue(sm, cycle) for cycle in range(4)]
        # x wins cycle 0 and is re-queued at 1, behind y's entry at 0.
        assert order == [x, y, x, y]


class TestBarrierWakeOrdering:
    """Parked warps re-enter the issue queue via wake(); order and timing
    follow (release cycle, wake call order)."""

    def test_wake_fifo_within_release_cycle(self):
        sm = make_sm()
        w0, w1, w2 = (ffma_warp(sm, warp_id=i) for i in range(3))
        for w in (w0, w1, w2):
            park(w)
        assert tick(sm, 0) is None
        # Wake out of slot order: FIFO must follow wake() call order.
        for w in (w2, w0, w1):
            unpark(sm, w, 5)
        assert tick(sm, 4) is None  # release cycle not reached
        assert [tick(sm, c) for c in (5, 6, 7)] == [w2, w0, w1]

    def test_wake_respects_release_cycles(self):
        sm = make_sm()
        early = ffma_warp(sm, warp_id=0)
        late = ffma_warp(sm, warp_id=1)
        park(early)
        park(late)
        unpark(sm, late, 9)
        unpark(sm, early, 3)
        # Earlier release wins even though it was woken second.
        assert tick(sm, 3) is early
        assert tick(sm, 4) is None
        assert next_event(sm) == 9
        assert tick(sm, 9) is late

    def test_wake_folds_with_stall_until(self):
        sm = make_sm()
        w = ffma_warp(sm)
        park(w)
        w.barrier_wait = False
        w.stall_until = 7  # scoreboard-side stall outlives the barrier
        sm.schedulers[0].wake(w.slot, 5)
        # The cycle-5 entry is stale-low: the sweep re-validates against
        # the flat next_ready array and re-queues at the corrected cycle.
        assert tick(sm, 5) is None
        assert next_event(sm) == 7
        assert tick(sm, 6) is None
        assert tick(sm, 7) is w

    def test_wake_while_still_parked_stays_parked(self):
        sm = make_sm()
        w = ffma_warp(sm)
        park(w)
        sm.schedulers[0].wake(w.slot, 2)  # spurious: barrier flag still set
        assert tick(sm, 2) is None
        assert next_event(sm) == BLOCKED
        unpark(sm, w, 4)
        assert tick(sm, 4) is w
