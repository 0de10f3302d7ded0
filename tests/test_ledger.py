"""Wrapper-ledger behavior: wrapping, settlement, transfers, freezes,
recovery, and the recovery-plan deficiency rule."""

import bisect
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

import rpoolsim.ledger
from rpoolsim.errors import (
    FrozenFunds,
    InsufficientBalance,
    InsufficientBase,
    InsufficientSettled,
    InsufficientUnsettled,
    NotArbitrator,
    SelfTransfer,
    Uncoverable,
    UnknownCase,
    UnwrapDisabled,
    ZeroAmount,
)
from rpoolsim.ledger import check_amount

from conftest import ARB, WINDOW, give_unsettled, make_pool, quorum


class TestWrap:
    def test_full_balance_wrap(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        assert ledger.settle_view("a", 0) == (100, 0)
        assert base.balance("a") == 0
        assert ledger.base_locked() == 100

    def test_zero_amount(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        with pytest.raises(ZeroAmount):
            ledger.wrap("a", 0, 0)

    def test_over_balance(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 50)
        with pytest.raises(InsufficientBase):
            ledger.wrap("a", 60, 0)
        assert ledger.nonce("a") == 0

    def test_increments_nonce(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 40, 0)
        ledger.wrap("a", 60, 0)
        assert ledger.nonce("a") == 2


class TestUnwrap:
    def test_round_trip(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.unwrap("a", 100, 0)
        assert base.balance("a") == 100
        assert ledger.settle_view("a", 0) == (0, 0)
        assert ledger.base_locked() == 0

    def test_unsettled_cannot_unwrap(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        with pytest.raises(InsufficientSettled):
            ledger.unwrap("a", 100, 3600)
        # after the window it unwraps fine
        ledger.unwrap("a", 100, WINDOW)
        assert base.balance("a") == 100

    def test_disabled(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.disable_unwrap("a")
        with pytest.raises(UnwrapDisabled):
            ledger.unwrap("a", 1, 0)

    def test_unwrap_to_third_party(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.unwrap_to("a", 70, "b", 0)
        assert base.balance("b") == 70
        assert ledger.nonce("b") == 0  # base credit is not a wrapper event


class TestDisableUnwrap:
    def test_idempotent_and_permanent(self, world):
        ledger = world.ledger
        assert not ledger.is_unwrap_disabled("a")
        ledger.disable_unwrap("a")
        ledger.disable_unwrap("a")
        assert ledger.is_unwrap_disabled("a")

    def test_default_enabled_account_can_unwrap(self, world):
        base, ledger = world.base, world.ledger
        base.mint("pool", 10)
        ledger.wrap("pool", 10, 0)
        ledger.unwrap("pool", 10, 0)
        assert base.balance("pool") == 10


class TestTransfer:
    def test_lands_unsettled_with_restarted_window(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.transfer("a", "b", 100, False, 50)
        assert ledger.settle_view("b", 50) == (0, 100)
        assert ledger.settle_view("b", 50 + WINDOW - 1) == (0, 100)
        assert ledger.settle_view("b", 50 + WINDOW) == (100, 0)

    def test_forward_unsettled_immediately(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "b", 100, now=0)
        ledger.transfer("b", "c", 100, True, 0)
        assert ledger.settle_view("b", 0) == (0, 0)
        assert ledger.settle_view("c", 0) == (0, 100)

    def test_settled_only_flag(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "b", 100, now=0)
        with pytest.raises(InsufficientBalance):
            ledger.transfer("b", "c", 100, False, 0)

    def test_spend_order_settled_first_then_oldest(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 10)
        ledger.wrap("a", 10, 0)
        give_unsettled(base, ledger, "a", 20, now=0, source="f1")
        give_unsettled(base, ledger, "a", 30, now=100, source="f2")
        # spends 10 settled, all of the t=0 record, 5 of the t=100 record
        ledger.transfer("a", "b", 35, True, 200)
        acct = ledger.accounts["a"]
        assert acct.settled == 0
        assert [rec.amount for rec in acct.unsettled] == [25]

    def test_merges_into_single_record(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 20, now=0, source="f1")
        give_unsettled(base, ledger, "a", 30, now=0, source="f2")
        ledger.transfer("a", "b", 50, True, 0)
        assert len(ledger.accounts["b"].unsettled) == 1

    def test_self_and_zero(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 10)
        ledger.wrap("a", 10, 0)
        with pytest.raises(SelfTransfer):
            ledger.transfer("a", "a", 5, False, 0)
        with pytest.raises(ZeroAmount):
            ledger.transfer("a", "b", 0, False, 0)

    def test_frozen_portion_unspendable(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        ledger.freeze(ARB, [("a", 60)], "c1", 0)
        with pytest.raises(FrozenFunds):
            ledger.transfer("a", "b", 50, True, 0)
        ledger.transfer("a", "b", 40, True, 0)  # the unfrozen remainder moves


class TestSettleView:
    def test_inclusive_boundary(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        assert ledger.settle_view("a", WINDOW - 1) == (0, 100)
        assert ledger.settle_view("a", WINDOW) == (100, 0)

    def test_two_records_partial_maturity(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        give_unsettled(base, ledger, "a", 20, now=1000, source="f2")
        between = WINDOW + 500
        assert ledger.settle_view("a", between) == (10, 20)

    def test_balance_of(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 5)
        ledger.wrap("a", 5, 0)
        give_unsettled(base, ledger, "a", 10, now=0)
        assert ledger.balance_of("a", False, 0) == 5
        assert ledger.balance_of("a", True, 0) == 15
        assert ledger.balance_of("nobody-here", True, 0) == 0


class TestNonce:
    def test_fresh_is_zero(self, world):
        ledger = world.ledger
        assert ledger.nonce("a") == 0

    def test_wrap_plus_outbound_is_two(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.transfer("a", "b", 50, False, 0)
        assert ledger.nonce("a") == 2

    def test_one_inbound_is_one(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "b", 10, now=0)
        assert ledger.nonce("b") == 1


class TestFreeze:
    def test_reduces_spendable(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "pool", 100, now=0)
        ledger.freeze(ARB, [("pool", 100)], "c1", 0)
        assert ledger.available_unsettled("pool", 0) == 0
        assert ledger.settle_view("pool", 0) == (0, 100)

    def test_not_arbitrator(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "pool", 100, now=0)
        with pytest.raises(NotArbitrator):
            ledger.freeze("eve", [("pool", 100)], "c1", 0)

    def test_insufficient_unsettled(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 80, now=0)
        with pytest.raises(InsufficientUnsettled):
            ledger.freeze(ARB, [("a", 120)], "c1", 0)

    def test_duplicate_case_id(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 80, now=0)
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        with pytest.raises(UnknownCase):
            ledger.freeze(ARB, [("a", 10)], "c1", 0)

    def test_freeze_suspends_maturation(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        ledger.freeze(ARB, [("a", 60)], "c1", 0)
        # window elapses: only the unfrozen 40 settles
        assert ledger.settle_view("a", WINDOW) == (40, 60)
        ledger.release(ARB, "c1", WINDOW)
        assert ledger.settle_view("a", WINDOW) == (100, 0)

    def test_marks_ascending_records(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        give_unsettled(base, ledger, "a", 90, now=100, source="f2")
        ledger.freeze(ARB, [("a", 30)], "c1", 100)
        recs = ledger.accounts["a"].unsettled
        assert [r.frozen_amount for r in recs] == [10, 20]


class TestRecoverRelease:
    def test_recover_credits_victim_settled(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "pool", 100, now=0)
        ledger.freeze(ARB, [("pool", 100)], "c1", 0)
        got = ledger.recover(ARB, "c1", "victim", 0)
        assert got == 100
        assert ledger.settle_view("victim", 0) == (100, 0)
        assert ledger.settle_view("pool", 0) == (0, 0)
        ledger.check_invariants()

    def test_release_restores_balances(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        nonce_before = ledger.nonce("a")
        ledger.freeze(ARB, [("a", 100)], "c1", 0)
        ledger.release(ARB, "c1", 0)
        assert ledger.settle_view("a", 0) == (0, 100)
        assert ledger.available_unsettled("a", 0) == 100
        assert ledger.nonce("a") == nonce_before + 2  # freeze + release touched it

    def test_unknown_case(self, world):
        ledger = world.ledger
        with pytest.raises(UnknownCase):
            ledger.recover(ARB, "ghost", "victim", 0)
        with pytest.raises(UnknownCase):
            ledger.release(ARB, "ghost", 0)

    def test_recover_requires_arbitrator(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0)
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        with pytest.raises(NotArbitrator):
            ledger.recover("eve", "c1", "victim", 0)


class TestPrefixWalks:
    """Folds, spends and recoveries touch only a prefix of the record list
    (or one bisected position) and keep the cached sums in step."""

    def test_matured_frozen_record_stays_at_head_until_release(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        give_unsettled(base, ledger, "a", 20, now=100, source="f2")
        give_unsettled(base, ledger, "a", 30, now=200, source="f3")
        acct = ledger.accounts["a"]
        base.mint("a", 5)
        ledger.wrap("a", 5, WINDOW + 100)  # folds the 20, keeps the frozen 10
        assert [(r.amount, r.frozen_amount) for r in acct.unsettled] == [(10, 10), (30, 0)]
        ledger.transfer("a", "b", 5, False, WINDOW + 150)  # a later fold
        assert [(r.amount, r.frozen_amount) for r in acct.unsettled] == [(10, 10), (30, 0)]
        assert ledger.settle_view("a", WINDOW + 150) == (20, 40)
        ledger.release(ARB, "c1", WINDOW + 150)
        assert ledger.settle_view("a", WINDOW + 150) == (30, 30)
        ledger.transfer("a", "b", 1, False, WINDOW + 150)
        assert [r.amount for r in acct.unsettled] == [30]
        assert (acct.settled, acct.unsettled_sum, acct.frozen_sum) == (29, 30, 0)
        ledger.check_invariants()

    def test_spend_passes_over_a_frozen_record_in_the_middle(self, world):
        base, ledger = world.base, world.ledger
        for i, amount in enumerate((10, 20, 30)):
            give_unsettled(base, ledger, "a", amount, now=i, source=f"f{i}")
        ledger.freeze(ARB, [("a", 10)], "c1", 5)  # marks the first record
        ledger.freeze(ARB, [("a", 20)], "c2", 5)  # marks the second
        ledger.release(ARB, "c1", 5)
        assert ledger.transfer_unsettled("a", "b", 35, 5)
        acct = ledger.accounts["a"]
        assert [(r.transfer_id, r.amount, r.frozen_amount) for r in acct.unsettled] == [
            (2, 20, 20),
            (3, 5, 0),
        ]
        assert ledger.transfer_log[-1].unsettled_spent == 35
        assert (acct.unsettled_sum, acct.frozen_sum) == (25, 20)
        ledger.check_invariants()

    def test_recover_empties_a_record_in_the_middle_of_a_large_account(self, world):
        base, ledger = world.base, world.ledger
        base.mint("f", 1000)
        ledger.wrap("f", 1000, 0)
        for t in range(1000):
            ledger.transfer("f", "a", 1, False, t)
        ledger.freeze(ARB, [("a", 499)], "c1", 1000)  # records 1..499
        ledger.freeze(ARB, [("a", 1)], "c2", 1000)  # record 500
        ledger.release(ARB, "c1", 1000)
        assert ledger.recover(ARB, "c2", "victim", 1000) == 1
        acct = ledger.accounts["a"]
        assert [r.transfer_id for r in acct.unsettled] == [
            *range(1, 500),
            *range(501, 1001),
        ]
        assert (acct.unsettled_sum, acct.frozen_sum) == (999, 0)
        assert ledger.settle_view("victim", 1000) == (1, 0)
        ledger.check_invariants()

    @pytest.mark.parametrize("cached", ["unsettled_sum", "frozen_sum"])
    def test_invariants_catch_a_drifted_sum(self, world, cached):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        ledger.freeze(ARB, [("a", 40)], "c1", 0)
        ledger.check_invariants()
        acct = ledger.accounts["a"]
        setattr(acct, cached, getattr(acct, cached) + 1)
        with pytest.raises(AssertionError, match=cached):
            ledger.check_invariants()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("acct.settled = -3", "a settled negative"),
            ("acct.unsettled_sum += 7", "a unsettled_sum 107 != recount 100"),
            ("idle.frozen_sum = 2", "idle frozen_sum 2 != recount 0"),
            # frozen value that the open case's marks do not explain, with
            # the cached sums kept equal to their recount
            ("acct.unsettled[:] = [first._replace(frozen_amount=5), second._replace(frozen_amount=5)]",
             "a record 1 frozen 5 != 10 marked"),
            ("acct.unsettled[1] = second._replace(frozen_amount=3); acct.frozen_sum += 3",
             "a record 2 frozen 3 != 0 marked"),
            ("acct.unsettled[0] = first._replace(frozen_amount=0); acct.frozen_sum -= 10",
             "a record 1: 10 marked, none frozen"),
        ],
    )
    def test_invariants_are_checked_under_python_O(self, corrupt, message):
        # python -O strips assert statements; check_invariants must not rely
        # on them.  a holds records of 60 and 40, and c1 freezes 10 of the first.
        program = textwrap.dedent(f"""
            from rpoolsim import World
            assert False, "unreachable under -O"
            world = World(recovery_window=10, arbitrator="arb")
            base, ledger = world.base, world.ledger
            base.mint("f", 100)
            ledger.wrap("f", 100, 0)
            ledger.transfer("f", "a", 60, False, 0)
            ledger.transfer("f", "a", 40, False, 0)
            ledger.freeze("arb", [("a", 10)], "c1", 0)
            ledger.disable_unwrap("idle")
            acct, idle = ledger.accounts["a"], ledger.accounts["idle"]
            first, second = acct.unsettled
            ledger.check_invariants()
            {corrupt}
            try:
                ledger.check_invariants()
            except AssertionError as exc:
                print(exc)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", program], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == message


class TestCheckAmount:
    """The fast path for a positive ``int`` changes no outcome."""

    @pytest.mark.parametrize(
        "amount, error",
        [(True, TypeError), (False, TypeError), (1.0, TypeError), (-1, ValueError), (0, ZeroAmount)],
    )
    def test_rejections(self, world, amount, error):
        with pytest.raises(error):
            check_amount(amount)
        base, ledger = world.base, world.ledger
        base.mint("f", 10)
        ledger.wrap("f", 10, 0)
        with pytest.raises(error):
            ledger.transfer("f", "a", amount, False, 0)
        assert "a" not in ledger.accounts

    def test_an_int_subclass_is_returned_unchanged(self):
        class Units(int):
            pass

        amount = Units(7)
        assert check_amount(amount) is amount


class TestRecordOrder:
    """A new record sorts last while the clock never goes back, and is
    appended; only one due before the recipient's last record is inserted
    by bisection."""

    def test_a_clock_that_goes_back_keeps_records_in_order(self, world):
        base, ledger = world.base, world.ledger
        base.mint("f", 3)
        ledger.wrap("f", 3, 0)
        for now in (100, 50, 100):
            ledger.transfer("f", "a", 1, False, now)
        keys = [(r.settlement_time, r.transfer_id) for r in ledger.accounts["a"].unsettled]
        assert keys == [(50 + WINDOW, 2), (100 + WINDOW, 1), (100 + WINDOW, 3)]
        ledger.check_invariants()

    def test_only_an_out_of_order_record_is_inserted_by_bisection(self, world, monkeypatch):
        counting = mock.Mock(wraps=bisect)
        monkeypatch.setattr(rpoolsim.ledger, "bisect", counting)
        base, ledger = world.base, world.ledger
        base.mint("f", 1003)
        ledger.wrap("f", 1003, 0)
        for t in range(1000):
            ledger.transfer("f", "a", 1, False, t)
        ledger.transfer("f", "a", 1, False, 999)  # an equal clock sorts last too
        ledger.transfer("f", "a", 1, False, 1000)
        assert counting.insort.call_count == 0
        ledger.transfer("f", "a", 1, False, 500)
        assert counting.insort.call_count == 1
        keys = [(r.settlement_time, r.transfer_id) for r in ledger.accounts["a"].unsettled]
        assert keys == sorted(keys)
        assert keys[501] == (500 + WINDOW, 1003)
        ledger.check_invariants()


def _tainted_pool_world(world, pool_keep: int, lp_withdraw: int):
    """victim -> mallory -> pool chain, then the pool forwards part to l2."""
    base, ledger = world.base, world.ledger
    give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
    tainted = ledger.transfer_unsettled("mallory", "pool", 100, 10)
    if lp_withdraw:
        ledger.transfer_unsettled("pool", "l2", lp_withdraw, 20)
    assert ledger.available_unsettled("pool", 20) == pool_keep
    return ledger, tainted


class TestPlanRecovery:
    def test_recipient_covers_everything(self, world):
        ledger, tainted = _tainted_pool_world(world, pool_keep=100, lp_withdraw=0)
        assert ledger.plan_recovery(tainted, 100, 20) == [("pool", 100)]

    def test_deficiency_falls_on_recent_withdrawer(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
        give_unsettled(base, ledger, "pool", 100, now=0, source="seed")
        tainted = ledger.transfer_unsettled("mallory", "pool", 100, 10)
        ledger.transfer_unsettled("pool", "l2", 120, 20)
        plan = ledger.plan_recovery(tainted, 100, 20)
        assert plan == [("pool", 80), ("l2", 20)]
        # the plan freezes cleanly by construction
        ledger.freeze(ARB, plan, "c1", 20)

    def test_outflows_before_taint_are_ignored(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "pool", 50, now=0, source="seed")
        ledger.transfer_unsettled("pool", "early", 50, 5)  # pre-taint outflow
        give_unsettled(base, ledger, "mallory", 60, now=6, source="victim")
        tainted = ledger.transfer_unsettled("mallory", "pool", 60, 10)
        ledger.transfer_unsettled("pool", "late", 30, 20)
        ledger.transfer_unsettled("late", "fence", 30, 25)
        # pool keeps 30, the post-taint withdrawer spent everything onward,
        # and "early" (still holding 50) is out of scope: one level, post-taint
        with pytest.raises(Uncoverable):
            ledger.plan_recovery(tainted, 60, 30)
        assert ledger.plan_recovery(tainted, 30, 30) == [("pool", 30)]

    def test_most_recent_outflow_first(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
        tainted = ledger.transfer_unsettled("mallory", "pool", 100, 10)
        ledger.transfer_unsettled("pool", "w1", 30, 20)
        ledger.transfer_unsettled("pool", "w2", 50, 30)
        plan = ledger.plan_recovery(tainted, 100, 30)
        assert plan == [("pool", 20), ("w2", 50), ("w1", 30)]

    def test_totals_exactly_the_request(self, world):
        ledger, tainted = _tainted_pool_world(world, pool_keep=100, lp_withdraw=0)
        for amount in (1, 37, 100):
            plan = ledger.plan_recovery(tainted, amount, 20)
            assert sum(a for _, a in plan) == amount

    def test_amount_above_transfer_rejected(self, world):
        ledger, tainted = _tainted_pool_world(world, pool_keep=100, lp_withdraw=0)
        with pytest.raises(Uncoverable):
            ledger.plan_recovery(tainted, 101, 20)
        with pytest.raises(ValueError):
            ledger.plan_recovery(999, 10, 20)


class TestConservation:
    def test_every_op_conserves(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 1000)
        supply = base.total_supply
        ledger.wrap("a", 600, 0)
        ledger.transfer("a", "b", 250, False, 0)
        ledger.transfer("b", "c", 100, True, 10)
        ledger.freeze(ARB, [("c", 40)], "c1", 20)
        ledger.recover(ARB, "c1", "a", 30)
        ledger.unwrap("a", 100, 40)
        ledger.check_invariants()
        assert base.total_supply == supply


def test_effects_since_folds_every_journal_kind(world):
    # Each fold covers operations made at the time it is read at, as a
    # scenario step's are.
    base, ledger = world.base, world.ledger
    mark = ledger.mark()
    ledger.genesis_settled("a", 100)
    base.mint("b", 50)
    ledger.wrap("b", 30, 0)
    ledger.unwrap_to("a", 10, "c", 0)
    ledger.transfer("a", "b", 40, False, 0)
    ledger.disable_unwrap("c")
    ledger.freeze(ARB, [("b", 15)], "c1", 0)
    ledger.freeze(ARB, [("b", 5)], "c2", 0)
    ledger.recover(ARB, "c2", "b", 0)
    assert ledger.effects_since(mark, 0) == {
        "a": {"settled": 50, "nonce": 2},
        "b": {"base": 20, "settled": 35, "unsettled": 35, "nonce": 6},
        "c": {"base": 10},
    }
    mark = ledger.mark()
    ledger.release(ARB, "c1", WINDOW)  # the frozen record is due by now
    assert ledger.effects_since(mark, WINDOW) == {
        "b": {"settled": 15, "unsettled": -15, "nonce": 1},
    }
    kinds = {entry[0] for entry in ledger.base.journal}
    assert kinds == {
        "genesis_settled", "mint", "wrap", "base_transfer", "unwrap", "transfer",
        "disable_unwrap", "freeze", "release", "recover",
    }


def test_a_transfer_is_one_object_in_journal_log_and_outflows(world):
    # The journal entry of a transfer is its transfer-log row, and the
    # outflow index holds those same objects: no second copy to drift.
    base, ledger = world.base, world.ledger
    pool, rater = make_pool(world)
    give_unsettled(base, ledger, "pool", 100, now=0, source="donor")
    give_unsettled(base, ledger, "mallory", 150, now=0, source="victim")
    pool.swap("mallory", 100, quorum(pool, rater, "mallory", 100, 0, ledger), 0)
    ledger.transfer("mallory", "b", 30, True, 0)
    ledger.transfer_unsettled("b", "c", 20, 0)
    base.mint("d", 5)
    ledger.wrap("d", 5, 0)
    ledger.transfer("d", "c", 5, False, 0)  # settled only: no outflow row
    mark = ledger.mark()
    assert type(mark) is int and mark == len(base.journal)

    transfers = [entry for entry in base.journal if entry[0] == "transfer"]
    assert len(transfers) == len(ledger.transfer_log) == 6
    for transfer_id, (row, entry) in enumerate(zip(ledger.transfer_log, transfers), 1):
        assert row is entry and row.transfer_id == transfer_id
    outflows = [row for rows in ledger._outflows.values() for row in rows]
    assert [row.transfer_id for row in outflows] == [3, 4, 5]  # swap-in, then two
    for row in outflows:
        assert ledger.transfer_log[row.transfer_id - 1] is row
