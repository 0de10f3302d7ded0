"""Wrapper-ledger behavior: wrapping, settlement, transfers, freezes,
recovery, and the recovery-plan deficiency rule."""

import bisect
import inspect
from types import SimpleNamespace
from unittest import mock

import pytest

import rpoolsim.ledger
from rpoolsim import World
from rpoolsim.errors import (
    BadExpiry,
    BidNotOpen,
    ClockWentBack,
    FrozenFunds,
    InsufficientBalance,
    InsufficientBase,
    InsufficientLpTokens,
    InsufficientSettled,
    InsufficientUnsettled,
    NotArbitrator,
    QuorumTooSmall,
    QuoteTooLow,
    RequestMismatch,
    ReservedName,
    RPoolError,
    SelfTransfer,
    Uncoverable,
    UnknownCase,
    UnwrapDisabled,
    ZeroAmount,
)
from rpoolsim.ledger import Transfer, UnsettledRecord, WrapperLedger, check_amount
from rpoolsim.oracle import issue_report
from rpoolsim.rates import PPM, check_rate

from conftest import (
    ARB, WINDOW, assert_unchanged, full_state, give_unsettled, make_pool, quorum, refused,
)


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
        with refused(world, ZeroAmount):
            ledger.wrap("a", 0, 0)

    def test_over_balance(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 50)
        with refused(world, InsufficientBase):
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
        with refused(world, InsufficientSettled):
            ledger.unwrap("a", 100, 3600)
        # after the window it unwraps fine
        ledger.unwrap("a", 100, WINDOW)
        assert base.balance("a") == 100

    def test_disabled(self, world):
        base, ledger = world.base, world.ledger
        base.mint("a", 100)
        ledger.wrap("a", 100, 0)
        ledger.disable_unwrap("a")
        with refused(world, UnwrapDisabled):
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
        with refused(world, InsufficientBalance):
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
        with refused(world, SelfTransfer):
            ledger.transfer("a", "a", 5, False, 0)
        with refused(world, ZeroAmount):
            ledger.transfer("a", "b", 0, False, 0)

    def test_frozen_portion_unspendable(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        ledger.freeze(ARB, [("a", 60)], "c1", 0)
        with refused(world, FrozenFunds):
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

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="recovery window must be non-negative"):
            World(recovery_window=-1, arbitrator=ARB)


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
        with refused(world, NotArbitrator):
            ledger.freeze("eve", [("pool", 100)], "c1", 0)

    def test_insufficient_unsettled(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 80, now=0)
        with refused(world, InsufficientUnsettled):
            ledger.freeze(ARB, [("a", 120)], "c1", 0)

    def test_no_targets_rejected_before_any_write(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 80, now=0)
        with refused(world, ValueError, match="at least one target"):
            ledger.freeze(ARB, [], "c1", 0)

    def test_duplicate_case_id(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 80, now=0)
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        with refused(world, UnknownCase):
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
        assert ledger.cases["c1"].marks == (
            ("a", (WINDOW, 1), 10),
            ("a", (100 + WINDOW, 2), 20),
        )
        # the frozen value leaves the records: the first is gone, 70 of the second is left
        assert ledger.accounts["a"].unsettled == [(100 + WINDOW, 2, 70)]
        ledger.check_invariants()


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
        with refused(world, UnknownCase):
            ledger.recover(ARB, "ghost", "victim", 0)
        with refused(world, UnknownCase):
            ledger.release(ARB, "ghost", 0)

    def test_recover_requires_arbitrator(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0)
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        with refused(world, NotArbitrator):
            ledger.recover("eve", "c1", "victim", 0)


class TestFrozenValueInItsCase:
    """A freeze takes value out of the records and keeps it as the case's
    marks; a release puts each mark back at its key, and a recovery
    touches no record."""

    @pytest.mark.parametrize(
        "held, amount, left",
        [
            (0, 5, [(1, 5), (2, 40), (3, 25)]),
            (0, 10, [(2, 40), (3, 25)]),
            (0, 25, [(2, 25), (3, 25)]),
            (10, 40, [(3, 25)]),
        ],
        ids=["partly frozen", "wholly frozen", "whole then part", "wholly frozen behind c0"],
    )
    def test_a_release_at_the_freeze_time_restores_the_records(self, world, held, amount, left):
        base, ledger = world.base, world.ledger
        for i, value in enumerate((10, 40, 25)):
            give_unsettled(base, ledger, "a", value, now=i, source=f"f{i}")
        if held:
            ledger.freeze(ARB, [("a", held)], "c0", 5)  # holds record 1 throughout
        acct = ledger.accounts["a"]
        before = list(acct.unsettled), acct.unsettled_sum, acct.frozen_sum
        ledger.freeze(ARB, [("a", amount)], "c1", 5)
        assert [(r.transfer_id, r.amount) for r in acct.unsettled] == left
        assert (acct.unsettled_sum, acct.frozen_sum) == (before[1] - amount, held + amount)
        ledger.release(ARB, "c1", 5)
        assert (list(acct.unsettled), acct.unsettled_sum, acct.frozen_sum) == before
        ledger.check_invariants()

    def test_a_release_after_maturity_settles_at_the_next_debit(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        give_unsettled(base, ledger, "a", 20, now=100, source="f2")
        ledger.freeze(ARB, [("a", 15)], "c1", 100)  # all of record 1, 5 of record 2
        acct = ledger.accounts["a"]
        now = WINDOW + 200  # both records are due
        assert ledger.settle_view("a", now) == (15, 15)
        mark = ledger.mark()
        ledger.release(ARB, "c1", now)
        assert ledger.effects_since(mark) == {"a": {"settled": 15, "unsettled": -15, "nonce": 1}}
        # put back at their keys, not yet folded, and read as settled
        assert acct.unsettled == [(WINDOW, 1, 10), (100 + WINDOW, 2, 20)]
        assert acct.settled == 0
        assert ledger.settle_view("a", now) == (30, 0)
        ledger.transfer("a", "b", 1, False, now)
        assert (acct.settled, acct.unsettled, acct.unsettled_sum) == (29, [], 0)
        ledger.check_invariants()

    def test_a_recovery_touches_no_record(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        give_unsettled(base, ledger, "a", 20, now=1, source="f2")
        ledger.freeze(ARB, [("a", 15)], "c1", 1)
        acct = ledger.accounts["a"]
        records = list(acct.unsettled)
        assert records == [(1 + WINDOW, 2, 15)]
        assert ledger.recover(ARB, "c1", "victim", 2) == 15
        assert acct.unsettled == records
        assert (acct.unsettled_sum, acct.frozen_sum) == (15, 0)
        assert ledger.settle_view("victim", 2) == (15, 0)
        ledger.check_invariants()

    def test_the_backing_counts_frozen_value_while_a_case_is_open(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 100, now=0)
        ledger.freeze(ARB, [("a", 100)], "c1", 0)
        assert ledger.accounts["a"].unsettled == []
        assert ledger.wrapped_total() == ledger.base_locked() == 100
        ledger.recover(ARB, "c1", "victim", 0)
        assert ledger.wrapped_total() == ledger.base_locked() == 100

    def test_a_wholly_frozen_record_is_held_while_its_case_is_open(self, world):
        base, ledger = world.base, world.ledger
        t1 = give_unsettled(base, ledger, "a", 10, now=0)
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        assert ledger.accounts["a"].unsettled == []
        assert ledger.holds_record_from("a", t1, 0)
        assert ledger.holds_record_from("a", t1, WINDOW + 5)  # due, but frozen
        assert not ledger.holds_record_from("b", t1, 0)
        ledger.recover(ARB, "c1", "victim", 0)
        assert not ledger.holds_record_from("a", t1, 0)


class TestPrefixWalks:
    """Folds, spends and freezes touch only a prefix of the record list, a
    release one bisected position per mark, and a recovery no record; each
    keeps the cached sums in step."""

    def test_a_wholly_frozen_record_is_reinserted_at_its_key_on_release(self, world):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        give_unsettled(base, ledger, "a", 20, now=100, source="f2")
        give_unsettled(base, ledger, "a", 30, now=200, source="f3")
        acct = ledger.accounts["a"]
        assert [r.transfer_id for r in acct.unsettled] == [2, 3]
        base.mint("a", 5)
        ledger.wrap("a", 5, WINDOW + 100)  # a credit folds nothing; the frozen 10 is in c1
        assert acct.unsettled == [(100 + WINDOW, 2, 20), (200 + WINDOW, 3, 30)]
        ledger.transfer("a", "b", 5, False, WINDOW + 150)  # a debit folds the 20
        assert acct.unsettled == [(200 + WINDOW, 3, 30)]
        assert ledger.settle_view("a", WINDOW + 150) == (20, 40)
        ledger.release(ARB, "c1", WINDOW + 150)
        # back at its key, ahead of the later record, and due already
        assert acct.unsettled == [(WINDOW, 1, 10), (200 + WINDOW, 3, 30)]
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
        assert [(r.transfer_id, r.amount) for r in acct.unsettled] == [(3, 5)]
        assert ledger.cases["c2"].marks == (("a", (1 + WINDOW, 2), 20),)
        assert ledger.transfer_log[-1].unsettled_spent == 35
        assert (acct.unsettled_sum, acct.frozen_sum) == (5, 20)
        assert ledger.settle_view("a", 5) == (0, 25)
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


class TestOnePassTransfer:
    """A transfer or an unwrap reads its sender once and folds it only when
    the oldest record is due; a settled-only spend is taken in place."""

    @pytest.mark.parametrize(
        "spend, error",
        [
            (lambda ledger, now: ledger.transfer("a", "b", 10, False, now), InsufficientBalance),
            (lambda ledger, now: ledger.unwrap_to("a", 10, "b", now), InsufficientSettled),
        ],
        ids=["transfer", "unwrap_to"],
    )
    def test_the_only_record_is_spendable_from_its_due_time(self, world, spend, error):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0)  # due at WINDOW
        with refused(world, error):
            spend(ledger, WINDOW - 1)
        spend(ledger, WINDOW)
        acct = ledger.accounts["a"]
        assert (acct.settled, acct.unsettled, acct.unsettled_sum, acct.nonce) == (0, [], 0, 2)
        assert ledger.balance_of("b", True, WINDOW) + base.balance("b") == 10
        ledger.check_invariants()

    @pytest.mark.parametrize(
        "spend",
        [
            lambda ledger, now: ledger.transfer("a", "b", 20, False, now),
            lambda ledger, now: ledger.transfer("a", "b", 20, True, now),
            lambda ledger, now: ledger.unwrap_to("a", 20, "b", now),
        ],
        ids=["settled", "settled+unsettled", "unwrap_to"],
    )
    def test_wholly_frozen_due_value_does_not_stop_the_fold(self, world, spend):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        give_unsettled(base, ledger, "a", 20, now=100, source="f2")
        spend(ledger, WINDOW + 100)  # both are due; only the unfrozen 20 moves
        acct = ledger.accounts["a"]
        assert acct.unsettled == []
        assert (acct.settled, acct.unsettled_sum, acct.frozen_sum) == (0, 0, 10)
        assert ledger.cases["c1"].marks == (("a", (WINDOW, 1), 10),)
        assert ledger.settle_view("a", WINDOW + 100) == (0, 10)
        ledger.check_invariants()

    def test_the_ledger_builds_exact_records_and_transfer_rows(self, world):
        base, ledger = world.base, world.ledger
        for i, amount in enumerate((10, 20, 30)):
            give_unsettled(base, ledger, "a", amount, now=i, source=f"f{i}")
        ledger.freeze(ARB, [("a", 15)], "c1", 5)  # marks 10 and 5 of 20
        ledger.freeze(ARB, [("a", 5)], "c2", 5)  # marks 5 more of 20
        ledger.transfer_unsettled("a", "b", 12, 5)  # leaves 8 of 20 and 30
        ledger.release(ARB, "c2", 5)
        ledger.transfer("a", "b", 3, True, WINDOW + 1)  # folds around the frozen 10
        ledger.recover(ARB, "c1", "victim", WINDOW + 1)
        records = [rec for acct in ledger.accounts.values() for rec in acct.unsettled]
        assert {rec.transfer_id for rec in records} == {3, 4, 5}
        for rec in records:
            assert type(rec) is UnsettledRecord
            assert rec == UnsettledRecord(*rec)
            assert rec._replace(amount=1) == UnsettledRecord(*rec[:2], 1)
        assert len(ledger.transfer_log) == 5
        for row in ledger.transfer_log:
            assert type(row) is Transfer
            assert row == Transfer(*row)
            assert type(row._replace(amount=1)) is Transfer
        ledger.check_invariants()


class TestFoldGuards:
    """A freeze folds each target only when the account's oldest record is
    due: due exactly at ``now`` it is folded, due at ``now + 1`` it is left.
    A recovery credits its victim and folds nothing, due or not.  A refused
    call folds nothing."""

    @pytest.mark.parametrize(
        "now, settled, records, marks",
        [
            (WINDOW, 10, [(WINDOW + 5, 2, 15)], (("a", (WINDOW + 5, 2), 5),)),
            (WINDOW - 1, 0, [(WINDOW, 1, 5), (WINDOW + 5, 2, 20)], (("a", (WINDOW, 1), 5),)),
        ],
        ids=["due-at-now", "due-at-now+1"],
    )
    def test_a_freeze_target(self, world, now, settled, records, marks):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "a", 10, now=0, source="f1")  # due at WINDOW
        give_unsettled(base, ledger, "a", 20, now=5, source="f2")  # due at WINDOW + 5
        mark = ledger.mark()
        with refused(world, InsufficientUnsettled):
            ledger.freeze(ARB, [("a", 31 - settled)], "c1", now)  # one above what is freezable

        ledger.freeze(ARB, [("a", 5)], "c1", now)
        assert ledger.settle_view("a", now) == (settled, 30 - settled)
        assert ledger.accounts["a"].unsettled == records
        assert ledger.accounts["a"].settled == settled
        assert ledger.cases["c1"].marks == marks
        assert ledger.nonce("a") == 3
        assert ledger.effects_since(mark) == {"a": {"nonce": 1}}
        ledger.check_invariants()

    @pytest.mark.parametrize(
        "now, view", [(WINDOW, (17, 0)), (WINDOW - 1, (10, 7))], ids=["due-at-now", "due-at-now+1"]
    )
    def test_a_recovery_victim(self, world, now, view):
        base, ledger = world.base, world.ledger
        give_unsettled(base, ledger, "v", 7, now=0, source="f1")  # due at WINDOW
        give_unsettled(base, ledger, "a", 10, now=0, source="f2")
        ledger.freeze(ARB, [("a", 10)], "c1", 0)
        mark = ledger.mark()
        with refused(world, NotArbitrator):
            ledger.recover("mallory", "c1", "v", now)
        with refused(world, UnknownCase):
            ledger.recover(ARB, "c2", "v", now)

        assert ledger.recover(ARB, "c1", "v", now) == 10
        assert ledger.settle_view("v", now) == view
        assert ledger.accounts["v"].unsettled == [(WINDOW, 1, 7)]
        assert ledger.accounts["v"].settled == 10  # only the credit, due or not
        assert ledger.nonce("v") == 2
        assert ledger.effects_since(mark) == {
            "a": {"unsettled": -10, "nonce": 1},
            "v": {"settled": 10, "nonce": 1},
        }
        ledger.check_invariants()


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
        with refused(world, error):
            ledger.transfer("f", "a", amount, False, 0)
        assert "a" not in ledger.accounts

    def test_an_int_subclass_is_returned_unchanged(self):
        class Units(int):
            pass

        amount = Units(7)
        assert check_amount(amount) is amount


class TestCheckRate:
    """The fast path for an ``int`` in [0, PPM] changes no outcome: every
    other value gets the same refusal, class and message, as before it."""

    @pytest.mark.parametrize(
        "rate, error, message",
        [
            (True, TypeError, "kappa must be an integer ppm value, got True"),
            (1.0, TypeError, "kappa must be an integer ppm value, got 1.0"),
            ("1", TypeError, "kappa must be an integer ppm value, got '1'"),
            (-1, ValueError, "kappa -1 ppm outside [0, 1000000]"),
            (PPM + 1, ValueError, "kappa 1000001 ppm outside [0, 1000000]"),
        ],
    )
    def test_rejections(self, rate, error, message):
        with pytest.raises(error) as refused:
            check_rate(rate, "kappa")
        assert type(refused.value) is error and str(refused.value) == message

    @pytest.mark.parametrize("rate", [0, PPM])
    def test_the_bounds_are_accepted(self, rate):
        assert check_rate(rate) is rate

    def test_an_int_subclass_is_returned_unchanged(self):
        class Ppm(int):
            pass

        rate = Ppm(7)
        assert check_rate(rate) is rate
        with pytest.raises(ValueError, match=r"rate 1000001 ppm outside"):
            check_rate(Ppm(PPM + 1))


class TestRecordOrder:
    """The clock never goes back, so a new record sorts last and is
    appended; only a release, which puts a mark back at its key, inserts
    by bisection."""

    def test_a_clock_that_goes_back_keeps_records_in_order(self, world):
        base, ledger = world.base, world.ledger
        base.mint("f", 3)
        ledger.wrap("f", 3, 0)
        ledger.transfer("f", "a", 1, False, 100)
        with refused(world, ClockWentBack):
            ledger.transfer("f", "a", 1, False, 50)
        ledger.transfer("f", "a", 1, False, 100)
        keys = [(r.settlement_time, r.transfer_id) for r in ledger.accounts["a"].unsettled]
        assert keys == [(100 + WINDOW, 1), (100 + WINDOW, 2)]
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
        with refused(world, ClockWentBack):
            ledger.transfer("f", "a", 1, False, 500)
        ledger.freeze(ARB, [("a", 2)], "c1", 1000)  # marks the two oldest records
        assert counting.bisect_left.call_count == 0
        ledger.release(ARB, "c1", 1000)
        assert counting.bisect_left.call_count == 2  # one per mark
        keys = [(r.settlement_time, r.transfer_id) for r in ledger.accounts["a"].unsettled]
        assert keys == sorted(keys)
        assert keys[:2] == [(WINDOW, 1), (1 + WINDOW, 2)]
        assert len(keys) == 1002
        ledger.check_invariants()


#: a value for each parameter, other than ``now``, of a ledger method that takes ``now``
_CLOCK_ARGS = {
    "account": "a", "caller": "a", "sender": "a", "recipient": "b", "to": "b", "victim": "v",
    "amount": 1, "include_unsettled": True, "transfer_id": 1, "tainted_transfer_id": 1,
    "targets": [("a", 1)], "case_id": "c2",
}

#: every public ledger method that takes ``now``, operations and views
_TAKES_NOW = sorted(
    name
    for name, method in vars(WrapperLedger).items()
    if inspect.isfunction(method)
    and not name.startswith("_")
    and "now" in inspect.signature(method).parameters
)


def _clock_at_100(world):
    """``a`` holds 10 settled and 19 unsettled, plus 5 frozen in case ``c1``;
    the latest operation, at 100, is ``a``'s transfer 2 to ``b``."""
    base, ledger = world.base, world.ledger
    give_unsettled(base, ledger, "a", 24, now=0)
    base.mint("a", 10)
    ledger.wrap("a", 10, 0)
    ledger.freeze(ARB, [("a", 5)], "c1", 50)
    ledger.transfer("a", "b", 1, True, 100)
    assert ledger.clock == 100
    return ledger


def _pool_and_book_at_50(world):
    """The pool of :func:`make_pool` and its rater, ``mallory``'s report on
    (mallory, 10) issued at 0, a book holding ``alice``'s open bid 1 for 40
    at 0.5 until 90, and ``lp`` holding 20 base; the clock at 50."""
    base, ledger = world.base, world.ledger
    pool, rater = make_pool(world)
    give_unsettled(base, ledger, "mallory", 10, now=0)
    report = issue_report(rater, world.registry, "mallory", 10, 0, 600, ledger)
    book = world.add_book("ob")
    give_unsettled(base, ledger, "alice", 40, now=0, source="f2")
    book.post_bid("alice", 40, 500_000, 90, 0)
    base.mint("lp", 20)
    give_unsettled(base, ledger, "other", 1, now=50, source="f3")
    return SimpleNamespace(pool=pool, book=book, rater=rater, report=report)


def _report(at, ttl, now):
    """``at.rater``'s report on (mallory, 10) for ``at.pool``, valid for ``ttl``."""
    return issue_report(at.rater, at.pool.registry, "mallory", 10, now, ttl, at.pool.ledger)


#: a pool, book or oracle call with a faulty argument -> the error it
#: raises at the clock; before the clock each raises ClockWentBack instead
_FAULTY_POOL_AND_BOOK_CALLS = {
    "swap-zero": (lambda at, now: at.pool.swap("mallory", 0, [at.report], now), ZeroAmount),
    "swap-no-reports": (lambda at, now: at.pool.swap("mallory", 10, [], now), QuorumTooSmall),
    "swap-mismatch": (lambda at, now: at.pool.swap("mallory", 9, [at.report], now),
                      RequestMismatch),
    "deposit-zero": (lambda at, now: at.pool.deposit("lp1", 0, now), ZeroAmount),
    "withdraw-too-many": (lambda at, now: at.pool.withdraw("lp1", 101, now),
                          InsufficientLpTokens),
    "post-bid-expiry": (lambda at, now: at.book.post_bid("alice", 1, 0, now, now), BadExpiry),
    "post-bid-rate": (lambda at, now: at.book.post_bid("alice", 1, 2 * PPM, 90, now),
                      ValueError),
    "match-low-offer": (lambda at, now: at.book.match_bid("lp", 1, 19, now), QuoteTooLow),
    "match-unknown-bid": (lambda at, now: at.book.match_bid("lp", 9, 20, now), BidNotOpen),
    "report-zero-ttl": (lambda at, now: _report(at, 0, now), BadExpiry),
    "report-negative-ttl": (lambda at, now: _report(at, -1, now), BadExpiry),
}


class TestClock:
    """The ledger's clock is the latest ``now`` an accepted operation used,
    from 0.  Every public method that takes ``now`` refuses an earlier one
    before any other check and any write; only an accepted operation moves
    the clock."""

    def test_the_methods_that_take_now_are_found(self, world):
        views = {"settle_view", "balance_of", "available_unsettled", "holds_record_from"}
        operations = {"wrap", "unwrap", "unwrap_to", "transfer", "transfer_unsettled",
                      "freeze", "recover", "release", "plan_recovery"}
        assert views | operations <= set(_TAKES_NOW)
        assert world.ledger.clock == 0

    @pytest.mark.parametrize("name", _TAKES_NOW)
    def test_a_call_before_the_clock_is_refused_first(self, world, name):
        ledger = _clock_at_100(world)
        method = getattr(ledger, name)
        args = {p: _CLOCK_ARGS[p] for p in inspect.signature(method).parameters if p != "now"}
        with refused(world, ClockWentBack):
            method(**args, now=99)
        before = world.snapshot()
        try:  # at the clock, the same call is not refused for its time
            method(**args, now=100)
        except RPoolError as exc:
            assert not isinstance(exc, ClockWentBack)
            assert_unchanged(world, before)

    def test_a_negative_time_is_before_the_genesis_clock(self, world):
        world.base.mint("a", 1)
        with refused(world, ClockWentBack):
            world.ledger.wrap("a", 1, -1)
        with refused(world, ClockWentBack):
            world.ledger.settle_view("a", -1)
        assert (world.ledger.accounts, world.ledger.clock) == ({}, 0)

    def test_a_view_after_the_clock_leaves_it(self, world):
        ledger = _clock_at_100(world)
        later = 100 + 2 * WINDOW
        assert ledger.settle_view("a", later) == (28, 5)  # the frozen 5 reads unsettled
        assert ledger.balance_of("a", True, later) == 33
        assert ledger.available_unsettled("a", later) == 0
        assert ledger.holds_record_from("a", 1, later)  # its marked part is frozen
        assert ledger.plan_recovery(2, 1, 150) == [("b", 1)]
        assert ledger.clock == 100

    @pytest.mark.parametrize(
        "reject, error",
        [
            (lambda ledger: ledger.wrap("a", 0, 200), ZeroAmount),
            (lambda ledger: ledger.wrap("a", 1, 200), InsufficientBase),
            (lambda ledger: ledger.unwrap("a", 11, 200), InsufficientSettled),
            (lambda ledger: ledger.transfer("a", "b", 30, True, 200), FrozenFunds),
            (lambda ledger: ledger.transfer("a", ARB, 1, False, 200), ReservedName),
            (lambda ledger: ledger.freeze("a", [("a", 1)], "c2", 200), NotArbitrator),
            (lambda ledger: ledger.freeze(ARB, [("a", 20)], "c2", 200), InsufficientUnsettled),
            (lambda ledger: ledger.recover(ARB, "c1", ARB, 200), ReservedName),
            (lambda ledger: ledger.release(ARB, "c2", 200), UnknownCase),
        ],
        ids=["zero", "base", "settled", "frozen", "reserved-recipient", "arbitrator",
             "unsettled", "reserved-victim", "case"],
    )
    def test_a_rejected_operation_leaves_the_clock(self, world, reject, error):
        ledger = _clock_at_100(world)
        with refused(world, error):
            reject(ledger)
        ledger.release(ARB, "c1", 200)
        assert ledger.clock == 200

    def test_an_acceptable_swap_before_the_clock_is_refused(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world)
        give_unsettled(base, ledger, "mallory", 10, now=0)
        reports = quorum(pool, rater, "mallory", 10, 0, ledger)
        give_unsettled(base, ledger, "other", 1, now=5, source="f2")
        with refused(world, ClockWentBack, state=full_state):
            pool.swap("mallory", 10, reports, 4)
        assert pool.swap("mallory", 10, reports, 5).amount_out == 5

    def test_an_acceptable_match_before_the_clock_is_refused(self, world):
        base, ledger = world.base, world.ledger
        book = world.add_book("ob")
        give_unsettled(base, ledger, "alice", 40, now=0)
        book.post_bid("alice", 40, 500_000, 90, 0)
        base.mint("lp", 20)
        give_unsettled(base, ledger, "other", 1, now=5, source="f2")
        with refused(world, ClockWentBack, state=full_state):
            book.match_bid("lp", 1, 20, 4)
        assert book.match_bid("lp", 1, 20, 5).base_paid == 20

    @pytest.mark.parametrize("call", _FAULTY_POOL_AND_BOOK_CALLS)
    def test_a_pool_or_book_call_checks_the_clock_before_its_arguments(self, world, call):
        faulty, error = _FAULTY_POOL_AND_BOOK_CALLS[call]
        at = _pool_and_book_at_50(world)
        with refused(world, ClockWentBack):
            faulty(at, 49)
        with refused(world, error):  # at the clock, the call's own fault is found
            faulty(at, 50)

    def test_a_withdraw_refused_for_frozen_value_leaves_the_clock(self, world):
        base, ledger = world.base, world.ledger
        pool, _ = make_pool(world, lp_deposits=(("lp1", 100),))
        give_unsettled(base, ledger, "pool", 100, now=0, source="donor")
        ledger.freeze(ARB, [("pool", 100)], "c1", 0)
        with refused(world, FrozenFunds, state=full_state):
            pool.withdraw("lp1", 100, 5)

    @pytest.mark.parametrize("name", ["match_bid", *_TAKES_NOW])
    @pytest.mark.parametrize("writer", ["post_bid", "zero_withdraw"])
    def test_a_call_before_a_book_or_pool_write_is_refused(self, world, writer, name):
        # posting a bid and a withdrawal that pays (0, 0) make no ledger
        # entry, so each stores its time as the clock itself
        book = _clock_at_150(world, writer)
        if name == "match_bid":
            method, args = book.match_bid, {"lp": "lp", "bid_id": 1, "offered_base": 5}
        else:
            method = getattr(world.ledger, name)
            args = {p: _CLOCK_ARGS[p] for p in inspect.signature(method).parameters if p != "now"}
        with refused(world, ClockWentBack, state=full_state):
            method(**args, now=149)
        before = world.snapshot()
        try:  # at the clock, the same call is not refused for its time
            method(**args, now=150)
        except RPoolError as exc:
            assert not isinstance(exc, ClockWentBack)
            assert_unchanged(world, before)


def _clock_at_150(world, writer):
    """A pool that clawbacks emptied (total 0, ``lp1`` holding all 100 LP
    tokens), then :func:`_clock_at_100`, a book and ``lp`` holding the base
    to fill its bid 1, ``a``'s bid for 10; at 150 the one write ``writer``
    that makes no ledger entry: that bid's posting, or ``lp1`` withdrawing
    one LP token for ``(0, 0)`` after a bid posted at 100."""
    base, ledger = world.base, world.ledger
    pool, rater = make_pool(world, lp_deposits=(("lp1", 100),), rate_cap_ppm=PPM,
                            rater_rate_ppm=PPM)
    give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
    receipt = pool.swap("mallory", 100, quorum(pool, rater, "mallory", 100, 0, ledger), 0)
    ledger.freeze(ARB, [("pool", 100)], "p1", 0)
    ledger.recover(ARB, "p1", "victim", 0)
    assert (receipt.amount_out, pool.pool_state(0)) == (100, (0, 0, 0, 100))
    _clock_at_100(world)
    book = world.add_book("ob")
    base.mint("lp", 5)
    if writer == "post_bid":
        book.post_bid("a", 10, 500_000, 300, 150)
    else:
        book.post_bid("a", 10, 500_000, 300, 100)
        assert pool.withdraw("lp1", 1, 150) == (0, 0)
    assert ledger.clock == 150
    return book


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
        with refused(world, Uncoverable):
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
        with refused(world, Uncoverable):
            ledger.plan_recovery(tainted, 101, 20)
        with refused(world, ValueError):
            ledger.plan_recovery(999, 10, 20)

    def test_unknown_transfer_ids_next_to_the_log(self, world):
        # the ids just outside 1..len(transfer_log): no IndexError, no
        # wrap-around to the log's last row, and nothing written
        ledger, _ = _tainted_pool_world(world, pool_keep=100, lp_withdraw=0)
        for transfer_id in (len(ledger.transfer_log) + 1, 0):
            with refused(world, ValueError, match=f"unknown transfer id {transfer_id}"):
                ledger.plan_recovery(transfer_id, 10, 20)


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
    # Each rule reads maturity at its own entry's time: the release below
    # is at WINDOW, when the record it unfreezes is due.
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
    assert ledger.effects_since(mark) == {
        "a": {"settled": 50, "nonce": 2},
        "b": {"base": 20, "settled": 35, "unsettled": 35, "nonce": 6},
        "c": {"base": 10},
    }
    mark = ledger.mark()
    ledger.release(ARB, "c1", WINDOW)  # the frozen record is due by now
    assert ledger.effects_since(mark) == {
        "b": {"settled": 15, "unsettled": -15, "nonce": 1},
    }
    kinds = {entry[0] for entry in ledger.base.journal}
    assert kinds == {
        "genesis_settled", "mint", "wrap", "base_transfer", "unwrap", "transfer",
        "disable_unwrap", "freeze", "release", "recover",
    }


def test_effects_since_reads_each_entrys_own_time(world):
    # One fold over entries at 0 and at WINDOW: the transfer at 0 lands
    # unsettled, and only the frozen part the release at WINDOW lifts
    # counts as settled, though at WINDOW the whole record is due.
    ledger = world.ledger
    ledger.genesis_settled("a", 100)
    mark = ledger.mark()
    ledger.transfer("a", "b", 40, False, 0)
    ledger.freeze(ARB, [("b", 15)], "c1", 0)
    ledger.release(ARB, "c1", WINDOW)
    assert ledger.effects_since(mark) == {
        "a": {"settled": -40, "nonce": 1},
        "b": {"settled": 15, "unsettled": 25, "nonce": 3},
    }
    assert ledger.settle_view("b", WINDOW) == (40, 0)


def test_effects_since_drops_changes_that_net_to_zero(world):
    # In one fold, b's base goes out to c and comes back while b receives a
    # transfer: only b's base key is dropped, and the rest keep the order of
    # their first change.  a's transfer spends no unsettled record, so its
    # zero unsettled change between settled and nonce is dropped too.  c's
    # only change nets to 0, so c is dropped.
    base, ledger = world.base, world.ledger
    ledger.genesis_settled("a", 100)
    base.mint("b", 50)
    mark = ledger.mark()
    base.transfer("b", "c", 20)
    ledger.transfer("a", "b", 40, False, 0)
    base.transfer("c", "b", 20)
    effects = ledger.effects_since(mark)
    assert effects == {"a": {"settled": -40, "nonce": 1}, "b": {"unsettled": 40, "nonce": 1}}
    assert [list(fields) for fields in effects.values()] == [
        ["settled", "nonce"], ["unsettled", "nonce"]
    ]


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
