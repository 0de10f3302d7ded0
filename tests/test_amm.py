"""Automated pool: share accounting, the bonding curve, validated swaps,
and loss socialization."""

import dataclasses

import pytest

from rpoolsim import PoolState, SwapReceipt, settled_multiplier
from rpoolsim.errors import PoolEmptied

from conftest import WINDOW, give_unsettled, loss_sharing_pool, make_pool, quorum, refused


class TestDeposit:
    def test_bootstrap_mints_one_to_one(self, world):
        pool, _ = make_pool(world, lp_deposits=(("lp1", 100),))
        assert pool.lp_holdings == {"lp1": 100}
        assert pool.pool_state(0) == (100, 0, 100, 100)

    def test_fractional_ownership_identity(self, world):
        base, ledger = world.base, world.ledger
        pool, _ = make_pool(world, lp_deposits=(("lp1", 100),))
        # drive the pool to total 150 with supply 200 via a donation + supply split
        pool.lp_holdings["lp1"] = 200
        pool.lp_supply = 200
        give_unsettled(base, ledger, "pool", 50, now=0, source="donor")
        base.mint("newlp", 30)
        minted = pool.deposit("newlp", 30, 0)
        assert minted == 40  # 30 * 200 / 150; 40/240 == 30/180

    def test_new_lp_not_penalized_after_clawback(self, world):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("lp1", 100),))
        total_before = pool.pool_state(0).total
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        ledger.freeze("arb", plan, "c1", 0)
        ledger.recover("arb", "c1", "victim", 0)
        assert pool.pool_state(0).total < total_before  # the pool took a loss
        base.mint("newlp", 30)
        minted = pool.deposit("newlp", 30, 0)
        state = pool.pool_state(0)
        redeemable = minted * state.total // pool.lp_supply
        assert 30 - 2 <= redeemable <= 30

    def test_emptied_pool_refuses_deposit(self, world):
        # A rate-1 swap sells all 100 settled; recovering its inbound leg
        # leaves the pool at total 0 with 100 LP tokens outstanding.
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(
            world, lp_deposits=(("lp1", 100),),
            rate_cap_ppm=1_000_000, rater_rate_ppm=1_000_000,
        )
        give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
        receipt = pool.swap("mallory", 100, quorum(pool, rater, "mallory", 100, 0, ledger), 0)
        assert receipt.amount_out == 100
        ledger.freeze("arb", ledger.plan_recovery(receipt.transfer_in_id, 100, 0), "c1", 0)
        ledger.recover("arb", "c1", "victim", 0)
        assert pool.pool_state(0) == (0, 0, 0, 100)
        base.mint("newlp", 50)
        with refused(world, PoolEmptied):
            pool.deposit("newlp", 50, 0)
        assert (base.balance("newlp"), pool.lp_holdings) == (50, {"lp1": 100})
        # once the worthless tokens are burned the pool bootstraps afresh
        assert pool.withdraw("lp1", 100, 0) == (0, 0)
        assert pool.deposit("newlp", 50, 0) == 50
        assert pool.withdraw("newlp", 50, 0) == (50, 0)

    def test_deposit_minting_no_shares_records_no_holding(self, world):
        # a donation doubles the pool total, so one token buys half a share
        base, ledger = world.base, world.ledger
        pool, _ = make_pool(world, lp_deposits=(("lp1", 100),))
        give_unsettled(base, ledger, "pool", 100, now=0, source="donor")
        base.mint("a", 1)
        assert pool.deposit("a", 1, 0) == 0
        assert (pool.lp_holdings, pool.lp_supply) == ({"lp1": 100}, 100)

    @pytest.mark.parametrize("kappa_ppm", [1, 999_999])
    def test_kappa_just_inside_the_open_interval_accepted(self, world, kappa_ppm):
        pool = world.add_pool(
            "pool", kappa_ppm=kappa_ppm, risk_bounds=(0, 1_000_000),
            min_quorum=1, min_lp_deposit=1,
        )
        assert pool.kappa_ppm == kappa_ppm


class TestWithdraw:
    def test_ten_percent_of_loss_pool(self, world):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("l0", 10), ("big", 90)))
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        ledger.freeze("arb", plan, "c1", 0)
        ledger.recover("arb", "c1", "victim", 0)
        assert pool.withdraw("l0", 10, 0) == (5, 10)

    def test_fifty_percent_pre_recovery(self, world):
        base, ledger, pool, _ = loss_sharing_pool(world, (("l1", 50), ("big", 50)))
        assert pool.withdraw("l1", 50, 0) == (25, 100)

    def test_round_trip_without_swaps(self, world):
        base = world.base
        pool, _ = make_pool(world, lp_deposits=(("lp1", 137),))
        assert pool.withdraw("lp1", 137, 0) == (137, 0)
        assert base.balance("lp1") == 137
        assert pool.lp_supply == 0

    def test_ratio_preserved(self, world):
        base, ledger, pool, _ = loss_sharing_pool(world, (("l1", 50), ("big", 50)))
        before = pool.pool_state(0)
        assert (before.settled, before.unsettled) == (50, 200)
        pool.withdraw("l1", 50, 0)
        after = pool.pool_state(0)
        # settled:unsettled stays exactly 1:4 at these sizes
        assert (after.settled, after.unsettled) == (25, 100)
        assert after.total == before.total - 125


class TestMultiplier:
    def test_saturated(self):
        assert settled_multiplier(100, 100, 500000) == 1_000_000

    def test_half(self):
        assert settled_multiplier(50, 200, 500000) == 500000

    def test_no_settled_liquidity(self):
        assert settled_multiplier(0, 7, 500000) == 0

    def test_empty_pool(self):
        assert settled_multiplier(0, 0, 500000) == 0

    @pytest.mark.parametrize("settled", [201, -1])
    def test_settled_outside_zero_to_total_rejected(self, settled):
        with pytest.raises(ValueError, match=rf"settled {settled} outside \[0, 200\]"):
            settled_multiplier(settled, 200, 500000)

    def test_monotone_in_settled(self):
        values = [settled_multiplier(s, 200, 300000) for s in range(201)]
        assert values == sorted(values)
        assert values[-1] == 1_000_000


class TestSwap:
    def test_worked_example(self, world):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("lp1", 100),))
        assert receipt.amount_out == 50
        assert pool.pool_state(0) == (50, 200, 250, 100)
        assert base.balance("mallory") == 50

    def test_rate_cap_clamps_median(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world, rater_rate_ppm=950000, rate_cap_ppm=500000)
        give_unsettled(base, ledger, "alice", 100, now=0)
        reports = quorum(pool, rater, "alice", 100, 0, ledger)
        receipt = pool.swap("alice", 100, reports, 0)
        assert receipt.median_ppm == 950000
        assert receipt.rate_ppm == 500000
        assert receipt.amount_out == 50

    def test_bonding_curve_discounts_low_settled_pool(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(
            world, lp_deposits=(("lp1", 50),), rate_cap_ppm=1_000_000,
            rater_rate_ppm=1_000_000,
        )
        give_unsettled(base, ledger, "pool", 150, now=0, source="donor")
        # s/v = 50/200 = 0.25, kappa 0.5 -> multiplier 0.5
        give_unsettled(base, ledger, "alice", 40, now=0)
        reports = quorum(pool, rater, "alice", 40, 0, ledger)
        receipt = pool.swap("alice", 40, reports, 0)
        assert receipt.multiplier_ppm == 500000
        assert receipt.rate_ppm == 500000
        assert receipt.amount_out == 20


class TestReceipt:
    def test_a_swap_records_every_field_in_its_place(self, world):
        # every field distinct: pool 200 settled + 200 unsettled at kappa 0.8
        # gives a multiplier of 0.625, and 0.72 * 0.625 = 0.45 is under the cap
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world, kappa_ppm=800_000, rater_rate_ppm=720_000)
        give_unsettled(base, ledger, "pool", 200, now=0, source="donor")  # transfer 1
        give_unsettled(base, ledger, "mallory", 40, now=0)  # transfer 2
        reports = quorum(pool, rater, "mallory", 40, 5, ledger)
        receipt = pool.swap("mallory", 40, reports, 5)
        expected = SwapReceipt(
            requestor="mallory",
            amount_in=40,
            median_ppm=720_000,
            multiplier_ppm=625_000,
            rate_ppm=450_000,
            amount_out=18,
            time=5,
            transfer_in_id=3,
        )
        assert len(set(dataclasses.astuple(expected))) == len(dataclasses.fields(SwapReceipt))
        assert type(receipt) is SwapReceipt
        assert receipt == expected
        assert pool.receipts == [expected]
        fields = ("mallory", 40, 720_000, 625_000, 450_000, 18, 5, 3)
        assert SwapReceipt(*fields) == expected
        assert dataclasses.astuple(SwapReceipt(*fields)) == fields


class TestPoolState:
    def test_self_replenishes_by_exactly_the_swap_amount(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world, lp_deposits=(("lp1", 200),))
        give_unsettled(base, ledger, "alice", 80, now=0)
        reports = quorum(pool, rater, "alice", 80, 0, ledger)
        receipt = pool.swap("alice", 80, reports, 0)
        before = pool.pool_state(receipt.time)
        after = pool.pool_state(receipt.time + WINDOW)
        assert after.settled == before.settled + receipt.amount_in
        assert after.unsettled == 0
        assert after.total == before.total

    def test_matured_pool_plus_donation_all_settles(self, world):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("lp1", 100),))
        before = pool.pool_state(receipt.time)
        after = pool.pool_state(receipt.time + WINDOW)
        assert after.settled == before.settled + before.unsettled
        assert after.unsettled == 0
        assert after.total == before.total

    def test_fresh_pool_after_deposit(self, world):
        pool, _ = make_pool(world, lp_deposits=(("lp1", 42),))
        assert pool.pool_state(0) == (42, 0, 42, 42)

    def test_the_pool_builds_an_exact_pool_state(self, world):
        base, ledger = world.base, world.ledger
        pool, _ = make_pool(world, lp_deposits=(("lp1", 70),))
        give_unsettled(base, ledger, "pool", 30, now=0, source="donor")
        for now in (0, WINDOW):
            state = pool.pool_state(now)
            settled, unsettled = ledger.settle_view("pool", now)
            assert type(state) is PoolState
            assert state == PoolState(
                settled=settled, unsettled=unsettled, total=settled + unsettled, lp_supply=70
            )
            assert state._asdict()["unsettled"] == unsettled
            assert type(state._replace(total=1)) is PoolState
        assert pool.pool_state(0) == (70, 30, 100, 70)

    def test_no_base_rests_at_pool_address(self, world):
        base, ledger, pool, _ = loss_sharing_pool(world, (("l1", 50), ("big", 50)))
        assert base.balance("pool") == 0
        pool.withdraw("l1", 50, 0)
        assert base.balance("pool") == 0


class TestLossSocialization:
    def test_clawback_scales_every_lp_uniformly(self, world):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("l0", 10), ("big", 90)))
        state = pool.pool_state(0)
        before = {
            lp: held * state.total // pool.lp_supply
            for lp, held in pool.lp_holdings.items()
        }
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        ledger.freeze("arb", plan, "c1", 0)
        ledger.recover("arb", "c1", "victim", 0)
        after_state = pool.pool_state(0)
        loss_ratio_num = after_state.total
        loss_ratio_den = state.total
        for lp, held in pool.lp_holdings.items():
            redeemable = held * after_state.total // pool.lp_supply
            expected = before[lp] * loss_ratio_num // loss_ratio_den
            assert abs(redeemable - expected) <= 1
