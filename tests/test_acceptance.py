"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact — integer equality, exact-rational bounds, or a
stated unit slack — and the whole module is budgeted to run in well under a
minute.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rpoolsim import (
    ConstantRiskModel,
    World,
    end_to_end_attack_replay,
    exact_profit,
    issue_report,
    profitability_threshold,
    settled_multiplier,
    simulate_attack,
)
from rpoolsim.errors import RPoolError, StaleNonce
from rpoolsim.rates import PPM

from conftest import ARB, WINDOW, criterion6_grid, give_unsettled, loss_sharing_pool, quorum
from naive_ledger import assert_matches, replay


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_recovery_scenario_one(world):
    with criterion(1, "recovery scenario 1: post-clawback 10% withdrawal is (5, 10)"):
        start = time.perf_counter()
        base, ledger, pool, receipt = loss_sharing_pool(world, (("l0", 10), ("big", 90)))
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        ledger.freeze(ARB, plan, "case", 0)
        ledger.recover(ARB, "case", "victim", 0)
        assert pool.pool_state(0)[:3] == (50, 100, 150)
        assert pool.withdraw("l0", 10, 0) == (5, 10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_recovery_scenario_two(world):
    with criterion(2, "recovery scenario 2: pre-clawback 50% withdrawal is (25, 100), withdrawer untouched"):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("l1", 50), ("big", 50)))
        assert pool.withdraw("l1", 50, 0) == (25, 100)
        untouched = (base.balance("l1"), ledger.settle_view("l1", 0), ledger.nonce("l1"))
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        assert plan == [("pool", 100)]  # covered entirely by the pool
        ledger.freeze(ARB, plan, "case", 0)
        assert ledger.recover(ARB, "case", "victim", 0) == 100
        assert (base.balance("l1"), ledger.settle_view("l1", 0), ledger.nonce("l1")) == untouched


def test_criterion_3_recovery_scenario_three(world):
    with criterion(3, "recovery scenario 3: 60% withdrawal is (30, 120); plan is [(pool, 80), (l2, 20)]"):
        base, ledger, pool, receipt = loss_sharing_pool(world, (("l2", 60), ("big", 40)))
        assert pool.withdraw("l2", 60, 0) == (30, 120)
        plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
        assert plan == [("pool", 80), ("l2", 20)]
        ledger.freeze(ARB, plan, "case", 0)
        assert ledger.recover(ARB, "case", "victim", 0) == 100
        assert ledger.settle_view("victim", 0) == (100, 0)
        assert ledger.settle_view("l2", 0) == (0, 100)  # 120 minus the 20 share


def test_criterion_4_bonding_curve_values():
    with criterion(4, "bonding curve: (100,100)->1, (50,200)->0.5, (0,v)->0, ppm-exact"):
        assert settled_multiplier(100, 100, 500000) == 1_000_000
        assert settled_multiplier(50, 200, 500000) == 500_000
        for total in (1, 7, 100, 10**6):
            assert settled_multiplier(0, total, 500000) == 0


def test_criterion_5_shorting_thresholds():
    with criterion(5, "thresholds: full short 500000 ppm, tenth short 909090 ppm"):
        for supply in (1, 10, 1000, 10**6):
            assert profitability_threshold(supply, supply) == 500000
        tenth = profitability_threshold(10**6, 10**5)
        assert tenth == 909090
        assert abs(Fraction(tenth, PPM) - Fraction(10, 11)) <= Fraction(1, PPM)


#: sha256 over every criterion 6 cell's two exact profits, integer model and
#: live replay, so a change to any of them fails here and not only in the
#: benchmark's digest
CRITERION_6_OUTPUTS = "73a9808bc07375edc3851cd38f4a3b7ce10a0ce289e4b69d61dc4a7bcc1cd796"


def test_criterion_6_bound_soundness_sweep():
    with criterion(
        6, "attack bound sweep: >= 10^4 scenarios, zero violations, live replay == integer model"
    ):
        start = time.perf_counter()
        checked = 0
        outputs = hashlib.sha256()
        for scenario, rate in criterion6_grid():
            profit = exact_profit(scenario, rate=rate)
            assert profit <= scenario.stolen, (
                f"violation at L={scenario.lp_supply} l={scenario.shorted} rate={rate}"
            )
            analytic = simulate_attack(scenario)
            # the gap is the attack docstring's rounding identity: integer
            # rounding never overstates the exact profit, and understates it
            # by less than four token units
            total, supply, short = scenario.pool_total, scenario.lp_supply, scenario.shorted
            payout = analytic.swap_out
            d1 = Fraction(scenario.stolen * scenario.rate_ppm, PPM) - payout
            d2 = Fraction(short * total, supply) - analytic.sale_proceeds
            d3 = analytic.buyback_cost - Fraction(short * (total - payout), supply)
            assert 0 <= d1 < 1 and 0 <= d2 < 1 and 0 <= d3 < 1
            exact = exact_profit(scenario)
            gap = exact - analytic.profit
            assert gap == d1 * (1 + Fraction(short, supply)) + d2 + d3
            assert 0 <= gap < 4
            live = end_to_end_attack_replay(scenario)
            assert live == analytic
            outputs.update(repr((str(profit), str(exact), tuple(analytic), tuple(live))).encode())
            checked += 1
        assert checked >= 10_000, checked
        assert outputs.hexdigest() == CRITERION_6_OUTPUTS
        assert time.perf_counter() - start < 30.0


def _flashloan_world(rate_ppm):
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    pool = world.add_pool(
        "pool", kappa_ppm=500000, risk_bounds=(0, PPM),
        min_quorum=1, min_lp_deposit=1, rate_cap_ppm=PPM,
    )
    rater = world.add_signer("lp0", ConstantRiskModel(rate_ppm))
    base.mint("lp0", 400)
    pool.deposit("lp0", 400, 0)
    give_unsettled(base, ledger, "alice", 120, now=0)
    base.mint("alice", 50)
    base.mint("mallory", 80)
    give_unsettled(base, ledger, "mallory", 60, now=0, source="m-src")
    return world, pool, rater


def test_criterion_7_flash_loan_rejection():
    with criterion(7, "flash-loan defense: 1000+ interleavings all StaleNonce, state unchanged"):
        rng = random.Random(0xF1A5)
        rejected = 0
        for i in range(1000):
            world, pool, rater = _flashloan_world(rng.randrange(0, PPM + 1))
            base, ledger = world.base, world.ledger
            reports = quorum(pool, rater, "alice", 100, 0, ledger)
            # one random ledger event touches alice before the swap lands
            touch = rng.randrange(6)
            if touch == 0:
                ledger.wrap("alice", rng.randrange(1, 50), 1)
            elif touch == 1:
                give_unsettled(base, ledger, "alice", rng.randrange(1, 99), now=1, source="loan")
            elif touch == 2:
                ledger.transfer("alice", "mallory", rng.randrange(1, 120), True, 1)
            elif touch == 3:
                ledger.transfer("mallory", "alice", rng.randrange(1, 60), True, 1)
            elif touch == 4:
                ledger.freeze(ARB, [("alice", rng.randrange(1, 120))], "c", 1)
            else:
                ledger.freeze(ARB, [("alice", rng.randrange(1, 120))], "c", 1)
                if rng.random() < 0.5:
                    ledger.recover(ARB, "c", "alice", 1)
                else:
                    ledger.release(ARB, "c", 1)
            before = world.snapshot()
            try:
                pool.swap("alice", 100, reports, 1)
                raise AssertionError(f"interleaving {i}: swap was not rejected")
            except StaleNonce:
                rejected += 1
            assert world.snapshot() == before
        assert rejected == 1000


def _conservation_sequence(rng):
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger, registry = world.base, world.ledger, world.registry
    pool = world.add_pool(
        "pool", kappa_ppm=500000, risk_bounds=(0, PPM),
        min_quorum=1, min_lp_deposit=1, rate_cap_ppm=rng.choice((500000, PPM)),
    )
    book = world.add_book("book")
    rater = world.add_signer("lp0", ConstantRiskModel(rng.randrange(0, PPM + 1)))
    names = ["lp0", "u1", "u2", "u3", "u4"]
    for name in names:
        base.mint(name, 200)
    pool.deposit("lp0", rng.randrange(40, 200), 0)
    supply = base.total_supply

    now = 0
    case_counter = 0
    for _ in range(rng.randrange(5, 31)):
        now += rng.randrange(0, WINDOW // 2)
        who = names[rng.randrange(5)]
        other = names[rng.randrange(5)]
        amount = rng.randrange(1, 80)
        op = rng.randrange(12)
        try:
            if op == 0:
                ledger.wrap(who, amount, now)
            elif op == 1:
                ledger.unwrap(who, amount, now)
            elif op == 2:
                ledger.transfer(who, other, amount, rng.random() < 0.5, now)
            elif op == 3:
                pool.deposit(who, amount, now)
            elif op == 4:
                pool.withdraw(who, rng.randrange(1, 120), now)
            elif op == 5:
                reports = [issue_report(rater, registry, who, amount, now, 60, ledger)]
                pool.swap(who, amount, reports, now)
            elif op == 6:
                book.post_bid(who, amount, rng.randrange(0, PPM + 1), now + rng.randrange(1, 5000), now)
            elif op == 7:
                book.cancel_bid(who, rng.randrange(1, 6))
            elif op == 8:
                book.match_bid(who, rng.randrange(1, 6), amount, now)
            elif op == 9:
                case_counter += 1
                ledger.freeze(ARB, [(who, amount)], f"c{case_counter}", now)
            elif op == 10:
                active = [c for c, v in ledger.cases.items() if v.status == "active"]
                if active:
                    ledger.recover(ARB, active[rng.randrange(len(active))], other, now)
            else:
                active = [c for c, v in ledger.cases.items() if v.status == "active"]
                if active:
                    ledger.release(ARB, active[rng.randrange(len(active))], now)
        except RPoolError:
            pass
        assert base.total_supply == supply
        assert ledger.base_locked() == ledger.wrapped_total()
        assert base.balance("pool") == 0  # no base rests at the pool address
    world.check_invariants()
    model = replay(base.journal, WINDOW)
    assert_matches(model, ledger, now)


def test_criterion_8_conservation_suite():
    with criterion(8, "conservation: 10^4 random pool+book sequences, oracle agreement, zero violations"):
        rng = random.Random(0xC045)
        for _ in range(10_000):
            _conservation_sequence(rng)


def test_criterion_9_orderbook_loss_and_atomicity():
    with criterion(9, "order book: fill 100 for 50, clawback leaves the LP exactly -50 base"):
        world = World(recovery_window=WINDOW, arbitrator=ARB)
        base, ledger = world.base, world.ledger
        book = world.add_book("ob")
        base.mint("lp", 200)
        give_unsettled(base, ledger, "seller", 100, now=0, source="victim")
        bid = book.post_bid("seller", 100, 500000, 900, 0)

        # atomicity: every rejected match leaves the book and ledger as-is
        before = world.snapshot()
        for lp, offer, at in (("lp", 49, 1), ("pauper", 50, 1), ("lp", 50, 900)):
            try:
                book.match_bid(lp, bid, offer, at)
                raise AssertionError("match should have been rejected")
            except RPoolError:
                pass
            assert world.snapshot() == before

        book.match_bid("lp", bid, 50, 1)
        ledger.freeze(ARB, [("lp", 100)], "case", 2)
        ledger.recover(ARB, "case", "victim", 2)
        assert base.balance("lp") == 150  # net -50 from the starting 200
        assert ledger.balance_of("lp", True, 2) == 0
        assert ledger.settle_view("victim", 2) == (100, 0)
        world.check_invariants()
