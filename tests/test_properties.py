"""Property suites: oracle equivalence against the naive replay model,
conservation, settlement monotonicity, nonce accounting, median robustness,
and pool fairness under randomized traffic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpoolsim import (
    ConstantRiskModel,
    World,
    issue_report,
    median_quote,
    parse_rate,
    format_rate,
)
from rpoolsim.errors import RPoolError, Uncoverable
from rpoolsim.oracle import validate_reports
from rpoolsim.rates import PPM
from rpoolsim.runner import ScenarioRunner
from rpoolsim.scenario import parse_scenario

from conftest import ARB, WINDOW, give_unsettled, make_pool, quorum
from naive_ledger import assert_matches, naive_plan_recovery, replay

ACCOUNTS = ["a", "b", "c", "d"]


def _random_ledger_op(rng, base, ledger, now):
    """Apply one random ledger event; modeled rejections are fine."""
    kind = rng.choice(
        ["wrap", "unwrap", "transfer", "transfer_u", "freeze", "recover", "release", "disable"]
    )
    who = rng.choice(ACCOUNTS)
    other = rng.choice([a for a in ACCOUNTS if a != who])
    amount = rng.randrange(1, 60)
    try:
        if kind == "wrap":
            ledger.wrap(who, amount, now)
        elif kind == "unwrap":
            ledger.unwrap(who, amount, now)
        elif kind == "transfer":
            ledger.transfer(who, other, amount, rng.random() < 0.5, now)
        elif kind == "transfer_u":
            ledger.transfer_unsettled(who, other, amount, now)
        elif kind == "freeze":
            case = f"case{rng.randrange(1000)}"
            ledger.freeze(ARB, [(who, amount)], case, now)
        elif kind == "recover":
            active = [c for c, case in ledger.cases.items() if case.status == "active"]
            if active:
                ledger.recover(ARB, rng.choice(active), other, now)
        elif kind == "release":
            active = [c for c, case in ledger.cases.items() if case.status == "active"]
            if active:
                ledger.release(ARB, rng.choice(active), now)
        elif kind == "disable":
            ledger.disable_unwrap(who)
    except RPoolError:
        pass


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), events=st.integers(1, 20))
def test_oracle_equivalence_small_instances(seed, events):
    """Random sequences over <= 4 accounts match the brute-force replay."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for name in ACCOUNTS:
        base.mint(name, 200)
    now = 0
    for _ in range(events):
        now += rng.randrange(0, WINDOW // 3)
        _random_ledger_op(rng, base, ledger, now)
        ledger.check_invariants()
    model = replay(base.journal, WINDOW)
    assert_matches(model, ledger, now)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), events=st.integers(1, 20))
def test_oracle_ignores_what_the_engine_derives(seed, events):
    """The replay reads only what a transfer asked for: with every
    transfer's id and unsettled spend scrambled in the journal it replays,
    the oracle still agrees with the engine."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for name in ACCOUNTS:
        base.mint(name, 200)
    give_unsettled(base, ledger, "a", 50, now=0)
    now = 0
    for _ in range(events):
        now += rng.randrange(0, WINDOW // 3)
        _random_ledger_op(rng, base, ledger, now)
    journal = [
        event._replace(
            transfer_id=rng.randrange(-99, 99),
            unsettled_spent=rng.randrange(-99, 99),
        )
        if event[0] == "transfer"
        else event
        for event in base.journal
    ]
    assert_matches(replay(journal, WINDOW), ledger, now)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), events=st.integers(1, 20))
def test_oracle_equivalence_when_time_moves_backwards(seed, events):
    """Library callers may pass any clock, negative included: records
    received out of time order must still fold, spend and freeze as the
    replay model says."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for name in ACCOUNTS:
        base.mint(name, 200)
    now = 0
    for _ in range(events):
        now = rng.randrange(-2 * WINDOW, 2 * WINDOW)
        _random_ledger_op(rng, base, ledger, now)
        ledger.check_invariants()
    model = replay(base.journal, WINDOW)
    for probe in (now, rng.randrange(-2 * WINDOW, 2 * WINDOW)):
        assert_matches(model, ledger, probe)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amounts=st.lists(st.integers(1, 100), min_size=1, max_size=5),
)
def test_settlement_monotone_in_time(seed, amounts):
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for i, amount in enumerate(amounts):
        give_unsettled(base, ledger, "a", amount, now=rng.randrange(0, 5000), source=f"s{i}")
    last = -1
    for now in range(0, 2 * WINDOW, 7919):
        settled, unsettled = ledger.settle_view("a", now)
        assert settled >= last
        assert settled + unsettled == sum(amounts)
        last = settled


def test_nonces_count_participating_events(world):
    base, ledger = world.base, world.ledger
    base.mint("a", 500)
    expected = {"a": 0, "b": 0, "v": 0}
    ledger.wrap("a", 300, 0)
    expected["a"] += 1
    ledger.transfer("a", "b", 120, False, 0)
    expected["a"] += 1
    expected["b"] += 1
    ledger.unwrap("a", 50, 0)
    expected["a"] += 1
    ledger.freeze(ARB, [("b", 40)], "c1", 0)
    expected["b"] += 1
    ledger.recover(ARB, "c1", "v", 0)
    expected["b"] += 1
    expected["v"] += 1
    ledger.freeze(ARB, [("b", 10)], "c2", 0)
    expected["b"] += 1
    ledger.release(ARB, "c2", 0)
    expected["b"] += 1
    # b now holds two records (80, then 30) and v one (20): one freeze
    # marks both of b's and v's, and the case is recovered to v
    ledger.transfer("a", "b", 30, False, 0)
    ledger.transfer("a", "v", 20, False, 0)
    expected["a"] += 2
    expected["b"] += 1
    expected["v"] += 1
    ledger.freeze(ARB, [("b", 100), ("v", 20)], "c3", 0)
    assert [acct for acct, _, _ in ledger.cases["c3"].marks] == ["b", "b", "v"]
    expected["b"] += 1
    expected["v"] += 1
    ledger.recover(ARB, "c3", "v", 0)
    expected["b"] += 1  # once, though two of its records were marked
    expected["v"] += 2  # once as a marked account, once as the victim
    for name, count in expected.items():
        assert ledger.nonce(name) == count, name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), events=st.integers(1, 30))
def test_each_record_is_named_by_the_transfer_that_made_it(seed, events):
    """Every held record's ``transfer_id`` names the transfer-log row
    whose recipient holds it, due one window after that transfer and
    holding no more than it carried."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for name in ACCOUNTS:
        base.mint(name, 200)
    now = 0
    for _ in range(events):
        now += rng.randrange(0, WINDOW // 3)
        _random_ledger_op(rng, base, ledger, now)
    for name, acct in ledger.accounts.items():
        for rec in acct.unsettled:
            row = ledger.transfer_log[rec.transfer_id - 1]
            assert row.transfer_id == rec.transfer_id
            assert row.recipient == name
            assert rec.settlement_time == row.time + WINDOW
            assert rec.amount <= row.amount
            assert ledger.holds_record_from(name, rec.transfer_id, rec.settlement_time - 1)
            held = rec.settlement_time > now or rec.frozen_amount > 0
            assert ledger.holds_record_from(name, rec.transfer_id, now) == held


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_frozen_amounts_only_move_via_case_close(seed):
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    give_unsettled(base, ledger, "a", 100, now=0)
    frozen = rng.randrange(1, 100)
    ledger.freeze(ARB, [("a", frozen)], "c1", 0)
    for _ in range(10):
        try:
            ledger.transfer("a", "b", rng.randrange(1, 120), True, rng.randrange(0, WINDOW))
        except RPoolError:
            pass
        assert ledger.accounts["a"].frozen_sum == frozen
    ledger.release(ARB, "c1", 0)
    assert ledger.accounts["a"].frozen_sum == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amount=st.integers(1, 200))
def test_plan_recovery_always_freezable(seed, amount):
    """Whenever a plan is produced, it totals the request and freezes cleanly."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    give_unsettled(base, ledger, "thief", 200, now=0, source="victim")
    tainted = ledger.transfer_unsettled("thief", "pool", 200, 5)
    # scatter post-taint outflows
    for i in range(rng.randrange(0, 4)):
        out = rng.randrange(1, 80)
        try:
            ledger.transfer_unsettled("pool", f"w{i}", out, 10 + i)
        except RPoolError:
            pass
    try:
        plan = ledger.plan_recovery(tainted, amount, 20)
    except RPoolError:
        return
    assert sum(q for _, q in plan) == amount
    ledger.freeze(ARB, plan, "c1", 20)  # must not raise


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plan_recovery_matches_a_full_scan(seed):
    """The indexed outflow lookup plans exactly what a scan of the whole
    transfer log plans, for the tainted transfer and a sample of others."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    for name in ACCOUNTS:
        give_unsettled(base, ledger, name, 300, now=0, source=f"seed_{name}")
    now = 0
    # The recipient "a" draws on unsettled records just before and just
    # after the tainted transfer into it, which itself is an unsettled
    # outflow of its sender "b": the bisection must split exactly there.
    ledger.transfer_unsettled("a", "c", rng.randrange(1, 40), now)
    tainted = ledger.transfer_unsettled("b", "a", rng.randrange(1, 100), now)
    ledger.transfer_unsettled("a", "d", rng.randrange(1, 40), now)
    for _ in range(rng.randrange(0, 25)):
        now += rng.randrange(0, WINDOW // 4)
        _random_ledger_op(rng, base, ledger, now)
    others = rng.sample(range(1, len(ledger.transfer_log) + 1), 3)
    for transfer_id in sorted({tainted, *others}):
        amount = ledger.transfer_log[transfer_id - 1].amount
        for want in {1, rng.randrange(1, amount + 1), amount, amount + 1}:
            for at in (now, now + rng.randrange(0, WINDOW)):
                expected = naive_plan_recovery(ledger, transfer_id, want, at)
                if expected is None:
                    with pytest.raises(Uncoverable):
                        ledger.plan_recovery(transfer_id, want, at)
                else:
                    assert ledger.plan_recovery(transfer_id, want, at) == expected


def _brute_force_median_floor(unchanged, k):
    """Lowest achievable median when k quotes are adversarial: the
    (ceil(n/2) - k)-th smallest unchanged quote anchors it."""
    n = len(unchanged) + k
    ordered = sorted(unchanged)
    return ordered[-(-n // 2) - k - 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_median_robustness_brute_force(n):
    rng = random.Random(n)
    grid = [0, 250000, 500000, 750000, PPM]
    for _ in range(200):
        quotes = [rng.choice(grid) for _ in range(n)]
        for k in range(0, -(-n // 2)):  # k < ceil(n/2)
            unchanged = quotes[: n - k]
            floor = _brute_force_median_floor(unchanged, k)
            # all-zero adversarial quotes are the exact worst case
            assert median_quote(unchanged + [0] * k) >= floor
            for _ in range(20):
                adversarial = [rng.choice(grid) for _ in range(k)]
                assert median_quote(unchanged + adversarial) >= floor


@settings(max_examples=100, deadline=None)
@given(ppm=st.integers(0, PPM))
def test_rate_format_parse_round_trip(ppm):
    assert parse_rate(format_rate(ppm)) == ppm


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    deposit=st.integers(1, 10_000),
)
def test_share_value_fairness(seed, deposit):
    """A fresh deposit's redeemable value is within 2 units of the deposit."""
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    lp_amount = rng.randrange(1, 5000)
    pool, _ = make_pool(world, lp_deposits=(("lp1", lp_amount),))
    # accrued spread keeps the share price below 2x, the domain where the
    # two-unit slack bound holds; swaps can only add value at rate <= 1
    if rng.random() < 0.7 and lp_amount > 1:
        give_unsettled(
            base, ledger, "pool", rng.randrange(1, lp_amount), now=0, source="donor"
        )
    base.mint("newlp", deposit)
    minted = pool.deposit("newlp", deposit, 0)
    state = pool.pool_state(0)
    redeemable = minted * state.total // pool.lp_supply
    assert deposit - 2 <= redeemable <= deposit


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_withdraw_preserves_ratio_within_rounding(seed):
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    lp_amount = rng.randrange(10, 5000)
    pool, _ = make_pool(world, lp_deposits=(("lp1", lp_amount),))
    give_unsettled(base, ledger, "pool", rng.randrange(1, 4000), now=0, source="donor")
    state = pool.pool_state(0)
    burn = rng.randrange(1, lp_amount + 1)
    withdrawn = burn * state.total // pool.lp_supply
    base_out, unsettled_out = pool.withdraw("lp1", burn, 0)
    assert base_out + unsettled_out == withdrawn
    # the unsettled slice is the floored pro-rata share: off by < 1 unit
    assert abs(unsettled_out * state.total - withdrawn * state.unsettled) < state.total


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), claw=st.integers(1, 100))
def test_loss_socialization_uniform(seed, claw):
    rng = random.Random(seed)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    deposits = [(f"lp{i}", rng.randrange(1, 400)) for i in range(rng.randrange(2, 5))]
    pool, rater = make_pool(world, lp_deposits=tuple(deposits))
    tainted = give_unsettled(base, ledger, "thief", claw, now=0, source="victim")
    reports = quorum(pool, rater, "thief", claw, 0, ledger)
    try:
        pool.swap("thief", claw, reports, 0)
    except RPoolError:
        return
    state = pool.pool_state(0)
    before = {
        lp: held * state.total // pool.lp_supply for lp, held in pool.lp_holdings.items()
    }
    ledger.freeze(ARB, [("pool", claw)], "c1", 0)
    ledger.recover(ARB, "c1", "victim", 0)
    after_state = pool.pool_state(0)
    for lp, held in pool.lp_holdings.items():
        redeemable = held * after_state.total // pool.lp_supply
        expected = before[lp] * after_state.total // state.total
        assert abs(redeemable - expected) <= 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_swap_payout_monotone_in_amount(seed):
    rng = random.Random(seed)
    rate_ppm = rng.randrange(0, PPM + 1)
    outs = []
    for amount in (10, 40, 70, 100):
        world = World(recovery_window=WINDOW, arbitrator=ARB)
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(
            world, lp_deposits=(("lp1", 500),), rater_rate_ppm=rate_ppm,
        )
        give_unsettled(base, ledger, "alice", 100, now=0)
        reports = quorum(pool, rater, "alice", amount, 0, ledger)
        outs.append(pool.swap("alice", amount, reports, 0).amount_out)
    assert outs == sorted(outs)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_receipt_respects_the_cap(seed):
    rng = random.Random(seed)
    cap = rng.randrange(0, PPM + 1)
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    pool, rater = make_pool(
        world, lp_deposits=(("lp1", 1000),),
        rate_cap_ppm=cap, rater_rate_ppm=rng.randrange(0, PPM + 1),
    )
    for i in range(3):
        amount = rng.randrange(1, 200)
        give_unsettled(base, ledger, f"u{i}", amount, now=i)
        reports = quorum(pool, rater, f"u{i}", amount, i, ledger)
        try:
            receipt = pool.swap(f"u{i}", amount, reports, i)
        except RPoolError:
            continue
        assert receipt.rate_ppm <= cap
    for receipt in pool.receipts:
        assert receipt.rate_ppm <= pool.rate_cap_ppm


def test_validate_reports_permutation_invariance(world):
    import itertools

    ledger = world.ledger
    pool, _ = make_pool(
        world,
        lp_deposits=(("s1", 50), ("s2", 50), ("s3", 50), ("s4", 50)),
        min_quorum=2,
    )
    reports = []
    for name, rate in (("s1", 10), ("s2", 999990), ("s3", 400000), ("s4", 400001)):
        entity = world.add_signer(name, ConstantRiskModel(rate))
        reports.append(issue_report(entity, world.registry, "alice", 9, 0, 60, ledger))
    medians = {
        validate_reports(pool, "alice", 9, list(perm), 0)
        for perm in itertools.permutations(reports)
    }
    assert len(medians) == 1


# -- runner deltas: the journal fold against the two-snapshot diff -----------

DELTA_FIELDS = ("base", "settled", "unsettled", "nonce")
DELTA_USERS = ["a", "b", "c", "d"]


def _snapshot(runner, now):
    """Every account's (base, settled, unsettled, nonce), effective at now."""
    base, ledger = runner.world.base, runner.world.ledger
    names = (set(base.balances) | set(ledger.accounts)) - {ledger.address}
    return {
        name: (base.balance(name), *ledger.settle_view(name, now), ledger.nonce(name))
        for name in names
    }


def _snapshot_diff(before, after):
    """The nonzero per-account field changes between two snapshots, by name."""
    deltas = {}
    for name in sorted(set(before) | set(after)):
        old = before.get(name, (0, 0, 0, 0))
        new = after.get(name, (0, 0, 0, 0))
        changed = {key: n - o for key, o, n in zip(DELTA_FIELDS, old, new) if n != o}
        if changed:
            deltas[name] = changed
    return deltas


class SnapshotDiffRunner(ScenarioRunner):
    """Also derives each step's deltas by diffing the whole world before
    and after the step, which costs O(accounts) but needs no rules."""

    def __init__(self, script):
        super().__init__(script)
        self.snapshot_deltas = []

    def _run_step(self, seq, step, result):
        before = _snapshot(self, step.time)
        super()._run_step(seq, step, result)
        self.snapshot_deltas.append(_snapshot_diff(before, _snapshot(self, step.time)))


def _delta_scenario(rng, window):
    """A random script over every ledger-moving action; many steps fail.
    Most episodes first fund an account from the whale, so that freezes,
    bids and swaps find unsettled tokens to act on."""
    lines = [
        f"config window={window} arbitrator=arb",
        *(f"account {name} base=300 settled=300" for name in DELTA_USERS),
        "account whale settled=100000",
        "account lp base=2000",
        "signer lp model=constant rate=0.9",
        "pool p kappa_ppm=500000",
        "book ob",
        "at 0 deposit pool=p lp=lp amount=600",
    ]
    now = 0
    transfers = []

    def step(text):
        lines.append(f"at {now} {text}")

    def fund(name, amount):
        if rng.random() < 0.8:
            step(f"transfer from=whale to={name} amount={amount}")

    for k in range(rng.randrange(5, 25)):
        who, other = rng.sample(DELTA_USERS, 2)
        if rng.random() < 0.2:
            other = "p"
        amount = rng.randrange(1, 200)
        kind = rng.choice([
            "wrap", "unwrap", "transfer", "freeze_release", "freeze_recover",
            "planned_freeze", "deposit", "withdraw", "swap", "bid", "reject", "base",
        ])
        if kind == "wrap":
            step(f"wrap account={who} amount={amount}")
        elif kind == "unwrap":
            step(f"unwrap account={who} amount={amount} to={rng.choice([who, other, 'z'])}")
        elif kind == "transfer":
            unsettled = rng.choice(["", " unsettled=true"])
            step(f"transfer from={who} to={other} amount={amount}{unsettled} as=t{k}")
            transfers.append(f"t{k}")
        elif kind == "freeze_release":
            fund(other, amount)
            step(f"freeze case=c{k} targets={other}:{rng.randrange(1, amount + 1)}")
            now += rng.randrange(0, 2 * window + 2)
            step(f"release case=c{k}")
        elif kind == "freeze_recover":
            held = rng.sample([*DELTA_USERS, "p"], rng.randrange(1, 3))
            for name in held:
                fund(name, 60)
            targets = ",".join(f"{name}:{rng.randrange(1, 60)}" for name in held)
            step(f"freeze case=c{k} targets={targets}")
            now += rng.randrange(0, 2 * window + 2)
            victim = rng.choice(held) if rng.random() < 0.5 else who
            step(f"recover case=c{k} victim={victim}")
        elif kind == "planned_freeze" and transfers:
            step(f"freeze case=c{k} transfer={rng.choice(transfers)} amount={amount}")
            step(f"recover case=c{k} victim={who}")
        elif kind == "deposit":
            step(f"deposit pool=p lp={who} amount={amount}")
        elif kind == "withdraw":
            step(f"withdraw pool=p lp={rng.choice(['lp', who])} tokens={amount}")
        elif kind == "swap":
            fund(who, amount)
            step(f"issue_report signer=lp requestor={who} amount={amount} ttl=60 as=r{k}")
            step(f"swap pool=p requestor={who} amount={amount} reports=r{k}")
        elif kind == "bid":
            fund(who, amount)
            step(f"post_bid book=ob bidder={who} amount={amount} min_rate=0.5 "
                 f"expiry={now + 100} as=b{k}")
            step(f"match_bid book=ob bid=b{k} lp={other} offer={amount // 2 + rng.randrange(2)}")
        elif kind == "reject":
            step(rng.choice([
                f"transfer from={who} to={who} amount={amount}",
                f"wrap account={who} amount=100000",
                f"unwrap account={who} amount=100000",
                f"recover case=none victim={who}",
                f"freeze case=x{k} targets={who}:1 by={other}",
                f"withdraw pool=p lp={who} tokens=100000",
            ]))
        elif kind == "base":
            step(f"mint_base account={who} amount={amount}")
        if rng.random() < 0.3:
            now += rng.randrange(0, 2 * window + 2)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([0, 1, 100]))
def test_step_deltas_match_the_snapshot_diff(seed, window):
    """The deltas the runner folds from each step's journal entries equal
    the diff of every account's effective balances around the step."""
    runner = SnapshotDiffRunner(parse_scenario(_delta_scenario(random.Random(seed), window)))
    result = runner.run()
    assert [event.deltas for event in result.events] == runner.snapshot_deltas
    for event in result.events:
        if event.outcome != "ok":
            assert event.deltas == {}, event
        elif event.action in ("deposit", "withdraw", "swap"):
            # base may rest at a pool address, but no pool operation moves it
            assert "base" not in event.deltas.get(event.params["pool"], {}), event
