from contextlib import contextmanager
from fractions import Fraction

import pytest

from rpoolsim import AttackScenario, ConstantRiskModel, World, exact_threshold, issue_report
from rpoolsim.rates import PPM

WINDOW = 86_400
ARB = "arb"


@pytest.fixture
def world():
    return World(recovery_window=WINDOW, arbitrator=ARB)


def full_state(world):
    """The snapshot, plus the parts it counts but does not list: the
    journal, the transfer log and outflow index, receipts and fills."""
    ledger = world.ledger
    return (
        world.snapshot(),
        list(world.base.journal),
        list(ledger.transfer_log),
        {sender: list(out) for sender, out in ledger._outflows.items()},
        {name: list(pool.receipts) for name, pool in world.pools.items()},
        {name: list(book.fills) for name, book in world.books.items()},
    )


def assert_unchanged(world, before, state=World.snapshot):
    """``state(world)`` still equals ``before``, and every invariant holds.

    The default state is :meth:`World.snapshot`, which holds the journal's
    length (``ledger.mark()``) and the clock, and is what the runner compares
    around a step that expects an error."""
    assert state(world) == before, "a refused operation changed the world"
    world.check_invariants()


@contextmanager
def refused(world, error, match=None, *, state=World.snapshot):
    """The block raises exactly ``error``, its message matching ``match`` as
    in :func:`pytest.raises`, and leaves ``world`` unchanged: see
    :func:`assert_unchanged`.  Yields the ``ExceptionInfo``.

    Every test of a rejected operation on a world checks it through here."""
    before = state(world)
    with pytest.raises(error, match=match) as info:
        yield info
    assert type(info.value) is error, f"raised {info.value!r}, not exactly {error.__name__}"
    assert_unchanged(world, before, state)


def make_pool(
    world,
    *,
    lp_deposits=(("lp1", 100), ("lp2", 100)),
    kappa_ppm=500_000,
    risk_bounds=(0, 1_000_000),
    min_quorum=1,
    min_lp_deposit=1,
    rate_cap_ppm=500_000,
    rater_rate_ppm=500_000,
):
    """A funded pool plus one registered rating entity (the first LP)."""
    pool = world.add_pool(
        "pool",
        kappa_ppm=kappa_ppm,
        risk_bounds=risk_bounds,
        min_quorum=min_quorum,
        min_lp_deposit=min_lp_deposit,
        rate_cap_ppm=rate_cap_ppm,
    )
    for lp, amount in lp_deposits:
        world.base.mint(lp, amount)
        pool.deposit(lp, amount, 0)
    rater = world.add_signer(lp_deposits[0][0], ConstantRiskModel(rater_rate_ppm))
    return pool, rater


def loss_sharing_pool(world, lp_deposits):
    """Pool at the worked-example pre-state (100 settled, 100 unsettled),
    then the tainted 100-token swap at rate 0.5 moves it to (50, 200)."""
    base, ledger = world.base, world.ledger
    assert sum(amount for _, amount in lp_deposits) == 100
    pool, rater = make_pool(world, lp_deposits=lp_deposits)
    give_unsettled(base, ledger, "pool", 100, now=0, source="donor")
    give_unsettled(base, ledger, "mallory", 100, now=0, source="victim")
    reports = quorum(pool, rater, "mallory", 100, 0, ledger)
    receipt = pool.swap("mallory", 100, reports, 0)
    assert (receipt.amount_out, receipt.rate_ppm) == (50, 500000)
    assert pool.pool_state(0)[:3] == (50, 200, 250)
    return base, ledger, pool, receipt


def quorum(pool, rater, requestor, amount, now, ledger, ttl=600):
    """Issue one valid report per required signer (single-rater pools)."""
    return [issue_report(rater, pool.registry, requestor, amount, now, ttl, ledger)]


def give_unsettled(base, ledger, account, amount, now=0, source="faucet"):
    """Put `amount` of unsettled tokens in `account` via a fresh transfer."""
    base.mint(source, amount)
    ledger.wrap(source, amount, now)
    return ledger.transfer(source, account, amount, False, now)


def criterion6_grid():
    """(scenario, rate) over the acceptance suite's criterion 6 grid: 20 LP
    supplies, each with up to six shorts and five pool totals, the theft
    equal to the pool total (the bound is scale-free in it), and 25 rates
    from 0 up to exactly the threshold."""
    supplies = [1, 2, 3, 7, 12, 17, 31, 64, 128, 999, 1000, 2048, 4096,
                10_000, 31337, 65536, 10**5, 2 * 10**5, 5 * 10**5, 10**6]
    for lp_supply in supplies:
        shorts = {1, lp_supply // 10 or 1, lp_supply // 3 or 1,
                  lp_supply // 2 or 1, 2 * lp_supply // 3 or 1, lp_supply}
        totals = {1, lp_supply // 4 or 1, lp_supply // 2 or 1,
                  3 * lp_supply // 4 or 1, lp_supply}
        for shorted in sorted(shorts):
            threshold = exact_threshold(lp_supply, shorted)
            for pool_total in sorted(totals):
                for k in range(25):
                    rate = threshold * Fraction(k, 24)  # k=24 hits it exactly
                    scenario = AttackScenario(
                        pool_total, lp_supply, 10, shorted, pool_total,
                        min(PPM, int(rate * PPM)),
                    )
                    yield scenario, rate
