"""Every modelled error, raised by one operation on a world that holds
something for each to guard: the world's snapshot, the journal's length
included, is unchanged after it.  The attack lab takes no world, so its two
errors are only raised."""

from functools import cache

import pytest

from rpoolsim import AttackScenario, ConstantRiskModel, World, exact_threshold, issue_report
from rpoolsim.errors import ERRORS_BY_NAME
from rpoolsim.oracle import RatingEntity, median_quote
from rpoolsim.orderbook import OrderBook
from rpoolsim.rates import PPM
from rpoolsim.runner import ScenarioRunner
from rpoolsim.scenario import parse_scenario

from conftest import ARB, WINDOW, give_unsettled

NOW = 1


@cache
def _template():
    """The world every row copies, and its rating entities by name.

    ``pool`` holds 300 settled from the LPs ``lp`` (quotes 0.9), ``high``
    (quotes 1, above the pool's risk bounds) and ``muted`` (not
    authorized); ``outsider`` signs but holds no LP tokens.  ``emptied``
    lost its only liquidity to a recovery.  ``bob`` holds 50 unsettled, 30
    of it frozen under case ``c1``; ``idle`` holds 5 settled and cannot
    unwrap; ``alice`` bids 40 at a 0.5 minimum until time 90 (bid 1).
    """
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    config = dict(kappa_ppm=500_000, min_quorum=1, min_lp_deposit=1, rate_cap_ppm=PPM)
    pool = world.add_pool("pool", risk_bounds=(0, 950_000), **config)
    emptied = world.add_pool("emptied", risk_bounds=(0, PPM), **config)
    signers = {
        name: world.add_signer(name, ConstantRiskModel(rate), authorized)
        for name, rate, authorized in [
            ("lp", 900_000, True), ("high", PPM, True),
            ("muted", 900_000, False), ("outsider", 900_000, True),
        ]
    }
    for name in ("lp", "high", "muted"):
        base.mint(name, 100)
        pool.deposit(name, 100, 0)
    # a rate-1 swap sells emptied's 10 settled, then its inbound leg is recovered
    base.mint("high", 10)
    emptied.deposit("high", 10, 0)
    give_unsettled(base, ledger, "mallory", 10, source="victim")
    report = issue_report(signers["high"], world.registry, "mallory", 10, 0, 60, ledger)
    receipt = emptied.swap("mallory", 10, [report], 0)
    ledger.freeze(ARB, ledger.plan_recovery(receipt.transfer_in_id, 10, 0), "c0", 0)
    ledger.recover(ARB, "c0", "victim", 0)
    assert emptied.pool_state(0) == (0, 0, 0, 10)

    give_unsettled(base, ledger, "bob", 50, source="whale")
    ledger.freeze(ARB, [("bob", 30)], "c1", 0)
    base.mint("idle", 5)
    ledger.wrap("idle", 5, 0)
    ledger.disable_unwrap("idle")
    give_unsettled(base, ledger, "alice", 40, source="whale")
    book = world.books["ob"] = OrderBook(ledger)
    book.post_bid("alice", 40, 500_000, 90, 0)
    world.check_invariants()
    return world, signers


def _swap(world, signer, amount=10, **tampered):
    """Swap ``amount`` of bob's into ``pool`` on one report by ``signer``,
    with the report's ``tampered`` fields overwritten after signing."""
    report = issue_report(signer, world.registry, "bob", amount, NOW, 60, world.ledger)
    for field, value in tampered.items():
        setattr(report, field, value)
    return world.pools["pool"].swap("bob", amount, [report], NOW)


def _unbound_label(world, signers):
    runner = ScenarioRunner(parse_scenario("at 0 advance\n"))
    runner.world = world
    params = {"book": "ob", "bid": "b9", "by": "alice"}
    ScenarioRunner.ACTIONS["cancel_bid"](runner, params, NOW)


def _duplicate_signer(world, signers):
    report = issue_report(signers["lp"], world.registry, "bob", 10, NOW, 60, world.ledger)
    world.pools["pool"].swap("bob", 10, [report, report], NOW)


#: error name -> an operation on (world, signers) that raises it
ON_A_WORLD = {
    # ledger
    "ZeroAmount": lambda w, s: w.ledger.wrap("idle", 0, NOW),
    "InsufficientBase": lambda w, s: w.ledger.wrap("bob", 1, NOW),
    "InsufficientSettled": lambda w, s: w.ledger.unwrap("bob", 1, NOW),
    "InsufficientBalance": lambda w, s: w.ledger.transfer("idle", "bob", 6, False, NOW),
    "InsufficientUnsettled": lambda w, s: w.ledger.freeze(ARB, [("bob", 21)], "c2", NOW),
    "UnwrapDisabled": lambda w, s: w.ledger.unwrap("idle", 1, NOW),
    "FrozenFunds": lambda w, s: w.ledger.transfer("bob", "alice", 21, True, NOW),
    "SelfTransfer": lambda w, s: w.ledger.transfer("idle", "idle", 1, False, NOW),
    "NotArbitrator": lambda w, s: w.ledger.release("bob", "c1", NOW),
    "UnknownCase": lambda w, s: w.ledger.recover(ARB, "c0", "victim", NOW),
    "Uncoverable": lambda w, s: w.ledger.plan_recovery(w.ledger.transfer_log[-1].transfer_id, 41, NOW),
    "ReservedName": lambda w, s: w.ledger.transfer("idle", ARB, 1, False, NOW),
    # oracle
    "UnknownSigner": lambda w, s: issue_report(
        RatingEntity("ghost", b"", ConstantRiskModel(PPM)), w.registry, "bob", 10, NOW, 60, w.ledger
    ),
    "EmptyQuoteSet": lambda w, s: median_quote([]),
    "QuorumTooSmall": lambda w, s: w.pools["pool"].swap("bob", 10, [], NOW),
    "DuplicateSigner": _duplicate_signer,
    "SignerNotLp": lambda w, s: _swap(w, s["outsider"]),
    "SignerNotAuthorized": lambda w, s: _swap(w, s["muted"]),
    "StaleNonce": lambda w, s: _swap(w, s["lp"], account_nonce=99),
    "ReportExpired": lambda w, s: _swap(w, s["lp"], expiry=NOW),
    "RequestMismatch": lambda w, s: _swap(w, s["lp"], requestor="alice"),
    "BadSignature": lambda w, s: _swap(w, s["lp"], quote_ppm=1),
    "OutOfRiskBounds": lambda w, s: _swap(w, s["high"]),
    # pool
    "InsufficientLpTokens": lambda w, s: w.pools["pool"].withdraw("bob", 1, NOW),
    "InsufficientPoolSettled": lambda w, s: _swap(w, s["lp"], amount=1_000),
    "PoolEmptied": lambda w, s: w.pools["emptied"].deposit("idle", 1, NOW),
    # order book
    "NotBidder": lambda w, s: w.books["ob"].cancel_bid("bob", 1),
    "BidNotOpen": lambda w, s: w.books["ob"].cancel_bid("alice", 2),
    "BadExpiry": lambda w, s: w.books["ob"].post_bid("alice", 1, 0, NOW, NOW),
    "BidExpired": lambda w, s: w.books["ob"].match_bid("lp", 1, 20, 90),
    "QuoteTooLow": lambda w, s: w.books["ob"].match_bid("lp", 1, 19, NOW),
    # runner
    "UnboundLabel": _unbound_label,
}

#: error name -> an attack-lab call that raises it
WITHOUT_A_WORLD = {
    "InvalidScenario": lambda: AttackScenario(1, 1, 0, 2, 1, 0),
    "ZeroShort": lambda: exact_threshold(1, 0),
}


def test_every_modelled_error_has_one_row():
    assert sorted([*ON_A_WORLD, *WITHOUT_A_WORLD]) == sorted(ERRORS_BY_NAME)
    assert not ON_A_WORLD.keys() & WITHOUT_A_WORLD.keys()


@pytest.mark.parametrize("name", ON_A_WORLD)
def test_a_rejected_operation_leaves_the_world_unchanged(name):
    template, signers = _template()
    world = template.copy()
    before = world.snapshot()  # it holds the journal's length
    with pytest.raises(ERRORS_BY_NAME[name]) as err:
        ON_A_WORLD[name](world, signers)
    assert type(err.value) is ERRORS_BY_NAME[name]
    assert world.snapshot() == before
    world.check_invariants()


@pytest.mark.parametrize("name", WITHOUT_A_WORLD)
def test_the_attack_lab_raises_its_errors(name):
    with pytest.raises(ERRORS_BY_NAME[name]) as err:
        WITHOUT_A_WORLD[name]()
    assert type(err.value) is ERRORS_BY_NAME[name]
