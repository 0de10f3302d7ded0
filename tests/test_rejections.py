"""Every refusal the library models, in one table keyed by raise site.

Each row of ``ROWS`` is an operation on a copy of one cached template world,
the error it must raise, and the site that must raise it: the qualified
name of a function of ``src/``, as in ``WrapperLedger.wrap`` or
``check_amount``.  The row runs through :func:`conftest.refused`, so it
raises exactly that error, its message matching the row's ``match``, and
leaves the world's full state (:func:`conftest.full_state`) unchanged.
The innermost frame of its traceback must be at a ``raise`` of that error
in that function.  A row writes nothing: what it needs is built into the
template.  The attack lab's functions take no world, so its rows ignore
the copy they are handed.

A ``raise`` of a modelled error in a function of ``src/`` that no row
names fails ``test_every_modelled_raise_site_has_a_row`` until a row
reaches it; a ``raise`` from a table of errors counts once for each error
in the table, and a ``raise`` of a factory's result must name the factory
in ``astgates.FACTORIES``."""

from collections.abc import Callable
from functools import cache
from typing import NamedTuple

import pytest

from astgates import SITES, raised_at
from rpoolsim import (
    AttackScenario, ConstantRiskModel, World, exact_threshold, issue_report,
    profitability_threshold, simulate_attack, validate_reports,
)
from rpoolsim.errors import (
    ERRORS_BY_NAME, BadExpiry, BadSignature, BidExpired, BidNotOpen, ClockWentBack,
    DuplicateSigner, EmptyQuoteSet, FrozenFunds, InsufficientBalance, InsufficientBase,
    InsufficientLpTokens, InsufficientPoolSettled, InsufficientSettled, InsufficientUnsettled,
    InvalidScenario, NotArbitrator, NotBidder, OutOfRiskBounds, PoolEmptied, QuorumTooSmall,
    QuoteTooLow, ReportExpired, RequestMismatch, ReservedName, RPoolError, SelfTransfer,
    SignerNotAuthorized, SignerNotLp, StaleNonce, Uncoverable, UnboundLabel, UnknownCase,
    UnknownSigner, UnwrapDisabled, ZeroAmount, ZeroShort,
)
from rpoolsim.oracle import RatingEntity, median_quote
from rpoolsim.rates import PPM
from rpoolsim.runner import ScenarioRunner
from rpoolsim.scenario import parse_scenario

from conftest import ARB, WINDOW, full_state, give_unsettled, refused
from test_attack import scn

NOW = 1

#: the configuration of every pool the template or a row adds, but its risk bounds
CONFIG = dict(kappa_ppm=500_000, min_quorum=1, min_lp_deposit=1, rate_cap_ppm=PPM)


@cache
def _template():
    """The world every row copies, and the report ``flash`` was given
    before its nonce moved.  Every operation in it runs at 0.

    ``pool`` takes quotes in [0.6, 0.95] and signers holding at least 100 of
    its LP tokens.  It holds 450 settled from ``lp`` (quotes 0.9), ``high``
    (quotes 1), ``low`` (quotes 0.5), ``muted`` (not authorized), 100 each,
    and ``minnow`` (quotes 0.9), 50, and 30 unsettled, all frozen.
    ``outsider`` signs but holds no LP tokens.  ``emptied`` lost its only
    liquidity to a recovery under case ``c0``; ``locked`` holds 100 settled
    from ``lp`` and disabled unwrapping after it was built.

    ``bob`` holds 50 unsettled, 30 of it frozen with the pool's 30 under
    case ``c1``; ``idle`` holds 5 settled and cannot unwrap; ``holder``
    holds 50 base; ``flash`` got 100 unsettled and a report on it from
    ``lp``, then 400 more.  Book ``ob`` holds bid 1, ``alice``'s for all
    her 40 unsettled at 0.5 until 90; bid 2, ``carol``'s for all her 100 at
    0.555 (ask 56) until twice the recovery window, while her records fall
    due at the window; bid 3, ``dave``'s, after which he got 1 more; and
    bid 4, ``erin``'s, that ``buyer`` filled, with 195 base left.
    """
    world = World(recovery_window=WINDOW, arbitrator=ARB)
    base, ledger = world.base, world.ledger
    pool = world.add_pool(
        "pool", risk_bounds=(600_000, 950_000), **{**CONFIG, "min_lp_deposit": 100}
    )
    emptied = world.add_pool("emptied", risk_bounds=(0, PPM), **CONFIG)
    locked = world.add_pool("locked", risk_bounds=(0, PPM), **CONFIG)
    for name, rate, authorized, deposit in [
        ("lp", 900_000, True, 100), ("high", PPM, True, 100), ("low", 500_000, True, 100),
        ("muted", 900_000, False, 100), ("minnow", 900_000, True, 50),
        ("outsider", 900_000, True, 0),
    ]:
        world.add_signer(name, ConstantRiskModel(rate), authorized)
        if deposit:
            base.mint(name, deposit)
            pool.deposit(name, deposit, 0)
    base.mint("lp", 100)
    locked.deposit("lp", 100, 0)
    ledger.disable_unwrap("locked")
    # a rate-1 swap sells emptied's 10 settled, then its inbound leg is recovered
    base.mint("high", 10)
    emptied.deposit("high", 10, 0)
    give_unsettled(base, ledger, "mallory", 10, source="victim")
    report = issue_report(world.signers["high"], world.registry, "mallory", 10, 0, 60, ledger)
    receipt = emptied.swap("mallory", 10, [report], 0)
    ledger.freeze(ARB, ledger.plan_recovery(receipt.transfer_in_id, 10, 0), "c0", 0)
    ledger.recover(ARB, "c0", "victim", 0)
    assert emptied.pool_state(0) == (0, 0, 0, 10)

    give_unsettled(base, ledger, "bob", 50, source="whale")
    give_unsettled(base, ledger, "pool", 30, source="whale")
    ledger.freeze(ARB, [("bob", 30), ("pool", 30)], "c1", 0)
    base.mint("idle", 5)
    ledger.wrap("idle", 5, 0)
    ledger.disable_unwrap("idle")
    base.mint("holder", 50)
    give_unsettled(base, ledger, "flash", 100, source="whale")
    flash = issue_report(world.signers["lp"], world.registry, "flash", 100, 0, 600, ledger)
    give_unsettled(base, ledger, "flash", 400, source="whale")

    book = world.add_book("ob")
    for bidder, amount, rate, expiry in [
        ("alice", 40, 500_000, 90), ("carol", 100, 555_000, 2 * WINDOW),
        ("dave", 10, 500_000, 90), ("erin", 10, 500_000, 90),
    ]:
        give_unsettled(base, ledger, bidder, amount, source="whale")
        book.post_bid(bidder, amount, rate, expiry, 0)
    give_unsettled(base, ledger, "dave", 1, source="whale")
    base.mint("buyer", 200)
    book.match_bid("buyer", 4, 5, 0)
    assert ledger.clock == 0
    world.check_invariants()
    return world, flash


def _report(w, signer="lp", requestor="bob", amount=10, ttl=60, at=NOW):
    """``signer``'s report on (``requestor``, ``amount``), issued at ``at``."""
    return issue_report(w.signers[signer], w.registry, requestor, amount, at, ttl, w.ledger)


def _swap(w, *reports, pool="pool", requestor="bob", amount=10):
    return w.pools[pool].swap(requestor, amount, list(reports), NOW)


def _validate(w, *reports, requestor="bob", amount=10):
    return validate_reports(w.pools["pool"], requestor, amount, list(reports), NOW)


def _received(w, account):
    """The id of the first transfer to ``account``."""
    return next(t.transfer_id for t in w.ledger.transfer_log if t.recipient == account)


def _unbound_label(w):
    runner = ScenarioRunner(parse_scenario("at 0 advance\n"))
    runner.world = w
    ScenarioRunner.ACTIONS["cancel_bid"](runner, {"book": "ob", "bid": "b9", "by": "alice"}, NOW)


class Row(NamedTuple):
    """A refusal: the function whose ``raise`` throws it, the error, the
    operation on a template copy and the message pattern."""

    site: str
    error: type[Exception]
    op: Callable[[World], object]
    match: str | None = None


#: row id -> the refusal
ROWS = {
    # -- ledger ------------------------------------------------------------
    "wrap-zero": Row("check_amount", ZeroAmount, lambda w: w.ledger.wrap("holder", 0, NOW)),
    "wrap-above-base": Row(
        "WrapperLedger.wrap", InsufficientBase, lambda w: w.ledger.wrap("holder", 60, NOW)
    ),
    "unwrap-unsettled": Row(
        "WrapperLedger.unwrap_to", InsufficientSettled, lambda w: w.ledger.unwrap("bob", 1, NOW)
    ),
    "unwrap-disabled": Row(
        "WrapperLedger.unwrap_to", UnwrapDisabled, lambda w: w.ledger.unwrap("idle", 1, NOW)
    ),
    "transfer-above-settled": Row(
        "WrapperLedger._transfer", InsufficientBalance,
        lambda w: w.ledger.transfer("idle", "bob", 6, False, NOW),
    ),
    "transfer-unsettled-as-settled": Row(
        "WrapperLedger._transfer", InsufficientBalance,
        lambda w: w.ledger.transfer("alice", "bob", 40, False, NOW),
    ),
    "transfer-frozen": Row(
        "WrapperLedger._transfer", FrozenFunds,
        lambda w: w.ledger.transfer("bob", "alice", 21, True, NOW),
    ),
    "transfer-to-self": Row(
        "WrapperLedger._transfer", SelfTransfer,
        lambda w: w.ledger.transfer("idle", "idle", 1, False, NOW),
    ),
    "transfer-zero": Row(
        "check_amount", ZeroAmount, lambda w: w.ledger.transfer("idle", "stranger", 0, False, NOW)
    ),
    "transfer-true": Row(
        "check_amount", TypeError,
        lambda w: w.ledger.transfer("idle", "stranger", True, False, NOW),
    ),
    "transfer-false": Row(
        "check_amount", TypeError,
        lambda w: w.ledger.transfer("idle", "stranger", False, False, NOW),
    ),
    "transfer-float": Row(
        "check_amount", TypeError, lambda w: w.ledger.transfer("idle", "stranger", 1.0, False, NOW)
    ),
    "transfer-negative": Row(
        "check_amount", ValueError, lambda w: w.ledger.transfer("idle", "stranger", -1, False, NOW)
    ),
    "transfer-to-arbitrator": Row(
        "WrapperLedger.check_name", ReservedName,
        lambda w: w.ledger.transfer("idle", ARB, 1, False, NOW),
    ),
    "wrap-before-genesis": Row(
        "WrapperLedger._went_back", ClockWentBack, lambda w: w.ledger.wrap("holder", 1, -1)
    ),
    "view-before-genesis": Row(
        "WrapperLedger._went_back", ClockWentBack, lambda w: w.ledger.settle_view("holder", -1)
    ),
    "base-transfer-above-holding": Row(
        "BaseLedger.transfer", InsufficientBase,
        lambda w: w.pools["pool"].deposit("holder", 60, NOW),
    ),
    "freeze-by-other": Row(
        "WrapperLedger.freeze", NotArbitrator,
        lambda w: w.ledger.freeze("eve", [("bob", 10)], "c2", NOW),
    ),
    "freeze-open-case": Row(
        "WrapperLedger.freeze", UnknownCase,
        lambda w: w.ledger.freeze(ARB, [("bob", 10)], "c1", NOW),
    ),
    "freeze-no-targets": Row(
        "WrapperLedger.freeze", ValueError, lambda w: w.ledger.freeze(ARB, [], "c2", NOW),
        match="at least one target",
    ),
    "freeze-one-above": Row(
        "WrapperLedger.freeze", InsufficientUnsettled,
        lambda w: w.ledger.freeze(ARB, [("bob", 21)], "c2", NOW),
    ),
    "recover-by-other": Row(
        "WrapperLedger._check_active", NotArbitrator,
        lambda w: w.ledger.recover("eve", "c1", "victim", NOW),
    ),
    "recover-closed-case": Row(
        "WrapperLedger._check_active", UnknownCase,
        lambda w: w.ledger.recover(ARB, "c0", "victim", NOW),
    ),
    "recover-unknown-case": Row(
        "WrapperLedger._check_active", UnknownCase,
        lambda w: w.ledger.recover(ARB, "ghost", "victim", NOW),
    ),
    "release-unknown-case": Row(
        "WrapperLedger._check_active", UnknownCase, lambda w: w.ledger.release(ARB, "ghost", NOW)
    ),
    "plan-above-transfer": Row(
        "WrapperLedger.plan_recovery", Uncoverable,
        lambda w: w.ledger.plan_recovery(_received(w, "alice"), 41, NOW),
        match="cannot recover 41 of a 40-token transfer",
    ),
    "plan-above-reach": Row(
        "WrapperLedger.plan_recovery", Uncoverable,
        lambda w: w.ledger.plan_recovery(_received(w, "bob"), 21, NOW),
        match="only 20 of 21 reachable",
    ),
    "plan-id-after-log": Row(
        "WrapperLedger._transfer_entry", ValueError,
        lambda w: w.ledger.plan_recovery(len(w.ledger.transfer_log) + 1, 10, NOW),
        match="unknown transfer id 13$",  # the template made 12 transfers
    ),
    "plan-id-zero": Row(
        "WrapperLedger._transfer_entry", ValueError, lambda w: w.ledger.plan_recovery(0, 10, NOW),
        match="unknown transfer id 0",
    ),
    # -- pools ---------------------------------------------------------------
    "deposit-zero": Row(
        "check_amount", ZeroAmount, lambda w: w.pools["pool"].deposit("lp", 0, NOW)
    ),
    "deposit-emptied": Row(
        "AmmPool.deposit", PoolEmptied, lambda w: w.pools["emptied"].deposit("holder", 1, NOW)
    ),
    "pool-at-arbitrator": Row(
        "WrapperLedger.check_name", ReservedName,
        lambda w: w.add_pool(ARB, risk_bounds=(0, PPM), **CONFIG),
    ),
    "pool-at-wrapper": Row(
        "WrapperLedger.check_name", ReservedName,
        lambda w: w.add_pool("<wrapper>", risk_bounds=(0, PPM), **CONFIG),
    ),
    "pool-at-nobody": Row(
        "WrapperLedger.check_name", ReservedName,
        lambda w: w.add_pool("<nobody>", risk_bounds=(0, PPM), **CONFIG),
    ),
    "pool-kappa-zero": Row(
        "AmmPool.__init__", ValueError,
        lambda w: w.add_pool("p2", risk_bounds=(0, PPM), **{**CONFIG, "kappa_ppm": 0}),
        match="kappa_ppm must be strictly between 0 and 1000000",
    ),
    "pool-kappa-one": Row(
        "AmmPool.__init__", ValueError,
        lambda w: w.add_pool("p2", risk_bounds=(0, PPM), **{**CONFIG, "kappa_ppm": PPM}),
        match="kappa_ppm must be strictly between 0 and 1000000",
    ),
    "pool-that-cannot-unwrap": Row(
        "AmmPool.__init__", ValueError,
        lambda w: w.add_pool("idle", risk_bounds=(0, PPM), **CONFIG), match="unwrapping disabled",
    ),
    "pool-name-taken": Row(
        "World.add_pool", ValueError, lambda w: w.add_pool("pool", risk_bounds=(0, PPM), **CONFIG),
        match="a pool named 'pool' already exists",
    ),
    "book-name-taken": Row(
        "World.add_book", ValueError, lambda w: w.add_book("ob"),
        match="a book named 'ob' already exists",
    ),
    "swap-pool-cannot-unwrap": Row(
        "AmmPool._check_unwrap", UnwrapDisabled, lambda w: _swap(w, _report(w), pool="locked")
    ),
    "withdraw-pool-cannot-unwrap": Row(
        "AmmPool._check_unwrap", UnwrapDisabled,
        lambda w: w.pools["locked"].withdraw("lp", 100, NOW),
    ),
    "withdraw-holding-none": Row(
        "AmmPool.withdraw", InsufficientLpTokens, lambda w: w.pools["pool"].withdraw("bob", 1, NOW)
    ),
    "withdraw-one-above": Row(
        "AmmPool.withdraw", InsufficientLpTokens,
        lambda w: w.pools["pool"].withdraw("lp", 101, NOW),
    ),
    "withdraw-frozen-share": Row(
        "WrapperLedger._transfer", FrozenFunds, lambda w: w.pools["pool"].withdraw("lp", 100, NOW)
    ),
    "swap-above-pool-settled": Row(
        "AmmPool.swap", InsufficientPoolSettled,
        lambda w: _swap(w, _report(w, amount=502), amount=502),
        match="pool has 450 settled, swap needs 451",
    ),
    "swap-of-settled-tokens": Row(
        "WrapperLedger._transfer", InsufficientBalance,
        lambda w: _swap(w, _report(w, requestor="idle", amount=5), requestor="idle", amount=5),
    ),
    "swap-after-flash-loan": Row(
        "validate_reports", StaleNonce,
        lambda w: _swap(w, _template()[1], requestor="flash", amount=100),
    ),
    # -- the oracle ------------------------------------------------------------
    "report-by-unregistered": Row(
        "issue_report", UnknownSigner,
        lambda w: issue_report(
            RatingEntity("ghost", b"", ConstantRiskModel(PPM)), w.registry, "bob", 10, NOW, 60,
            w.ledger,
        ),
    ),
    "report-ttl-zero": Row("issue_report", BadExpiry, lambda w: _report(w, ttl=0)),
    "report-ttl-negative": Row("issue_report", BadExpiry, lambda w: _report(w, ttl=-1)),
    "median-of-none": Row("median_quote", EmptyQuoteSet, lambda w: median_quote([])),
    "swap-without-reports": Row(
        "validate_reports", QuorumTooSmall, lambda w: _swap(w), match="0 reports, quorum is 1"
    ),
    "signer-twice": Row(
        "validate_reports", DuplicateSigner, lambda w: _swap(w, _report(w), _report(w))
    ),
    "signer-holding-none": Row(
        "validate_reports", SignerNotLp, lambda w: _swap(w, _report(w, "outsider")),
        match="outsider holds 0 LP tokens",
    ),
    "signer-holding-under-minimum": Row(
        "validate_reports", SignerNotLp, lambda w: _swap(w, _report(w, "minnow")),
        match="minnow holds 50 LP tokens, minimum deposit is 100",
    ),
    "signer-not-authorized": Row(
        "validate_reports", SignerNotAuthorized, lambda w: _swap(w, _report(w, "muted"))
    ),
    "nonce-moved-after-report": Row(
        "validate_reports", StaleNonce,
        lambda w: _validate(w, _template()[1], requestor="flash", amount=100),
    ),
    "report-expiring-now": Row(
        "validate_reports", ReportExpired, lambda w: _swap(w, _report(w, ttl=1, at=0))
    ),
    "report-for-other-requestor": Row(
        "validate_reports", RequestMismatch,
        lambda w: _validate(w, _report(w)._replace(requestor="alice")),
    ),
    "report-for-other-amount": Row(
        "validate_reports", RequestMismatch, lambda w: _validate(w, _report(w), amount=999)
    ),
    "quote-raised-after-signing": Row(
        "validate_reports", BadSignature,
        lambda w: _swap(w, _report(w)._replace(quote_ppm=900_001)),
        match="signature by lp does not verify",
    ),
    "quote-negative": Row(
        "validate_reports", BadSignature,
        lambda w: _validate(w, _report(w)._replace(quote_ppm=-1)),
        match="report by lp is not encodable",
    ),
    "quote-past-its-width": Row(
        "validate_reports", BadSignature,
        lambda w: _validate(w, _report(w)._replace(quote_ppm=2**32)),
        match="report by lp is not encodable",
    ),
    "expiry-past-its-width": Row(
        "validate_reports", BadSignature,
        lambda w: _validate(w, _report(w)._replace(expiry=2**64)),
        match="report by lp is not encodable",
    ),
    "amount-not-an-int": Row(
        "validate_reports", BadSignature, lambda w: _validate(w, _report(w)._replace(amount=10.0)),
        match="report by lp is not encodable",
    ),
    "median-above-bounds": Row(
        "validate_reports", OutOfRiskBounds, lambda w: _swap(w, _report(w, "high")),
        match=r"median 1000000 ppm outside \[600000, 950000\]",
    ),
    "median-below-bounds": Row(
        "validate_reports", OutOfRiskBounds, lambda w: _swap(w, _report(w, "low")),
        match=r"median 500000 ppm outside \[600000, 950000\]",
    ),
    # -- the order book ----------------------------------------------------------
    "bid-expiring-now": Row(
        "OrderBook.post_bid", BadExpiry, lambda w: w.books["ob"].post_bid("alice", 1, 0, NOW, NOW)
    ),
    "bid-zero": Row(
        "check_amount", ZeroAmount, lambda w: w.books["ob"].post_bid("alice", 0, 600_000, 90, NOW)
    ),
    "bid-one-above-holding": Row(
        "OrderBook.post_bid", InsufficientUnsettled,
        lambda w: w.books["ob"].post_bid("alice", 41, 600_000, 90, NOW),
    ),
    "cancel-by-other": Row(
        "OrderBook.cancel_bid", NotBidder, lambda w: w.books["ob"].cancel_bid("bob", 1)
    ),
    "cancel-filled": Row(
        "OrderBook._open_bid", BidNotOpen, lambda w: w.books["ob"].cancel_bid("erin", 4)
    ),
    "cancel-unknown": Row(
        "OrderBook._open_bid", BidNotOpen, lambda w: w.books["ob"].cancel_bid("alice", 99)
    ),
    "match-filled": Row(
        "OrderBook._open_bid", BidNotOpen, lambda w: w.books["ob"].match_bid("buyer", 4, 5, NOW)
    ),
    "match-at-expiry": Row(
        "OrderBook.match_bid", BidExpired, lambda w: w.books["ob"].match_bid("buyer", 1, 20, 90)
    ),
    "match-after-bidder-moved": Row(
        "OrderBook.match_bid", StaleNonce, lambda w: w.books["ob"].match_bid("buyer", 3, 5, NOW)
    ),
    "match-one-below-ask": Row(
        "OrderBook.match_bid", QuoteTooLow, lambda w: w.books["ob"].match_bid("buyer", 1, 19, NOW)
    ),
    "match-one-below-rounded-ask": Row(
        "OrderBook.match_bid", QuoteTooLow, lambda w: w.books["ob"].match_bid("buyer", 2, 55, NOW),
        match="offered 55, asking at least 56",
    ),
    "match-without-base": Row(
        "OrderBook.match_bid", InsufficientBase,
        lambda w: w.books["ob"].match_bid("pauper", 1, 20, NOW),
    ),
    "match-once-bid-settled": Row(
        "OrderBook.match_bid", InsufficientUnsettled,
        lambda w: w.books["ob"].match_bid("buyer", 2, 56, WINDOW),
    ),
    # -- the runner ----------------------------------------------------------------
    "unbound-label": Row("ScenarioRunner._label", UnboundLabel, _unbound_label),
    # -- the attack lab --------------------------------------------------------------
    "scenario-total-zero": Row(
        "AttackScenario.__new__", InvalidScenario, lambda _: scn(pool_total=0),
        match="pool total and LP supply must be positive",
    ),
    "scenario-supply-zero": Row(
        "AttackScenario.__new__", InvalidScenario, lambda _: scn(lp_supply=0),
        match="pool total and LP supply must be positive",
    ),
    "scenario-both-negative": Row(
        "AttackScenario.__new__", InvalidScenario,
        lambda _: scn(pool_total=-5, lp_supply=-1),
        match="pool total and LP supply must be positive",
    ),
    "scenario-total-above-supply": Row(
        "AttackScenario.__new__", InvalidScenario, lambda _: scn(pool_total=1001),
        match="pool total cannot exceed LP supply",
    ),
    "scenario-stolen-zero": Row(
        "AttackScenario.__new__", InvalidScenario, lambda _: scn(stolen=0),
        match="stolen amount must be positive",
    ),
    "scenario-stolen-negative": Row(
        "AttackScenario.__new__", InvalidScenario, lambda _: scn(stolen=-1),
        match="stolen amount must be positive",
    ),
    "payout-above-pool": Row(
        "_swap_payout", InvalidScenario,
        lambda _: simulate_attack(AttackScenario(1, 1, 0, 0, 10, PPM)),
        match="swap payout 10 exceeds pool capacity 1",
    ),
    "threshold-zero-short": Row("exact_threshold", ZeroShort, lambda _: exact_threshold(1000, 0)),
    "threshold-ppm-zero-short": Row(
        "exact_threshold", ZeroShort, lambda _: profitability_threshold(1000, 0)
    ),
    "threshold-short-above-supply": Row(
        "exact_threshold", InvalidScenario, lambda _: exact_threshold(10, 11),
        match="short must be between 1 and the LP supply",
    ),
    "threshold-ppm-short-above-supply": Row(
        "exact_threshold", InvalidScenario, lambda _: profitability_threshold(10, 11),
        match="short must be between 1 and the LP supply",
    ),
}


#: every site of a modelled error
MODELLED = sorted(
    (site for site in SITES if issubclass(site[1], RPoolError)),
    key=lambda site: (site[0], site[1].__name__),
)


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_a_refused_operation_raises_at_its_site_and_changes_nothing(row):
    world = _template()[0].copy()
    with refused(world, row.error, row.match, state=full_state) as info:
        row.op(world)
    at = raised_at(info.tb)
    assert at in SITES.get((row.site, row.error), ()), (
        f"raised at {at}: no raise of {row.error.__name__} in {row.site}"
    )


def test_every_modelled_error_has_a_raise_site():
    assert {error for _, error in MODELLED} == set(ERRORS_BY_NAME.values())


@pytest.mark.parametrize("site", MODELLED, ids=[f"{at}-{error.__name__}" for at, error in MODELLED])
def test_every_modelled_raise_site_has_a_row(site):
    assert len({file for file, _ in SITES[site]}) == 1, f"{site[0]} is named in two files"
    rows = {(row.site, row.error) for row in ROWS.values()}
    assert site in rows, f"add a row to ROWS for {site[1].__name__} at {site[0]}"
