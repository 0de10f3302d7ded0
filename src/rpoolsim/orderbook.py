"""Order-book pool: bids for unsettled tokens, filled directly by LPs.

No funds are escrowed when a bid is posted; the match pulls base tokens
straight from the filling LP and unsettled tokens straight from the bidder,
atomically, after re-checking everything.  The LP that fills a bid carries
the entire clawback risk of the unsettled tokens it received — risk
assessment happens off-contract, per LP.

A bid carries the bidder's account nonce at posting time; a match is
rejected if the nonce has moved since, mirroring the automated pool's
anti-laundering defense.  Rejected matches are non-destructive: the bid
stays open.  A bid is an immutable value: a cancel or a fill puts a new
bid, the same but for its status, under its id in ``bids``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadExpiry,
    BidExpired,
    BidNotOpen,
    InsufficientBase,
    InsufficientUnsettled,
    NotBidder,
    QuoteTooLow,
    StaleNonce,
)
from .ledger import WrapperLedger, check_amount
from .rates import check_rate, mul_rate_ceil

OPEN = "open"
CANCELLED = "cancelled"
FILLED = "filled"


class Bid(NamedTuple):
    bid_id: int
    bidder: str
    amount: int
    min_rate_ppm: int
    expiry: int
    nonce_at_post: int
    status: str = OPEN


@dataclass(frozen=True)
class Fill:
    bid_id: int
    lp: str
    bidder: str
    amount_unsettled: int
    base_paid: int
    time: int
    transfer_id: int


class OrderBook:
    def __init__(self, ledger: WrapperLedger) -> None:
        self.ledger = ledger
        self.bids: dict[int, Bid] = {}
        self.fills: list[Fill] = []

    def post_bid(
        self, bidder: str, amount: int, min_rate_ppm: int, expiry: int, now: int
    ) -> int:
        check_amount(amount)
        check_rate(min_rate_ppm)
        if expiry <= now:
            raise BadExpiry(f"expiry {expiry} is not after {now}")
        available = self.ledger.available_unsettled(bidder, now)
        if available < amount:
            raise InsufficientUnsettled(
                f"{bidder} has {available} unsettled, bid is for {amount}"
            )
        bid = Bid(
            bid_id=len(self.bids) + 1,  # bids are never deleted
            bidder=bidder,
            amount=amount,
            min_rate_ppm=min_rate_ppm,
            expiry=expiry,
            nonce_at_post=self.ledger.nonce(bidder),
        )
        self.bids[bid.bid_id] = bid
        return bid.bid_id

    def _open_bid(self, bid_id: int) -> Bid:
        """The bid ``bid_id``, if it is still open."""
        bid = self.bids.get(bid_id)
        if bid is None or bid.status != OPEN:
            raise BidNotOpen(f"bid {bid_id} is not open")
        return bid

    def cancel_bid(self, caller: str, bid_id: int) -> None:
        bid = self._open_bid(bid_id)
        if caller != bid.bidder:
            raise NotBidder(f"{caller} does not own bid {bid_id}")
        self.bids[bid_id] = Bid(*bid[:-1], CANCELLED)

    def match_bid(self, lp: str, bid_id: int, offered_base: int, now: int) -> Fill:
        """Fill a bid: the LP pays ``offered_base`` for the bid's unsettled tokens.

        The minimum price check rounds in the bidder's favor: the offer must
        reach ceil(amount * min_rate).
        """
        check_amount(offered_base)
        bid = self._open_bid(bid_id)
        if now >= bid.expiry:
            raise BidExpired(f"bid {bid_id} expired at {bid.expiry}")
        current = self.ledger.nonce(bid.bidder)
        if current != bid.nonce_at_post:
            raise StaleNonce(
                f"bidder nonce moved from {bid.nonce_at_post} to {current}"
            )
        asking = mul_rate_ceil(bid.amount, bid.min_rate_ppm)
        if offered_base < asking:
            raise QuoteTooLow(f"offered {offered_base}, asking at least {asking}")
        lp_base = self.ledger.base.balance(lp)
        if lp_base < offered_base:
            raise InsufficientBase(f"{lp} holds {lp_base} base, offered {offered_base}")
        available = self.ledger.available_unsettled(bid.bidder, now)
        if available < bid.amount:
            raise InsufficientUnsettled(
                f"{bid.bidder} has {available} unsettled, bid is for {bid.amount}"
            )
        transfer_id = self.ledger.transfer_unsettled(bid.bidder, lp, bid.amount, now)
        self.ledger.base.transfer(lp, bid.bidder, offered_base)
        self.bids[bid_id] = Bid(*bid[:-1], FILLED)
        fill = Fill(
            bid_id=bid_id,
            lp=lp,
            bidder=bid.bidder,
            amount_unsettled=bid.amount,
            base_paid=offered_base,
            time=now,
            transfer_id=transfer_id,
        )
        self.fills.append(fill)
        return fill
