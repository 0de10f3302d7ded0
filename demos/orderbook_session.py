#!/usr/bin/env python3
"""Order-book pool session: bids, fills, and per-LP clawback risk.

Run:
    python3 demos/orderbook_session.py
"""

from rpoolsim import World
from rpoolsim.errors import BidNotOpen, QuoteTooLow, StaleNonce

world = World(recovery_window=86_400, arbitrator="arb")
base, ledger = world.base, world.ledger
book = world.add_book("book")

base.mint("lp", 200)
base.mint("whale", 300)
ledger.wrap("whale", 300, 0)
ledger.transfer("whale", "alice", 100, False, 0)

bid = book.post_bid("alice", 100, 500_000, expiry=900, now=0)
print(f"alice posts bid {bid}: 100 unsettled, minimum rate 0.5, expires t=900")

try:
    book.match_bid("lp", bid, 49, 1)
except QuoteTooLow as exc:
    print(f"lp offers 49: rejected ({exc})")

fill = book.match_bid("lp", bid, 50, 1)
print(f"lp offers 50: filled -- alice holds {base.balance('alice')} base,")
print(f"  lp now carries {ledger.balance_of('lp', True, 1)} unsettled wrapper tokens")

try:
    book.cancel_bid("alice", bid)
except BidNotOpen:
    print("alice cannot cancel a filled bid")

# the clawback lands entirely on the filling LP
ledger.freeze("arb", [("lp", 100)], "theft", 2)
ledger.recover("arb", "theft", "whale", 2)
print(f"after the clawback the lp holds {base.balance('lp')} base "
      f"and {ledger.balance_of('lp', True, 2)} wrapper tokens: net -50")

# nonce guard: a bid goes stale the moment the bidder's account moves
ledger.transfer("whale", "bob", 100, False, 3)
stale = book.post_bid("bob", 100, 500_000, expiry=900, now=3)
ledger.transfer("bob", "carol", 10, True, 4)
try:
    book.match_bid("lp", stale, 50, 5)
except StaleNonce:
    print(f"bid {stale} went stale when bob's account moved; it stays open for")
    print("  a fresh look rather than filling against outdated risk data")
