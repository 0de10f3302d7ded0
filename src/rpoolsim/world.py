"""One world of ledgers, signers, pools and books, and the one definition of
its state: the :meth:`World.snapshot` a rejected step must leave unchanged,
and the :meth:`World.check_invariants` recount across every layer."""

from __future__ import annotations

from .amm import AmmPool
from .ledger import BaseLedger, WrapperLedger
from .oracle import RatingEntity, RiskModel, SignerRegistry
from .orderbook import CANCELLED, FILLED, OPEN, OrderBook

_BID_STATUSES = {OPEN, CANCELLED, FILLED}


class World:
    """The base ledger, the wrapper ledger over it, the signer registry, and
    the pools and order books by name."""

    def __init__(self, *, recovery_window: int, arbitrator: str) -> None:
        self.base = BaseLedger()
        self.ledger = WrapperLedger(
            self.base, recovery_window=recovery_window, arbitrator=arbitrator
        )
        self.registry = SignerRegistry()
        self.pools: dict[str, AmmPool] = {}
        self.books: dict[str, OrderBook] = {}

    def add_signer(self, name: str, model: RiskModel, authorized: bool = True) -> RatingEntity:
        """Register a signer's key and return the entity that signs with it."""
        secret, public = self.registry.scheme.keygen(name)
        self.registry.register(name, public, authorized=authorized)
        return RatingEntity(name, secret, model)

    def add_pool(self, name: str, **config) -> AmmPool:
        """An :class:`AmmPool` at address ``name`` on this world's ledger and registry."""
        pool = self.pools[name] = AmmPool(self.ledger, name, self.registry, **config)
        return pool

    def snapshot(self) -> dict:
        """The complete raw world state, by value (empty accounts excluded).

        Every mutable part is copied into tuples and fresh lists, so no later
        operation can change a snapshot taken before it.  Two snapshots are
        compared with ``==``.
        """
        return {
            "base": {name: amount for name, amount in self.base.balances.items() if amount},
            "supply": self.base.total_supply,
            "accounts": {
                name: (
                    acct.settled,
                    acct.nonce,
                    acct.unwrap_disabled,
                    [
                        (r.transfer_id, r.amount, r.settlement_time, r.frozen_amount)
                        for r in acct.unsettled
                    ]
                    if acct.unsettled
                    else [],  # most accounts hold no records: skip the comprehension
                )
                for name, acct in self.ledger.accounts.items()
                if acct.settled or acct.nonce or acct.unwrap_disabled or acct.unsettled
            },
            "cases": {
                cid: (case.status, [(acct, rec.transfer_id, amount) for acct, rec, amount in case.marks])
                for cid, case in self.ledger.cases.items()
            },
            "pools": {
                name: (pool.lp_supply, sorted(pool.lp_holdings.items()), len(pool.receipts))
                for name, pool in self.pools.items()
            },
            "books": {
                name: [
                    (b.bid_id, b.bidder, b.amount, b.min_rate_ppm, b.expiry, b.nonce_at_post, b.status)
                    for b in book.bids.values()
                ]
                for name, book in self.books.items()
            },
        }

    def check_invariants(self) -> None:
        """The ledger recount, then each pool's LP shares and each book's
        bid table: O(accounts + LP holders + bids), never O(receipts).

        Raises :class:`AssertionError` explicitly, so ``python -O`` checks too.
        """
        self.ledger.check_invariants()
        for name, pool in self.pools.items():
            held = sum(pool.lp_holdings.values())
            if pool.lp_supply != held:
                raise AssertionError(f"pool {name} lp_supply {pool.lp_supply} != {held} held")
            if not all(amount > 0 for amount in pool.lp_holdings.values()):
                raise AssertionError(f"pool {name} keeps an LP holding that is not positive")
        for name, book in self.books.items():
            if not all(key == bid.bid_id == n for n, (key, bid) in enumerate(book.bids.items(), 1)):
                raise AssertionError(f"book {name} bid ids are not 1..{len(book.bids)}")
            statuses = [bid.status for bid in book.bids.values()]
            if not _BID_STATUSES.issuperset(statuses):
                raise AssertionError(f"book {name} holds a bid of unknown status")
            filled = statuses.count(FILLED)
            if filled != len(book.fills):
                raise AssertionError(f"book {name} has {filled} filled bids, {len(book.fills)} fills")
