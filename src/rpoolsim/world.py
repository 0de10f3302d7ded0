"""One world of ledgers, signers, pools and books, and the one definition of
its state: the :meth:`World.snapshot` a rejected step must leave unchanged,
the :meth:`World.check_invariants` recount across every layer, and
:meth:`World.copy`, an equal world that shares no mutable object."""

from __future__ import annotations

from .amm import AmmPool
from .ledger import Account, BaseLedger, WrapperLedger
from .oracle import RatingEntity, RiskModel, SignerRegistry
from .orderbook import CANCELLED, FILLED, OPEN, OrderBook

_BID_STATUSES = {OPEN, CANCELLED, FILLED}


class World:
    """The base ledger, the wrapper ledger over it, the signer registry, and
    the pools and order books by name.

    :meth:`copy` returns an equal, independent world, so a caller can build
    a state once and run each trial on a copy of it.
    """

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

        Records, cases, bids and signer entries are immutable values and are
        listed as stored; every container is copied, so no later operation
        can change a snapshot taken before it.  The journal and the transfer
        log only grow, so their lengths stand for them.  Two snapshots are
        compared with ``==``.
        """
        return {
            "base": {name: amount for name, amount in self.base.balances.items() if amount},
            "supply": self.base.total_supply,
            "journal": len(self.base.journal),
            "transfers": len(self.ledger.transfer_log),
            "accounts": {
                name: (acct.settled, acct.nonce, acct.unwrap_disabled, list(acct.unsettled))
                for name, acct in self.ledger.accounts.items()
                if acct.settled or acct.nonce or acct.unwrap_disabled or acct.unsettled
            },
            "cases": dict(self.ledger.cases),
            "signers": dict(self.registry._signers),
            "pools": {
                name: (
                    pool.lp_supply,
                    sorted(pool.lp_holdings.items()),
                    len(pool.receipts),
                    pool.kappa_ppm,
                    pool.risk_bounds,
                    pool.min_quorum,
                    pool.min_lp_deposit,
                    pool.rate_cap_ppm,
                )
                for name, pool in self.pools.items()
            },
            "books": {
                name: (list(book.bids.values()), len(book.fills))
                for name, book in self.books.items()
            },
        }

    def copy(self) -> World:
        """An equal world that shares no mutable object with this one.

        Immutable parts are shared: journal entries (tuples and
        :class:`~rpoolsim.ledger.Transfer` rows), unsettled records, cases,
        bids, swap receipts, fills, key bytes and the stateless signature
        scheme.
        """
        new = _clone(self)
        base = new.base = _clone(self.base)
        base.balances = dict(self.base.balances)
        base.journal = list(self.base.journal)

        ledger = new.ledger = _clone(self.ledger)
        ledger.base = base
        accounts = ledger.accounts = {}
        for name, acct in self.ledger.accounts.items():
            copied = accounts[name] = Account.__new__(Account)
            copied.settled = acct.settled
            copied.nonce = acct.nonce
            copied.unwrap_disabled = acct.unwrap_disabled
            copied.unsettled_sum = acct.unsettled_sum
            copied.frozen_sum = acct.frozen_sum
            copied.unsettled = list(acct.unsettled)
        ledger.transfer_log = list(self.ledger.transfer_log)
        ledger._outflows = {sender: list(out) for sender, out in self.ledger._outflows.items()}
        ledger.cases = dict(self.ledger.cases)

        registry = new.registry = _clone(self.registry)
        registry._signers = dict(self.registry._signers)

        pools = new.pools = {}
        for name, pool in self.pools.items():
            copied = pools[name] = _clone(pool)
            copied.ledger = ledger
            copied.registry = registry
            copied.lp_holdings = dict(pool.lp_holdings)
            copied.receipts = list(pool.receipts)
        books = new.books = {}
        for name, book in self.books.items():
            copied = books[name] = _clone(book)
            copied.ledger = ledger
            copied.bids = dict(book.bids)
            copied.fills = list(book.fills)
        return new

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


def _clone(obj):
    """A new instance of ``obj``'s class whose attributes are ``obj``'s own
    values: the caller replaces the mutable ones."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    return new

