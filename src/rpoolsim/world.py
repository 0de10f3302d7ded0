"""One world of ledgers and taint set, signers, pools and books, and the one
definition of its state: the :meth:`World.snapshot` a rejected step must
leave unchanged, the :meth:`World.check_invariants` recount across every
layer, and :meth:`World.copy`, an equal world that shares no mutable object."""

from __future__ import annotations

from .amm import AmmPool
from .ledger import Account, BaseLedger, WrapperLedger
from .oracle import RatingEntity, RiskModel, SignerRegistry
from .orderbook import CANCELLED, FILLED, OPEN, OrderBook

_BID_STATUSES = {OPEN, CANCELLED, FILLED}


class World:
    """The base ledger, the wrapper ledger over it with its taint set, the
    signer registry and its rating entities, and the pools and books by name.

    :meth:`copy` returns an equal, independent world, so a caller can build
    a state once and run each trial on a copy of it.
    """

    def __init__(self, *, recovery_window: int, arbitrator: str) -> None:
        self.base = BaseLedger()
        self.ledger = WrapperLedger(
            self.base, recovery_window=recovery_window, arbitrator=arbitrator
        )
        self.registry = SignerRegistry()
        self.signers: dict[str, RatingEntity] = {}
        self.pools: dict[str, AmmPool] = {}
        self.books: dict[str, OrderBook] = {}

    def add_signer(self, name: str, model: RiskModel, authorized: bool = True) -> RatingEntity:
        """Register a signer's key, and keep and return the entity that signs with it."""
        secret, public = self.registry.scheme.keygen(name)
        self.registry.register(name, public, authorized=authorized)
        entity = self.signers[name] = RatingEntity(name, secret, model)
        return entity

    def add_pool(self, name: str, **config) -> AmmPool:
        """An :class:`AmmPool` at address ``name`` on this world's ledger and
        registry; a name another pool holds is refused before any write."""
        if name in self.pools:
            raise ValueError(f"a pool named {name!r} already exists")
        pool = self.pools[name] = AmmPool(self.ledger, name, self.registry, **config)
        return pool

    def add_book(self, name: str) -> OrderBook:
        """An empty :class:`OrderBook` named ``name`` on this world's ledger; a
        name another book holds is refused."""
        if name in self.books:
            raise ValueError(f"a book named {name!r} already exists")
        book = self.books[name] = OrderBook(self.ledger)
        return book

    def snapshot(self) -> dict:
        """The complete raw world state, by value.

        Every base balance and every account is listed, zero balances and
        empty accounts included: copying a container whole costs only its
        data, where filtering it costs a Python test per entry, and listing
        more can only tell more states apart.  Records, cases, bids and
        signer entries are immutable values, listed as stored, so a tuple of
        an account's records holds them by value (an account without records
        lists the shared empty tuple); models are listed by kind and rate;
        every container, the taint set too, is copied, so no later operation
        can change a snapshot taken before it.  The journal and the transfer
        log only grow, so their lengths stand for them.  Two snapshots are
        compared with ``==``.
        """
        return {
            "base": dict(self.base.balances),
            "supply": self.base.total_supply,
            "journal": len(self.base.journal),
            "transfers": len(self.ledger.transfer_log),
            "clock": self.ledger.clock,
            "accounts": {
                name: (acct.settled, acct.nonce, acct.unwrap_disabled, tuple(acct.unsettled))
                for name, acct in self.ledger.accounts.items()
            },
            "cases": dict(self.ledger.cases),
            "signers": dict(self.registry._signers),
            "models": {
                name: (type(entity.model).__name__, entity.model.rate_ppm)
                for name, entity in self.signers.items()
            },
            "tainted": sorted(self.ledger.tainted),
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

        The world, both ledgers, the registry and each pool and book are
        cloned by :func:`_clone`, their containers (the taint set too)
        replaced by each container's own ``.copy()``; each slotted account,
        rating entity and model is rebuilt.  Immutable parts are shared:
        journal entries (tuples and :class:`~rpoolsim.ledger.Transfer` rows),
        unsettled records, cases, bids, swap receipts, fills and key bytes.
        """
        new = _clone(self)
        base = new.base = _clone(self.base)
        base.balances = self.base.balances.copy()
        base.journal = self.base.journal.copy()

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
            copied.unsettled = acct.unsettled.copy()
        ledger.transfer_log = self.ledger.transfer_log.copy()
        outflows = ledger._outflows = {}
        for sender, out in self.ledger._outflows.items():
            outflows[sender] = out.copy()
        ledger.cases = self.ledger.cases.copy()
        ledger.tainted = self.ledger.tainted.copy()

        registry = new.registry = _clone(self.registry)
        registry._signers = self.registry._signers.copy()
        signers = new.signers = {}
        for name, entity in self.signers.items():
            model = entity.model
            signers[name] = RatingEntity(name, entity.secret, type(model)(model.rate_ppm))

        pools = new.pools = {}
        for name, pool in self.pools.items():
            copied = pools[name] = _clone(pool)
            copied.ledger = ledger
            copied.registry = registry
            copied.lp_holdings = pool.lp_holdings.copy()
            copied.receipts = pool.receipts.copy()
        books = new.books = {}
        for name, book in self.books.items():
            copied = books[name] = _clone(book)
            copied.ledger = ledger
            copied.bids = book.bids.copy()
            copied.fills = book.fills.copy()
        return new

    def check_invariants(self) -> None:
        """The ledger recount, then each pool's LP shares and each book's
        bid table: O(accounts + LP holders + bids), never O(receipts).

        Raises :class:`AssertionError` explicitly, so ``python -O`` checks too.
        """
        self.ledger.check_invariants()
        for name, pool in self.pools.items():
            holdings = pool.lp_holdings
            held = sum(holdings.values())
            if pool.lp_supply != held:
                raise AssertionError(f"pool {name} lp_supply {pool.lp_supply} != {held} held")
            if holdings and min(holdings.values()) <= 0:
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
    """A new instance of ``obj``'s class given a copy of ``obj``'s instance
    ``__dict__``: ``obj``'s values, of which the caller replaces the mutable."""
    new = object.__new__(type(obj))
    new.__dict__ = obj.__dict__.copy()
    return new
