"""Recoverable wrapped-token ledger.

Two ledgers cooperate.  A plain base-token ledger tracks ordinary fungible
balances.  The wrapper ledger locks base tokens at its own base-side address
and tracks, per account, a settled balance (immune to clawback, unwrappable
at any time) plus an ordered list of unsettled records still inside the
recovery window.  Every incoming transfer lands as one fresh unsettled
record whose window restarts at the recipient; the record is named by the
transfer that made it, so a transfer id names both.

Settlement is lazy: there is no background job.  Maturity is evaluated
against the caller-supplied clock: a record is settled once ``now >=
settlement_time``.  Every balance read and every debit sees an account
through one view at ``now``, ``_view``: its effective settled, unsettled
and frozen balances, and ``movable``, the value of the matured records,
which a fold at ``now`` would settle.

Three module-level primitives are the only code that edits an account's
records and its ``unsettled_sum``: ``_fold`` settles the matured records,
``_take`` takes value from the head of the list, and ``_put`` adds value at
a key.  Only a debit folds: before acting, a transfer or an unwrap folds its
sender and a freeze each target, each only when the account's oldest record
is due, since a fold changes nothing otherwise.

The ledger's ``clock`` is the latest ``now`` an accepted operation used,
from 0, a pool's or a book's operation included: one that writes no ledger
entry, such as posting a bid, stores its ``now`` here itself.  A call at an
earlier ``now`` raises ``ClockWentBack`` before any other check, as a chain
never runs a block before its parent's.  So no view can tell where a fold
happened.  Each method tests ``now < self.clock`` inline, so a call at or
after the clock pays one comparison, and only ``_went_back`` builds the
refusal.  A pool's or a book's operation reads the ledger at its ``now``,
or calls :meth:`WrapperLedger.check_clock`, before its own checks, so it
is refused first too.

Records are kept in ascending ``(settlement_time, transfer_id)`` order, so at
any ``now`` the matured records form a prefix of the list.  A new record is
due at ``now + recovery_window`` and its transfer id is the highest yet, so
``_put`` always appends it; only a release, which puts a mark back at its
key, inserts by bisection.

Frozen value lives in its case, not in the records.  A freeze takes the
value out of the account's records and keeps it as the case's marks,
``(account, key, amount)``, where the key ``(settlement_time,
transfer_id)`` names the record it came from; frozen value therefore
neither matures nor can be spent.  A recovery credits the marked total to
the victim and touches no record; a release puts each mark's value back at
its key, adding to the record if one is left or inserting a new one.

Each account also carries ``unsettled_sum``, the total of its records, and
``frozen_sum``, the total of the open cases' marks on it.  These derived
values let a balance view cost the matured prefix instead of the whole
list; :meth:`WrapperLedger.check_invariants` recounts them.

Records and cases are immutable values: an operation that changes one
puts a new value in its place in the account's list or in ``cases``, so a
copy of a world shares them and no snapshot rebuilds them.  Every record,
case and transfer row the ledger makes is built through a module-level
builder, ``_new_record``, ``_new_case`` or ``_new_transfer``, not through
its class's constructor; the values are the same.

Every operation records itself in the base ledger's journal, as a tuple
tagged by its kind.  A transfer's entry is one :class:`Transfer`, and that
same object is its transfer-log row: ``transfer_log`` is an index of the
journal's transfers by id, and the per-sender outflow index behind
:meth:`WrapperLedger.plan_recovery` holds those same objects, for the
transfers that drew on unsettled records, in log order.
:meth:`WrapperLedger.effects_since` folds the entries appended since a
mark into per-account balance changes, one rule per entry kind, so a
caller can tell what an operation changed without rescanning every account.

Key invariants maintained here and recounted by :meth:`WrapperLedger.check_invariants`:
  - the base ledger's total supply equals the sum of its balances;
  - the base tokens locked at the wrapper address equal the sum of all
    settled, unsettled and frozen wrapper balances;
  - no settled balance is negative;
  - each account's records are positive, in order, and sum to its
    ``unsettled_sum``;
  - each account's ``frozen_sum`` is the total of the open cases' marks on
    it, and no open mark names an account whose ``frozen_sum`` is 0.

The recount reads state only, not history: that each account's nonce rises
by one for every event it takes part in is checked by the replay oracle in
``tests/naive_ledger.py``, which rebuilds every balance and nonce from the
journal.
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Callable, Iterator
from typing import NamedTuple, NoReturn

from .errors import (
    ClockWentBack,
    FrozenFunds,
    InsufficientBalance,
    InsufficientBase,
    InsufficientSettled,
    InsufficientUnsettled,
    NotArbitrator,
    ReservedName,
    SelfTransfer,
    Uncoverable,
    UnknownCase,
    UnwrapDisabled,
    ZeroAmount,
)

#: Sentinel that is never allowed to hold an account.
NOBODY = "<nobody>"

#: The wrapper's own base-side address, where wrapped base tokens are locked.
WRAPPER_ADDRESS = "<wrapper>"

# Spend-source modes recorded in the transfer log.  The public transfer API
# exposes the first two; pools and the order book draw from unsettled
# records only, which is what makes their outbound risk traceable.
SPEND_SETTLED = "settled"
SPEND_SETTLED_THEN_UNSETTLED = "settled+unsettled"
SPEND_UNSETTLED = "unsettled"


def check_amount(amount: int) -> int:
    """Validate a token amount: a positive int (zero is a modeled rejection)."""
    if type(amount) is int and amount > 0:
        return amount
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise TypeError(f"amount must be an integer, got {amount!r}")
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    if amount == 0:
        raise ZeroAmount("amount must be positive")
    return amount


class UnsettledRecord(NamedTuple):
    """One freezable chunk of a recipient's balance, named by the transfer
    that made it: each transfer makes exactly one record, at its recipient.

    Its first two fields are its key, so a list of records sorts, and is
    searched by bisection, on the key alone.  ``amount`` is the unfrozen
    value it holds; what a case froze of it is in that case's marks.
    """

    settlement_time: int
    transfer_id: int
    amount: int


class Account:
    """One wrapper account.  Only ``_fold``, ``_put`` and ``_take`` edit its
    records and ``unsettled_sum``."""

    __slots__ = (
        "settled", "unsettled", "nonce", "unwrap_disabled", "unsettled_sum", "frozen_sum"
    )

    def __init__(self) -> None:
        self.settled = 0
        #: ascending (settlement_time, transfer_id)
        self.unsettled: list[UnsettledRecord] = []
        self.nonce = 0
        self.unwrap_disabled = False
        #: total of ``amount`` over ``unsettled``
        self.unsettled_sum = 0
        #: total of the open cases' marks on this account
        self.frozen_sum = 0


class Transfer(NamedTuple):
    """A transfer's journal entry, which is also its transfer-log row.

    ``kind`` is always ``"transfer"``, so ``entry[0]`` tags it like every
    other journal entry.  The one record it makes at the recipient carries
    its ``transfer_id``; ``unsettled_spent`` is the portion the sender drew
    from unsettled records, which is what downstream recovery liability
    attaches to.
    """

    kind: str
    sender: str
    recipient: str
    amount: int
    mode: str
    time: int
    transfer_id: int
    unsettled_spent: int


#: Records are built one of two ways, each timed by ``timeit`` with CPython
#: 3.11.7 on a 2-vCPU x86-64 host.  A named tuple's builder takes one tuple
#: of every field, in order, and returns the instance its constructor would:
#: calling ``tuple.__new__`` through ``partial`` skips the Python frame of
#: the constructor ``NamedTuple`` generates (310 vs 500 ns a record).  Like
#: ``_make`` without its length check, it trusts its caller to pass every
#: field.  The two frozen dataclasses, ``SwapReceipt`` and ``Fill``, are
#: slotted by hand: on Python 3.11 the class ``slots=True`` rebuilds has a
#: frozen ``__setattr__`` that raises ``TypeError`` for an unknown name.
#: Declared with ``init=False``, they take their ``__init__`` from
#: :func:`slot_initializer`, which stores each field through its slot's
#: member descriptor, looked up once at import; the dataclass's own calls
#: ``object.__setattr__``, which looks the field up on the class each time
#: (0.70 vs 1.30 us a receipt).
_new_record = functools.partial(tuple.__new__, UnsettledRecord)
_new_transfer = functools.partial(tuple.__new__, Transfer)


def slot_initializer(cls: type) -> type:
    """Give ``cls`` an ``__init__`` with one positional-or-keyword
    parameter per name in its ``__slots__``, in order, that stores each
    argument through that slot's member descriptor."""
    names = cls.__slots__
    stores = "".join(f"        set_{name}(self, {name})\n" for name in names)
    source = (
        f"def make({', '.join(f'set_{name}' for name in names)}):\n"
        f"    def __init__(self, {', '.join(names)}):\n{stores}"
        "    return __init__\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    init = namespace["make"](*(getattr(cls, name).__set__ for name in names))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


class Case(NamedTuple):
    #: (account, marked record's key, amount) marks placed by the freeze
    marks: tuple[tuple[str, tuple[int, int], int], ...]
    status: str = "active"  # active | recovered | released


#: Builds a :class:`Case` from one tuple of both fields, as the builders
#: above build records and transfer rows.
_new_case = functools.partial(tuple.__new__, Case)


#: sorts before every record key: no record is due before the clock's start, 0
_BEFORE_ANY_KEY = (-1, 0)


def _view(acct: Account | None, now: int) -> tuple[int, int, int, int]:
    """``acct``'s effective ``(settled, unsettled, frozen, movable)`` at
    ``now``, where ``movable`` is the value of the matured prefix: what a
    fold at ``now`` moves from unsettled to settled.  Frozen value counts
    as unsettled.  No account reads as all zeros."""
    if acct is None:
        return 0, 0, 0, 0
    movable = 0
    for time, _, amount in acct.unsettled:
        if time > now:
            break
        movable += amount
    frozen = acct.frozen_sum
    return acct.settled + movable, acct.unsettled_sum - movable + frozen, frozen, movable


def _fold(acct: Account, now: int) -> None:
    """Move ``acct``'s matured records into its settled balance."""
    records = acct.unsettled
    moved = matured = 0
    for time, _, amount in records:
        if time > now:
            break
        matured += 1
        moved += amount
    acct.settled += moved
    acct.unsettled_sum -= moved
    del records[:matured]


def _put(acct: Account, due: int, transfer_id: int, amount: int) -> None:
    """Add ``amount`` to ``acct``'s records at the key ``(due, transfer_id)``:
    append a key that sorts last, else add to or insert at its bisected place."""
    records = acct.unsettled
    acct.unsettled_sum += amount
    key = (due, transfer_id)
    if not records or records[-1] < key:  # a record with the key sorts after it
        records.append(_new_record((due, transfer_id, amount)))
        return
    index = bisect.bisect_left(records, key)
    if index < len(records) and records[index].transfer_id == transfer_id:
        records[index] = _new_record((due, transfer_id, records[index].amount + amount))
    else:
        records.insert(index, _new_record((due, transfer_id, amount)))


def _take(acct: Account, amount: int) -> list[tuple[tuple[int, int], int]]:
    """Take ``amount`` from the head of ``acct``'s records, in key order,
    and return ``(key, taken)`` for each record drawn on.  A record it
    empties leaves the list.  The caller has checked that the records
    hold ``amount``; the check is made again before anything is written."""
    records = acct.unsettled
    taken = []
    emptied = 0
    rest = amount
    for time, transfer_id, held in records:
        if held > rest:
            records[emptied] = _new_record((time, transfer_id, held - rest))
            taken.append(((time, transfer_id), rest))
            break
        taken.append(((time, transfer_id), held))
        emptied += 1
        rest -= held
        if not rest:
            break
    else:
        raise AssertionError("take called without sufficient validated funds")
    del records[:emptied]
    acct.unsettled_sum -= amount
    return taken


class BaseLedger:
    """Plain fungible-token ledger backing the wrapper."""

    def __init__(self) -> None:
        self.balances: dict[str, int] = {}
        self.total_supply = 0
        #: shared primitive-event journal (the wrapper appends here too) so
        #: an independent replay oracle can rebuild all state from genesis.
        self.journal: list[tuple] = []

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def mint(self, account: str, amount: int) -> None:
        check_amount(amount)
        self.balances[account] = self.balance(account) + amount
        self.total_supply += amount
        self.journal.append(("mint", account, amount))

    def transfer(self, sender: str, recipient: str, amount: int) -> None:
        check_amount(amount)
        balances = self.balances
        held = balances.get(sender, 0)
        if held < amount:
            raise InsufficientBase(f"{sender} holds {held} base, needs {amount}")
        balances[sender] = held - amount
        balances[recipient] = balances.get(recipient, 0) + amount
        self.journal.append(("base_transfer", sender, recipient, amount))


class WrapperLedger:
    """The recoverable wrapper around a :class:`BaseLedger`.

    All operations take an explicit ``now``, which keeps runs deterministic
    and replayable.  ``clock`` is the latest ``now`` an accepted operation
    used, and every method that takes ``now`` refuses an earlier one.
    """

    def __init__(
        self,
        base: BaseLedger,
        *,
        recovery_window: int,
        arbitrator: str,
    ) -> None:
        if recovery_window < 0:
            raise ValueError("recovery window must be non-negative")
        self.base = base
        self.recovery_window = recovery_window
        self.arbitrator = arbitrator
        self.address = WRAPPER_ADDRESS
        self.accounts: dict[str, Account] = {}
        #: the journal's transfers, by id: ``transfer_log[id - 1]``
        self.transfer_log: list[Transfer] = []
        #: sender -> its transfers with ``unsettled_spent > 0``
        self._outflows: dict[str, list[Transfer]] = {}
        self.cases: dict[str, Case] = {}
        #: the ids of the transfers marked as thefts: what taint-aware models read
        self.tainted: set[int] = set()
        self.clock = 0

    # -- account plumbing ---------------------------------------------------

    def check_name(self, name: str) -> None:
        """Reject the names that can never hold an account."""
        if name in (self.arbitrator, self.address, NOBODY):
            raise ReservedName(f"{name!r} is reserved and cannot hold an account")

    def _went_back(self, now: int) -> NoReturn:
        """Refuse ``now``, which is before the clock.  Each method that
        takes ``now`` tests ``now < self.clock`` inline, before any other
        check, and calls this only when the test holds."""
        raise ClockWentBack(f"now {now} is before the clock {self.clock}")

    def check_clock(self, now: int) -> None:
        """Refuse ``now`` if it is before the clock, for an operation that
        makes no ledger call before its own checks."""
        if now < self.clock:
            self._went_back(now)

    def _account(self, name: str) -> Account:
        """The account ``name``, created on first use.  The reserved names
        are fixed at construction, so only a new name needs checking."""
        acct = self.accounts.get(name)
        if acct is None:
            self.check_name(name)
            acct = self.accounts[name] = Account()
        return acct

    # -- views ---------------------------------------------------------------

    def settle_view(self, account: str, now: int) -> tuple[int, int]:
        """Effective (settled, unsettled) balances at ``now``; pure."""
        if now < self.clock:
            self._went_back(now)
        settled, unsettled, _, _ = _view(self.accounts.get(account), now)
        return settled, unsettled

    def balance_of(self, account: str, include_unsettled: bool, now: int) -> int:
        """The settled balance at ``now``, with the unsettled one if asked."""
        settled, unsettled = self.settle_view(account, now)
        return settled + unsettled if include_unsettled else settled

    def available_unsettled(self, account: str, now: int) -> int:
        """Unsettled value at ``now`` that is not under an active freeze."""
        if now < self.clock:
            self._went_back(now)
        _, unsettled, frozen, _ = _view(self.accounts.get(account), now)
        return unsettled - frozen

    def holds_record_from(self, account: str, transfer_id: int, now: int) -> bool:
        """Whether ``account`` still holds, at ``now``, unsettled value of
        the record made by the transfer ``transfer_id``: the record is
        present and not yet due, or an open case marks its key.

        A transfer's record is made at its recipient, never moves, and
        keeps its key ``(time + window, transfer_id)`` for life, so only the
        recipient's records are searched, by one bisection.  The open
        cases' marks are scanned, at a cost of one step per open mark, only
        when the recipient holds frozen value.  An id outside the transfer
        log names no record.
        """
        if now < self.clock:
            self._went_back(now)
        if not 0 < transfer_id <= len(self.transfer_log):
            return False
        entry = self.transfer_log[transfer_id - 1]
        acct = self.accounts.get(account)
        if acct is None or entry.recipient != account:
            return False
        key = (entry.time + self.recovery_window, transfer_id)
        if key[0] > now:
            records = acct.unsettled
            index = bisect.bisect_left(records, key)
            if index < len(records) and records[index].transfer_id == transfer_id:
                return True
        if acct.frozen_sum:
            for case in self.cases.values():
                if case.status == "active":
                    for marked, marked_key, _ in case.marks:
                        if marked == account and marked_key == key:
                            return True
        return False

    def nonce(self, account: str) -> int:
        acct = self.accounts.get(account)
        return 0 if acct is None else acct.nonce

    def is_unwrap_disabled(self, account: str) -> bool:
        acct = self.accounts.get(account)
        return False if acct is None else acct.unwrap_disabled

    def base_locked(self) -> int:
        return self.base.balance(self.address)

    def wrapped_total(self) -> int:
        """Recount of every settled and unsettled wrapper balance, frozen
        value included.

        It repeats part of :meth:`check_invariants`' recount, and stays
        because bench pool_deep's gate checks ``base_locked()`` against it:
        it can go only in a change that claims no gain and may edit the
        bench."""
        return sum(
            acct.settled + sum(rec.amount for rec in acct.unsettled) + acct.frozen_sum
            for acct in self.accounts.values()
        )

    # -- wrapping ------------------------------------------------------------

    def wrap(self, caller: str, amount: int, now: int) -> None:
        """Lock base tokens and mint the same amount of settled wrapper tokens."""
        if now < self.clock:
            self._went_back(now)
        check_amount(amount)
        if self.base.balance(caller) < amount:
            raise InsufficientBase(
                f"{caller} holds {self.base.balance(caller)} base, needs {amount}"
            )
        acct = self._account(caller)
        self.clock = now
        self.base.transfer(caller, self.address, amount)
        acct.settled += amount
        acct.nonce += 1
        self.base.journal.append(("wrap", caller, amount, now))

    def unwrap(self, caller: str, amount: int, now: int) -> None:
        self.unwrap_to(caller, amount, caller, now)

    def unwrap_to(self, caller: str, amount: int, to: str, now: int) -> None:
        """Burn settled wrapper tokens and release base tokens to ``to``."""
        if now < self.clock:
            self._went_back(now)
        check_amount(amount)
        acct = self.accounts.get(caller)
        if acct is not None and acct.unwrap_disabled:
            raise UnwrapDisabled(f"unwrapping is disabled for {caller}")
        settled, _, _, movable = _view(acct, now)
        if settled < amount:
            raise InsufficientSettled(
                f"{caller} has {settled} settled, needs {amount}; "
                "unsettled tokens cannot be unwrapped"
            )
        # a positive amount was covered, so the caller has an account
        self.clock = now
        if movable:
            _fold(acct, now)
        acct.settled -= amount
        acct.nonce += 1
        self.base.transfer(self.address, to, amount)
        self.base.journal.append(("unwrap", caller, to, amount, now))

    def disable_unwrap(self, caller: str) -> None:
        """Permanently disable unwrapping for the caller; idempotent."""
        acct = self._account(caller)
        acct.unwrap_disabled = True
        self.base.journal.append(("disable_unwrap", caller))

    # -- transfers -----------------------------------------------------------

    def transfer(
        self,
        sender: str,
        recipient: str,
        amount: int,
        include_unsettled: bool,
        now: int,
    ) -> int:
        """Move wrapper tokens; the recipient gets one fresh unsettled record.

        With ``include_unsettled`` the settled balance is spent first, then
        unsettled records in ascending settlement-time order.  Frozen
        portions are never spendable.  Returns the transfer id.
        """
        mode = SPEND_SETTLED_THEN_UNSETTLED if include_unsettled else SPEND_SETTLED
        return self._transfer(sender, recipient, amount, mode, now)

    def transfer_unsettled(
        self, sender: str, recipient: str, amount: int, now: int
    ) -> int:
        """Transfer drawing from unsettled records only (pool/book internals)."""
        return self._transfer(sender, recipient, amount, SPEND_UNSETTLED, now)

    def _transfer(
        self, sender: str, recipient: str, amount: int, mode: str, now: int
    ) -> int:
        if now < self.clock:
            self._went_back(now)
        check_amount(amount)
        if sender == recipient:
            raise SelfTransfer(f"{sender} cannot transfer to itself")

        acct = self.accounts.get(sender)
        settled, unsettled, frozen, movable = _view(acct, now)
        if mode == SPEND_SETTLED:
            # unsettled value neither counts nor explains a shortfall
            unsettled = frozen = 0
        elif mode == SPEND_UNSETTLED:
            settled = 0
        available = settled + unsettled - frozen
        if available < amount:
            if available + frozen >= amount:
                raise FrozenFunds(
                    f"{sender} has {available} spendable; {frozen} frozen"
                )
            raise InsufficientBalance(
                f"{sender} has {available} spendable, needs {amount}"
            )

        # a positive amount was covered, so the sender has an account
        recipient_acct = self.accounts.get(recipient) or self._account(recipient)
        self.clock = now
        if movable:
            _fold(acct, now)
        # settled is what this mode may draw from the settled balance; the
        # check above proved that the records hold the rest
        from_settled = settled if settled < amount else amount
        acct.settled -= from_settled
        unsettled_spent = amount - from_settled
        if unsettled_spent:
            _take(acct, unsettled_spent)

        transfer_id = len(self.transfer_log) + 1
        _put(recipient_acct, now + self.recovery_window, transfer_id, amount)
        entry = _new_transfer(
            ("transfer", sender, recipient, amount, mode, now, transfer_id, unsettled_spent)
        )
        self.base.journal.append(entry)
        self.transfer_log.append(entry)
        if unsettled_spent:
            self._outflows.setdefault(sender, []).append(entry)
        acct.nonce += 1
        recipient_acct.nonce += 1
        return transfer_id

    # -- freezing and recovery ------------------------------------------------

    def freeze(
        self,
        caller: str,
        targets: list[tuple[str, int]],
        case_id: str,
        now: int,
    ) -> None:
        """Freeze unsettled value on the target accounts under ``case_id``.

        Each account's due records are folded first; the value is then
        taken from its records in ascending key order and kept as the
        case's marks.  Frozen value cannot be spent and cannot mature until
        the case closes via :meth:`recover` or :meth:`release`.
        """
        if now < self.clock:
            self._went_back(now)
        if caller != self.arbitrator:
            raise NotArbitrator(f"{caller} is not the arbitrator")
        if case_id in self.cases:
            raise UnknownCase(f"case {case_id!r} already used")
        if not targets:
            raise ValueError("freeze requires at least one target")
        wanted: dict[str, int] = {}
        for account, amount in targets:
            check_amount(amount)
            wanted[account] = wanted.get(account, 0) + amount
        for account, total in wanted.items():
            _, unsettled, frozen, _ = _view(self.accounts.get(account), now)
            if unsettled - frozen < total:
                raise InsufficientUnsettled(
                    f"{account} has {unsettled - frozen} freezable unsettled, needs {total}"
                )

        self.clock = now
        marks: list[tuple[str, tuple[int, int], int]] = []
        for account, total in wanted.items():
            acct = self.accounts[account]
            # a positive total was covered, so the account holds a record
            if acct.unsettled[0].settlement_time <= now:
                _fold(acct, now)
            for key, taken in _take(acct, total):
                marks.append((account, key, taken))
            acct.frozen_sum += total
            acct.nonce += 1
        self.cases[case_id] = _new_case((tuple(marks), "active"))
        self.base.journal.append(
            ("freeze", case_id, tuple(sorted(wanted.items())), now)
        )

    def recover(self, caller: str, case_id: str, victim: str, now: int) -> int:
        """Move all frozen value of the case into the victim's settled balance."""
        if now < self.clock:
            self._went_back(now)
        self._check_active(caller, case_id)
        victim_acct = self._account(victim)
        self.clock = now
        total = self._close(case_id, "recovered")
        victim_acct.settled += total
        victim_acct.nonce += 1
        self.base.journal.append(("recover", case_id, victim, now))
        return total

    def release(self, caller: str, case_id: str, now: int) -> None:
        """Lift the case's freeze; records resume maturing normally."""
        if now < self.clock:
            self._went_back(now)
        self._check_active(caller, case_id)
        self.clock = now
        self._close(case_id, "released")
        self.base.journal.append(("release", case_id, now))

    def _check_active(self, caller: str, case_id: str) -> None:
        """Reject a close unless ``case_id`` is open and ``caller`` may close it."""
        if caller != self.arbitrator:
            raise NotArbitrator(f"{caller} is not the arbitrator")
        case = self.cases.get(case_id)
        if case is None or case.status != "active":
            raise UnknownCase(f"no active case {case_id!r}")

    def _close(self, case_id: str, status: str) -> int:
        """Take each mark's value out of its account's ``frozen_sum``, count
        the close once in each marked account's nonce, close the case as
        ``status`` and return the marked total.  A release puts each mark's
        value back at its key; a recovery leaves the caller to credit it."""
        marks = self.cases[case_id].marks
        released = status == "released"
        total = 0
        for account, (due, transfer_id), amount in marks:
            acct = self.accounts[account]
            acct.frozen_sum -= amount
            total += amount
            if released:
                _put(acct, due, transfer_id, amount)
        for account in _marked_accounts(marks):
            self.accounts[account].nonce += 1
        self.cases[case_id] = _new_case((marks, status))
        return total

    def plan_recovery(
        self, tainted_transfer_id: int, amount: int, now: int
    ) -> list[tuple[str, int]]:
        """Compute freeze targets covering ``amount`` of a tainted transfer.

        The direct recipient's remaining unsettled value is targeted first.
        Any deficiency falls on recipients of the direct recipient's
        subsequent unsettled outflows, most recent first — so parties that
        withdrew risky funds after the tainted inflow still share the loss.
        The returned plan always totals exactly ``amount`` and every target
        holds enough freezable unsettled for the follow-up freeze to succeed.
        """
        check_amount(amount)
        entry = self._transfer_entry(tainted_transfer_id)
        if amount > entry.amount:
            raise Uncoverable(
                f"cannot recover {amount} of a {entry.amount}-token transfer"
            )
        plan: dict[str, int] = {}
        remaining = amount

        recipient = entry.recipient
        take = min(remaining, self.available_unsettled(recipient, now))
        if take:
            plan[recipient] = take
            remaining -= take

        if remaining:
            outflows = self._outflows.get(recipient, [])
            first = bisect.bisect_right(
                outflows, tainted_transfer_id, key=lambda e: e.transfer_id
            )
            for index in range(len(outflows) - 1, first - 1, -1):  # most recent first
                if not remaining:
                    break
                out = outflows[index]
                headroom = self.available_unsettled(out.recipient, now) - plan.get(
                    out.recipient, 0
                )
                take = min(remaining, out.unsettled_spent, headroom)
                if take > 0:
                    plan[out.recipient] = plan.get(out.recipient, 0) + take
                    remaining -= take
        if remaining:
            raise Uncoverable(
                f"only {amount - remaining} of {amount} reachable from "
                f"transfer {tainted_transfer_id}"
            )
        return list(plan.items())

    def _transfer_entry(self, transfer_id: int) -> Transfer:
        index = transfer_id - 1
        if not 0 <= index < len(self.transfer_log):
            raise ValueError(f"unknown transfer id {transfer_id}")
        return self.transfer_log[index]

    # -- effects of journal entries ---------------------------------------------

    def mark(self) -> int:
        """Position in the journal, for :meth:`effects_since`."""
        return len(self.base.journal)

    def effects_since(self, mark: int) -> dict[str, dict[str, int]]:
        """Per-account changes to ``base``, effective ``settled`` and
        ``unsettled``, and ``nonce``, made by the journal entries appended
        since ``mark``.

        Each entry is folded by its kind's rule in ``_EFFECTS``, which reads
        maturity at the time in that entry; the spend split of a
        ``transfer`` comes from its own entry, and the marks a ``recover``
        or ``release`` closed from ``cases``.  Zero changes and the
        wrapper's own base address are left out; accounts come out sorted
        by name.

        When every entry since ``mark`` was made at one time ``now``, as one
        scenario step's are, the result is the change in :meth:`settle_view`
        at ``now``: an operation folds what is due first, so a freeze or a
        spend at ``now`` acts on records not yet due.
        """
        totals: dict[str, dict[str, int]] = {}
        for entry in self.base.journal[mark:]:
            for account, key, change in _EFFECTS[entry[0]](self, entry):
                fields = totals.get(account)
                if fields is None:
                    totals[account] = {key: change}
                else:
                    fields[key] = fields.get(key, 0) + change
        totals.pop(self.address, None)
        effects = {}
        for account in sorted(totals):
            fields = totals[account]
            if 0 in fields.values():
                fields = {key: change for key, change in fields.items() if change}
                if not fields:
                    continue
            effects[account] = fields
        return effects

    # -- genesis and invariants ------------------------------------------------

    def genesis_settled(self, account: str, amount: int) -> None:
        """Endow an account with settled wrapper tokens at time zero.

        Mints the backing base supply directly into the wrapper's locked
        address, so conservation holds from the first event.  Does not touch
        the nonce: genesis is state, not an event.
        """
        check_amount(amount)
        acct = self._account(account)
        self.base.mint(self.address, amount)
        acct.settled += amount
        self.base.journal.append(("genesis_settled", account, amount))

    def check_invariants(self) -> None:
        """Recount every balance in one pass and compare the cached sums.

        Raises :class:`AssertionError` explicitly rather than through
        ``assert``, so the check also runs under ``python -O``.  An account
        without records or frozen value is checked in one test: its settled
        balance is not negative and both its cached sums are zero, and which
        of those failed is worked out only when one did.  An account's
        ``frozen_sum`` is the total of the open cases' marks on it, and no
        open mark names an account whose ``frozen_sum`` is 0.
        """
        if self.base.total_supply != sum(self.base.balances.values()):
            raise AssertionError("base supply out of balance")
        marked: dict[str, int] = {}
        for case in self.cases.values():
            if case.status == "active":
                for account, _, amount in case.marks:
                    marked[account] = marked.get(account, 0) + amount
        wrapped = 0
        for name, acct in self.accounts.items():
            settled = acct.settled
            records = acct.unsettled
            if not records and not (settled < 0 or acct.unsettled_sum or acct.frozen_sum):
                wrapped += settled
                continue
            if settled < 0:
                raise AssertionError(f"{name} settled negative")
            unsettled = 0
            last_time, last_id = _BEFORE_ANY_KEY
            for time, transfer_id, amount in records:
                if amount <= 0:
                    raise AssertionError(f"{name} holds an empty record")
                if time < last_time or (time == last_time and transfer_id <= last_id):
                    raise AssertionError(f"{name} records out of order")
                last_time, last_id = time, transfer_id
                unsettled += amount
            if acct.unsettled_sum != unsettled:
                raise AssertionError(
                    f"{name} unsettled_sum {acct.unsettled_sum} != recount {unsettled}"
                )
            frozen = acct.frozen_sum
            if frozen:
                expected = marked.pop(name, 0)
                if frozen != expected:
                    raise AssertionError(f"{name} frozen_sum {frozen} != {expected} marked")
            wrapped += settled + unsettled + frozen
        if marked:
            account, amount = next(iter(marked.items()))
            raise AssertionError(f"{account}: {amount} marked, frozen_sum 0")
        if self.base_locked() != wrapped:
            raise AssertionError(
                f"locked base {self.base_locked()} != wrapped total {wrapped}"
            )


def _marked_accounts(marks: tuple) -> dict[str, None]:
    """A case's marked accounts, each once, in mark order."""
    return {account: None for account, _, _ in marks}


# -- journal kind -> its effect on (base, settled, unsettled, nonce) ----------
#
# Each rule reads one journal entry against the ledger as the step left it
# and yields (account, field, change).  Settled and unsettled are effective
# balances at the entry's own time, as settle_view reports them: a record
# due at or before that time counts as settled, and frozen value as unsettled.

_Effects = Iterator[tuple[str, str, int]]


def _mint_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, account, amount = entry
    yield account, "base", amount


def _base_transfer_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, sender, recipient, amount = entry
    yield sender, "base", -amount
    yield recipient, "base", amount


def _genesis_settled_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, account, amount = entry
    yield account, "settled", amount


def _wrap_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, caller, amount, _ = entry
    yield caller, "settled", amount
    yield caller, "nonce", 1


def _unwrap_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, caller, _, amount, _ = entry  # the base paid out is its own base_transfer
    yield caller, "settled", -amount
    yield caller, "nonce", 1


def _transfer_effects(ledger: WrapperLedger, entry: Transfer) -> _Effects:
    sender, recipient, amount = entry.sender, entry.recipient, entry.amount
    spent = entry.unsettled_spent
    yield sender, "settled", spent - amount
    yield sender, "unsettled", -spent
    yield sender, "nonce", 1
    # the recipient's record is due at entry.time + window, so it is
    # settled already at the entry's time iff the window is zero
    yield recipient, "unsettled" if ledger.recovery_window else "settled", amount
    yield recipient, "nonce", 1


def _freeze_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, _, wanted, _ = entry
    for account, _ in wanted:
        yield account, "nonce", 1


def _recover_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, case_id, victim, _ = entry
    case = ledger.cases[case_id]
    total = 0
    for account, _, amount in case.marks:
        yield account, "unsettled", -amount
        total += amount
    for account in _marked_accounts(case.marks):
        yield account, "nonce", 1
    # the victim may also be a marked account: its nonce then rises twice
    yield victim, "settled", total
    yield victim, "nonce", 1


def _release_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    _, case_id, now = entry
    case = ledger.cases[case_id]
    for account, (due, _), amount in case.marks:
        if due <= now:
            # the mark comes back as a due record, which reads as settled
            yield account, "settled", amount
            yield account, "unsettled", -amount
    for account in _marked_accounts(case.marks):
        yield account, "nonce", 1


def _no_effects(ledger: WrapperLedger, entry: tuple) -> _Effects:
    return iter(())


_EFFECTS: dict[str, Callable[[WrapperLedger, tuple], _Effects]] = {
    "mint": _mint_effects,
    "base_transfer": _base_transfer_effects,
    "genesis_settled": _genesis_settled_effects,
    "wrap": _wrap_effects,
    "unwrap": _unwrap_effects,
    "transfer": _transfer_effects,
    "freeze": _freeze_effects,
    "recover": _recover_effects,
    "release": _release_effects,
    "disable_unwrap": _no_effects,
}
