"""Recoverable wrapped-token ledger.

Two ledgers cooperate.  A plain base-token ledger tracks ordinary fungible
balances.  The wrapper ledger locks base tokens at its own base-side address
and tracks, per account, a settled balance (immune to clawback, unwrappable
at any time) plus an ordered list of unsettled records still inside the
recovery window.  Every incoming transfer lands as one fresh unsettled
record whose window restarts at the recipient; the record is named by the
transfer that made it, so a transfer id names both.

Settlement is lazy: there is no background job.  Maturity is evaluated
against the caller-supplied clock, and mutating operations fold matured
records into the settled balance before acting.  A record is settled once
``now >= settlement_time``.  Frozen portions never mature while their case
is open.

Records are kept in ascending ``(settlement_time, transfer_id)`` order, so at
any ``now`` the matured records form a prefix of the list; maturing,
spending and freezing all act on that prefix.  A new record is due at
``now + recovery_window`` and its transfer id is the highest yet, so while
the caller's clock never goes back it sorts last and is appended.  Only a
record due before the recipient's last one (the clock went back) is
inserted by bisection.  Each account also carries
``unsettled_sum`` and ``frozen_sum``, the totals of its records' ``amount``
and ``frozen_amount``.  They are derived values, updated wherever a record
changes, so that balance views cost the matured prefix instead of the whole
list; :meth:`WrapperLedger.check_invariants` recounts them from the records.

Records and cases are immutable values: an operation that changes one
puts a new value in its place in the account's list or in ``cases``, so a
copy of a world shares them and no snapshot rebuilds them.  A record keeps
its key ``(settlement_time, transfer_id)``, its first two fields, for
life.  A case's freeze marks records by that key, as
``(account, key, amount)``, and finds each again by bisection when the
case closes, so every record is held by its account's list alone.

Every operation records itself in the base ledger's journal, as a tuple
tagged by its kind.  A transfer's entry is one :class:`Transfer`, and that
same object is its transfer-log row: ``transfer_log`` is an index of the
journal's transfers by id, and the per-sender outflow index behind
:meth:`WrapperLedger.plan_recovery` holds those same objects, for the
transfers that drew on unsettled records, in log order.
:meth:`WrapperLedger.effects_since` folds the entries appended since a
mark into per-account balance changes, one rule per entry kind, so a
caller can tell what an operation changed without rescanning every account.

Key invariants maintained here and asserted by :meth:`WrapperLedger.check_invariants`:
  - base-token total supply is conserved by every operation;
  - the base tokens locked at the wrapper address equal the sum of all
    settled and unsettled (including frozen) wrapper balances;
  - each account's records are non-empty, in order, and sum to its
    ``unsettled_sum`` and ``frozen_sum``;
  - each record's frozen amount is the total of the active cases' marks on
    its key, and every such mark names a record that holds it;
  - each account's nonce increments by exactly one for every ledger event
    the account participates in;
  - no operation other than recover/release ever reduces a frozen amount.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .errors import (
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
    searched by bisection, on the key alone.
    """

    settlement_time: int
    transfer_id: int
    amount: int
    frozen_amount: int = 0


class Account:
    __slots__ = (
        "settled", "unsettled", "nonce", "unwrap_disabled", "unsettled_sum", "frozen_sum"
    )

    def __init__(self) -> None:
        self.settled = 0
        #: ascending (settlement_time, transfer_id)
        self.unsettled: list[UnsettledRecord] = []
        self.nonce = 0
        self.unwrap_disabled = False
        #: totals of ``amount`` and ``frozen_amount`` over ``unsettled``
        self.unsettled_sum = 0
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


class Case(NamedTuple):
    #: (account, marked record's key, amount) marks placed by the freeze
    marks: tuple[tuple[str, tuple[int, int], int], ...]
    status: str = "active"  # active | recovered | released


#: sorts before every record key: the caller's clock may be negative
_BEFORE_ANY_KEY = (float("-inf"), 0)


def _matured_movable(records: list[UnsettledRecord], now: int) -> int:
    """Unfrozen value of the matured prefix: what a fold at ``now`` moves."""
    movable = 0
    for time, _, amount, frozen in records:
        if time > now:
            break
        movable += amount - frozen
    return movable


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

    All operations take an explicit ``now``; the ledger holds no clock of
    its own, which keeps runs deterministic and replayable.
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

    # -- account plumbing ---------------------------------------------------

    def check_name(self, name: str) -> None:
        """Reject the names that can never hold an account."""
        if name in (self.arbitrator, self.address, NOBODY):
            raise ReservedName(f"{name!r} is reserved and cannot hold an account")

    def _account(self, name: str) -> Account:
        """The account ``name``, created on first use.  The reserved names
        are fixed at construction, so only a new name needs checking."""
        acct = self.accounts.get(name)
        if acct is None:
            self.check_name(name)
            acct = self.accounts[name] = Account()
        return acct

    def _settle_account(self, acct: Account, now: int) -> None:
        """Fold matured, unfrozen value into the settled balance."""
        records = acct.unsettled
        kept: list[UnsettledRecord] = []
        moved = matured = 0
        for time, transfer_id, amount, frozen in records:
            if time > now:
                break
            matured += 1
            moved += amount - frozen
            if frozen:
                # Frozen remainder stays unsettled until the case closes.
                kept.append(UnsettledRecord(time, transfer_id, frozen, frozen))
        # Nothing moved means every matured record is wholly frozen and stays.
        if moved:
            acct.settled += moved
            acct.unsettled_sum -= moved
            records[:matured] = kept

    # -- views ---------------------------------------------------------------

    def settle_view(self, account: str, now: int) -> tuple[int, int]:
        """Effective (settled, unsettled) balances at ``now``; pure."""
        acct = self.accounts.get(account)
        if acct is None:
            return 0, 0
        movable = _matured_movable(acct.unsettled, now)
        return acct.settled + movable, acct.unsettled_sum - movable

    def balance_of(self, account: str, include_unsettled: bool, now: int) -> int:
        settled, unsettled = self.settle_view(account, now)
        return settled + unsettled if include_unsettled else settled

    def available_unsettled(self, account: str, now: int) -> int:
        """Unsettled value at ``now`` that is not under an active freeze."""
        acct = self.accounts.get(account)
        if acct is None:
            return 0
        return (
            acct.unsettled_sum
            - acct.frozen_sum
            - _matured_movable(acct.unsettled, now)
        )

    def holds_record_from(self, account: str, transfer_id: int, now: int) -> bool:
        """Whether ``account`` still holds, at ``now``, unsettled value of
        the record made by the transfer ``transfer_id``: the record is not
        yet due, or part of it is frozen.

        A transfer's record is made at its recipient, never moves, and
        keeps its key ``(time + window, transfer_id)`` for life, so only the
        recipient is searched, by one bisection.  An id outside the
        transfer log names no record.
        """
        if not 0 < transfer_id <= len(self.transfer_log):
            return False
        entry = self.transfer_log[transfer_id - 1]
        acct = self.accounts.get(account)
        if acct is None or entry.recipient != account:
            return False
        records = acct.unsettled
        due = entry.time + self.recovery_window
        index = bisect.bisect_left(records, (due, transfer_id))
        if index == len(records) or records[index].transfer_id != transfer_id:
            return False
        return due > now or records[index].frozen_amount > 0

    def nonce(self, account: str) -> int:
        acct = self.accounts.get(account)
        return 0 if acct is None else acct.nonce

    def is_unwrap_disabled(self, account: str) -> bool:
        acct = self.accounts.get(account)
        return False if acct is None else acct.unwrap_disabled

    def base_locked(self) -> int:
        return self.base.balance(self.address)

    def wrapped_total(self) -> int:
        """Recount of every settled and unsettled wrapper balance."""
        return sum(
            acct.settled + sum(rec.amount for rec in acct.unsettled)
            for acct in self.accounts.values()
        )

    # -- wrapping ------------------------------------------------------------

    def wrap(self, caller: str, amount: int, now: int) -> None:
        """Lock base tokens and mint the same amount of settled wrapper tokens."""
        check_amount(amount)
        if self.base.balance(caller) < amount:
            raise InsufficientBase(
                f"{caller} holds {self.base.balance(caller)} base, needs {amount}"
            )
        acct = self._account(caller)
        self._settle_account(acct, now)
        self.base.transfer(caller, self.address, amount)
        acct.settled += amount
        acct.nonce += 1
        self.base.journal.append(("wrap", caller, amount, now))

    def unwrap(self, caller: str, amount: int, now: int) -> None:
        self.unwrap_to(caller, amount, caller, now)

    def unwrap_to(self, caller: str, amount: int, to: str, now: int) -> None:
        """Burn settled wrapper tokens and release base tokens to ``to``."""
        check_amount(amount)
        acct = self.accounts.get(caller)
        if acct is not None and acct.unwrap_disabled:
            raise UnwrapDisabled(f"unwrapping is disabled for {caller}")
        settled, _ = self.settle_view(caller, now)
        if settled < amount:
            raise InsufficientSettled(
                f"{caller} has {settled} settled, needs {amount}; "
                "unsettled tokens cannot be unwrapped"
            )
        assert acct is not None
        self._settle_account(acct, now)
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
        check_amount(amount)
        if sender == recipient:
            raise SelfTransfer(f"{sender} cannot transfer to itself")

        settled, unsettled = self.settle_view(sender, now)
        acct = self.accounts.get(sender)
        frozen = 0 if acct is None else acct.frozen_sum
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

        recipient_acct = self._account(recipient)
        sender_acct = self.accounts[sender]
        self._settle_account(sender_acct, now)
        unsettled_spent = self._spend(sender_acct, amount, mode)

        transfer_id = len(self.transfer_log) + 1
        due = now + self.recovery_window
        record = UnsettledRecord(due, transfer_id, amount)
        records = recipient_acct.unsettled
        # the new id is the highest yet, so an equal due time sorts last too
        if not records or records[-1].settlement_time <= due:
            records.append(record)
        else:
            bisect.insort(records, record)
        recipient_acct.unsettled_sum += amount
        entry = Transfer(
            "transfer", sender, recipient, amount, mode, now, transfer_id, unsettled_spent
        )
        self.base.journal.append(entry)
        self.transfer_log.append(entry)
        if unsettled_spent:
            self._outflows.setdefault(sender, []).append(entry)
        sender_acct.nonce += 1
        recipient_acct.nonce += 1
        return transfer_id

    @staticmethod
    def _spend(acct: Account, amount: int, mode: str) -> int:
        remaining = amount
        if mode != SPEND_UNSETTLED:
            take = min(acct.settled, remaining)
            acct.settled -= take
            remaining -= take
        unsettled_spent = remaining
        if remaining:
            records = acct.unsettled
            kept: list[UnsettledRecord] = []
            walked = 0
            for time, transfer_id, held, frozen in records:
                if not remaining:
                    break
                walked += 1
                take = min(held - frozen, remaining)
                remaining -= take
                if held > take:
                    kept.append(UnsettledRecord(time, transfer_id, held - take, frozen))
            records[:walked] = kept
            acct.unsettled_sum -= unsettled_spent
        assert remaining == 0, "spend called without sufficient validated funds"
        return unsettled_spent

    # -- freezing and recovery ------------------------------------------------

    def freeze(
        self,
        caller: str,
        targets: list[tuple[str, int]],
        case_id: str,
        now: int,
    ) -> None:
        """Mark unsettled value on the target accounts under ``case_id``.

        Marks are placed on records in ascending settlement-time order.
        Frozen value cannot be spent and cannot mature until the case closes
        via :meth:`recover` or :meth:`release`.
        """
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
            available = self.available_unsettled(account, now)
            if available < total:
                raise InsufficientUnsettled(
                    f"{account} has {available} freezable unsettled, needs {total}"
                )

        marks: list[tuple[str, tuple[int, int], int]] = []
        for account, total in wanted.items():
            acct = self.accounts[account]
            self._settle_account(acct, now)
            remaining = total
            records = acct.unsettled
            for index, (time, transfer_id, held, frozen) in enumerate(records):
                if not remaining:
                    break
                take = min(held - frozen, remaining)
                if take:
                    records[index] = UnsettledRecord(time, transfer_id, held, frozen + take)
                    marks.append((account, (time, transfer_id), take))
                    remaining -= take
            assert remaining == 0
            acct.frozen_sum += total
            acct.nonce += 1
        self.cases[case_id] = Case(tuple(marks))
        self.base.journal.append(
            ("freeze", case_id, tuple(sorted(wanted.items())), now)
        )

    def recover(self, caller: str, case_id: str, victim: str, now: int) -> int:
        """Move all frozen value of the case into the victim's settled balance."""
        self._check_active(caller, case_id)
        victim_acct = self._account(victim)
        self._settle_account(victim_acct, now)
        total = self._close(case_id, "recovered")
        victim_acct.settled += total
        victim_acct.nonce += 1
        self.base.journal.append(("recover", case_id, victim, now))
        return total

    def release(self, caller: str, case_id: str, now: int) -> None:
        """Lift the case's freeze; records resume maturing normally."""
        self._check_active(caller, case_id)
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
        """Lift each mark from the record its key finds by bisection, count
        the close once in each marked account's nonce, close the case as
        ``status`` and return the marked total.  A recovery also takes each
        marked amount out of its record and drops an emptied record."""
        marks = self.cases[case_id].marks
        recovered = status == "recovered"
        total = 0
        for account, key, amount in marks:
            acct = self.accounts[account]
            records = acct.unsettled
            index = bisect.bisect_left(records, key)
            time, transfer_id, held, frozen = records[index]
            acct.frozen_sum -= amount
            total += amount
            if recovered:
                held -= amount
                acct.unsettled_sum -= amount
                if not held:
                    del records[index]
                    continue
            records[index] = UnsettledRecord(time, transfer_id, held, frozen - amount)
        for account in _marked_accounts(marks):
            self.accounts[account].nonce += 1
        self.cases[case_id] = Case(marks, status)
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

    def effects_since(self, mark: int, now: int) -> dict[str, dict[str, int]]:
        """Per-account changes to ``base``, effective ``settled`` and
        ``unsettled`` at ``now``, and ``nonce``, made by the journal entries
        appended since ``mark``.

        Each entry is folded by its kind's rule in ``_EFFECTS``; the spend
        split of a ``transfer`` comes from its own entry, and the marks a
        ``recover`` or ``release`` closed from ``cases``.  Zero
        changes and the wrapper's own base address are left out; accounts
        come out sorted by name.

        The rules read maturity at ``now``, so the result equals the change
        in :meth:`settle_view` only when the entries were made at ``now``,
        as one scenario step's are: an operation folds what is due first,
        so a freeze or a spend at ``now`` acts on records not yet due.
        """
        totals: dict[str, dict[str, int]] = {}
        for entry in self.base.journal[mark:]:
            for account, key, change in _EFFECTS[entry[0]](self, entry, now):
                fields = totals.setdefault(account, {})
                fields[key] = fields.get(key, 0) + change
        totals.pop(self.address, None)
        effects = {}
        for account in sorted(totals):
            changed = {key: change for key, change in totals[account].items() if change}
            if changed:
                effects[account] = changed
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
        without records is checked in one comparison: both its cached sums
        must be zero.  Each record's frozen amount is the total that the
        active cases' marks place on its key, and every such mark finds a
        frozen record.
        """
        if self.base.total_supply != sum(self.base.balances.values()):
            raise AssertionError("base supply out of balance")
        marked: dict[tuple[str, tuple[int, int]], int] = {}
        for case in self.cases.values():
            if case.status == "active":
                for account, key, amount in case.marks:
                    marked[account, key] = marked.get((account, key), 0) + amount
        wrapped = 0
        for name, acct in self.accounts.items():
            settled = acct.settled
            if settled < 0:
                raise AssertionError(f"{name} settled negative")
            records = acct.unsettled
            if not records:
                if not acct.unsettled_sum == acct.frozen_sum == 0:
                    raise AssertionError(_sum_mismatch(name, acct, 0, 0))
                wrapped += settled
                continue
            unsettled = frozen = 0
            last_time, last_id = _BEFORE_ANY_KEY
            for time, transfer_id, amount, frozen_amount in records:
                if amount <= 0:
                    raise AssertionError(f"{name} holds an empty record")
                if not 0 <= frozen_amount <= amount:
                    raise AssertionError(
                        f"{name} record {transfer_id} frozen amount out of range"
                    )
                if time < last_time or (time == last_time and transfer_id <= last_id):
                    raise AssertionError(f"{name} records out of order")
                last_time, last_id = time, transfer_id
                if frozen_amount:
                    expected = marked.pop((name, (time, transfer_id)), 0)
                    if expected != frozen_amount:
                        raise AssertionError(
                            f"{name} record {transfer_id} frozen {frozen_amount} != {expected} marked"
                        )
                unsettled += amount
                frozen += frozen_amount
            if acct.unsettled_sum != unsettled or acct.frozen_sum != frozen:
                raise AssertionError(_sum_mismatch(name, acct, unsettled, frozen))
            wrapped += settled + unsettled
        if marked:
            (account, (_, transfer_id)), amount = next(iter(marked.items()))
            raise AssertionError(f"{account} record {transfer_id}: {amount} marked, none frozen")
        if self.base_locked() != wrapped:
            raise AssertionError(
                f"locked base {self.base_locked()} != wrapped total {wrapped}"
            )


def _marked_accounts(marks: tuple) -> dict[str, None]:
    """A case's marked accounts, each once, in mark order."""
    return dict.fromkeys(account for account, _, _ in marks)


def _sum_mismatch(name: str, acct: Account, unsettled: int, frozen: int) -> str:
    """The message for a cached sum that disagrees with its recount."""
    if acct.unsettled_sum != unsettled:
        return f"{name} unsettled_sum {acct.unsettled_sum} != recount {unsettled}"
    return f"{name} frozen_sum {acct.frozen_sum} != recount {frozen}"


# -- journal kind -> its effect on (base, settled, unsettled, nonce) ----------
#
# Each rule reads one journal entry against the ledger as the step left it
# and yields (account, field, change).  Settled and unsettled are effective
# balances at ``now``, as settle_view reports them: a record due at or
# before ``now`` counts as settled except for its frozen part.

_Effects = Iterator[tuple[str, str, int]]


def _mint_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, account, amount = entry
    yield account, "base", amount


def _base_transfer_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, sender, recipient, amount = entry
    yield sender, "base", -amount
    yield recipient, "base", amount


def _genesis_settled_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, account, amount = entry
    yield account, "settled", amount


def _wrap_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, caller, amount, _ = entry
    yield caller, "settled", amount
    yield caller, "nonce", 1


def _unwrap_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, caller, _, amount, _ = entry  # the base paid out is its own base_transfer
    yield caller, "settled", -amount
    yield caller, "nonce", 1


def _transfer_effects(ledger: WrapperLedger, entry: Transfer, now: int) -> _Effects:
    sender, recipient, amount = entry.sender, entry.recipient, entry.amount
    spent = entry.unsettled_spent
    yield sender, "settled", spent - amount
    yield sender, "unsettled", -spent
    yield sender, "nonce", 1
    # the recipient's record is due at entry.time + window: with a zero
    # window it is settled already
    due = entry.time + ledger.recovery_window
    yield recipient, "settled" if due <= now else "unsettled", amount
    yield recipient, "nonce", 1


def _freeze_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, _, wanted, _ = entry
    for account, _ in wanted:
        yield account, "nonce", 1


def _recover_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
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


def _release_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    _, case_id, _ = entry
    case = ledger.cases[case_id]
    for account, (due, _), amount in case.marks:
        if due <= now:
            # a due record's frozen part was its only unsettled value
            yield account, "settled", amount
            yield account, "unsettled", -amount
    for account in _marked_accounts(case.marks):
        yield account, "nonce", 1


def _no_effects(ledger: WrapperLedger, entry: tuple, now: int) -> _Effects:
    return iter(())


_EFFECTS: dict[str, Callable[[WrapperLedger, tuple, int], _Effects]] = {
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
