"""Brute-force replay oracle for the wrapper ledger.

A deliberately plain second implementation of the ledger rules, driven by
the primitive-event journal.  It shares no code or data structures with the
engine: balances are dicts, unsettled records are lists of three-element
lists, and every rule is spelled out longhand.  Tests rebuild state from
genesis through this model and compare effective balances against the
incremental engine.
"""

from __future__ import annotations


class NaiveLedger:
    def __init__(self, window: int) -> None:
        self.window = window
        self.base: dict[str, int] = {}
        self.settled: dict[str, int] = {}
        # account -> list of records [amount, settle_time, frozen, seq]
        self.records: dict[str, list[list[int]]] = {}
        self.nonce: dict[str, int] = {}
        # case -> list of (account, record ref, amount)
        self.cases: dict[str, list[tuple[str, list[int], int]]] = {}
        self._seq = 0

    # -- helpers -------------------------------------------------------------

    def _recs(self, account: str) -> list[list[int]]:
        return self.records.setdefault(account, [])

    def _sorted(self, account: str) -> list[list[int]]:
        return sorted(self._recs(account), key=lambda r: (r[1], r[3]))

    def _fold(self, account: str, now: int) -> None:
        kept = []
        for rec in self._sorted(account):
            amount, when, frozen, seq = rec
            if when <= now:
                self.settled[account] = self.settled.get(account, 0) + (amount - frozen)
                if frozen:
                    rec[0] = frozen
                    kept.append(rec)
            else:
                kept.append(rec)
        self.records[account] = kept

    def effective(self, account: str, now: int) -> tuple[int, int]:
        settled = self.settled.get(account, 0)
        unsettled = 0
        for amount, when, frozen, _ in self._recs(account):
            if when <= now:
                settled += amount - frozen
                unsettled += frozen
            else:
                unsettled += amount
        return settled, unsettled

    def _receive(self, account: str, amount: int, now: int) -> None:
        self._seq += 1
        self._recs(account).append([amount, now + self.window, 0, self._seq])

    def _spend(self, account: str, amount: int, mode: str, now: int) -> None:
        self._fold(account, now)
        remaining = amount
        if mode in ("settled", "settled+unsettled"):
            have = self.settled.get(account, 0)
            take = min(have, remaining)
            self.settled[account] = have - take
            remaining -= take
        if remaining:
            assert mode != "settled"
            kept = []
            for rec in self._sorted(account):
                spendable = rec[0] - rec[2]
                take = min(spendable, remaining)
                rec[0] -= take
                remaining -= take
                if rec[0]:
                    kept.append(rec)
            self.records[account] = kept
        assert remaining == 0, "oracle asked to overspend"

    # -- event application ------------------------------------------------------

    def apply(self, event: tuple) -> None:
        kind = event[0]
        if kind == "mint":
            _, account, amount = event
            self.base[account] = self.base.get(account, 0) + amount
        elif kind == "base_transfer":
            _, sender, recipient, amount = event
            self.base[sender] = self.base.get(sender, 0) - amount
            self.base[recipient] = self.base.get(recipient, 0) + amount
        elif kind == "genesis_settled":
            _, account, amount = event
            self.settled[account] = self.settled.get(account, 0) + amount
        elif kind == "wrap":
            _, caller, amount, now = event
            self._fold(caller, now)
            self.settled[caller] = self.settled.get(caller, 0) + amount
            self.nonce[caller] = self.nonce.get(caller, 0) + 1
        elif kind == "unwrap":
            _, caller, _to, amount, now = event
            self._spend(caller, amount, "settled", now)
            self.nonce[caller] = self.nonce.get(caller, 0) + 1
        elif kind == "disable_unwrap":
            pass  # flag only; balances and nonces unaffected
        elif kind == "transfer":
            _, sender, recipient, amount, mode, now = event[:6]
            self._spend(sender, amount, mode, now)
            self._receive(recipient, amount, now)
            self.nonce[sender] = self.nonce.get(sender, 0) + 1
            self.nonce[recipient] = self.nonce.get(recipient, 0) + 1
        elif kind == "freeze":
            _, case_id, targets, now = event
            marks = []
            for account, amount in targets:
                self._fold(account, now)
                remaining = amount
                for rec in self._sorted(account):
                    if not remaining:
                        break
                    take = min(rec[0] - rec[2], remaining)
                    if take:
                        rec[2] += take
                        marks.append((account, rec, take))
                        remaining -= take
                assert remaining == 0, "oracle freeze underflow"
                self.nonce[account] = self.nonce.get(account, 0) + 1
            self.cases[case_id] = marks
        elif kind == "recover":
            _, case_id, victim, now = event
            self._fold(victim, now)
            total = 0
            touched = []
            for account, rec, amount in self.cases.pop(case_id):
                rec[2] -= amount
                rec[0] -= amount
                total += amount
                if account not in touched:
                    touched.append(account)
            for account in touched:
                self.records[account] = [r for r in self._recs(account) if r[0]]
                self.nonce[account] = self.nonce.get(account, 0) + 1
            self.settled[victim] = self.settled.get(victim, 0) + total
            self.nonce[victim] = self.nonce.get(victim, 0) + 1
        elif kind == "release":
            _, case_id, _now = event
            touched = []
            for account, rec, amount in self.cases.pop(case_id):
                rec[2] -= amount
                if account not in touched:
                    touched.append(account)
            for account in touched:
                self.nonce[account] = self.nonce.get(account, 0) + 1
        else:
            raise AssertionError(f"oracle cannot replay event {kind!r}")


def replay(journal: list[tuple], window: int) -> NaiveLedger:
    """Rebuild state from genesis by replaying the whole journal."""
    model = NaiveLedger(window)
    for event in journal:
        model.apply(event)
    return model


def naive_plan_recovery(ledger, tainted_id: int, amount: int, now: int):
    """The deficiency rule by full scans: the whole transfer log for the
    recipient's post-taint unsettled outflows, and every record for each
    account's freezable value.  Returns the plan, or None where no plan
    covers ``amount``."""
    log = ledger.transfer_log
    tainted = [e for e in log if e.transfer_id == tainted_id][0]
    if amount > tainted.amount:
        return None

    def freezable(account: str) -> int:
        acct = ledger.accounts.get(account)
        records = [] if acct is None else acct.unsettled
        return sum(r.amount for r in records if r.settlement_time > now)

    plan: dict[str, int] = {}
    remaining = amount
    take = min(remaining, freezable(tainted.recipient))
    if take:
        plan[tainted.recipient] = take
        remaining -= take
    outflows = [
        e
        for e in log
        if e.sender == tainted.recipient
        and e.transfer_id > tainted_id
        and e.unsettled_spent > 0
    ]
    for out in sorted(outflows, key=lambda e: -e.transfer_id):
        if not remaining:
            break
        headroom = freezable(out.recipient) - plan.get(out.recipient, 0)
        take = min(remaining, out.unsettled_spent, headroom)
        if take > 0:
            plan[out.recipient] = plan.get(out.recipient, 0) + take
            remaining -= take
    return None if remaining else list(plan.items())


def assert_matches(model: NaiveLedger, ledger, now: int) -> None:
    """Compare the oracle against the live engine, account by account."""
    base = ledger.base
    names = set(base.balances) | set(ledger.accounts) | set(model.base) | set(model.settled)
    names.discard(ledger.address)
    for name in sorted(names):
        assert base.balance(name) == model.base.get(name, 0), (
            f"{name}: base {base.balance(name)} != oracle {model.base.get(name, 0)}"
        )
        got = ledger.settle_view(name, now)
        want = model.effective(name, now)
        assert got == want, f"{name}: effective {got} != oracle {want}"
        assert ledger.nonce(name) == model.nonce.get(name, 0), (
            f"{name}: nonce {ledger.nonce(name)} != oracle {model.nonce.get(name, 0)}"
        )
    assert base.balance(ledger.address) == model.base.get(ledger.address, 0)


def assert_indexes_match(ledger) -> None:
    """Recount the ledger's two journal indexes from the journal itself:
    ``transfer_log`` is the journal's transfer entries, the same objects,
    in order, with ids 1..n; and each sender's outflow list is the log's
    transfers from it that drew on unsettled records, in log order."""
    transfers = [entry for entry in ledger.base.journal if entry[0] == "transfer"]
    log = ledger.transfer_log
    assert len(log) == len(transfers), f"log {len(log)} rows != journal {len(transfers)}"
    for n, (row, entry) in enumerate(zip(log, transfers), 1):
        assert row is entry, f"log row {n} is not the journal's transfer entry"
        assert row.transfer_id == n, f"log row {n} has id {row.transfer_id}"
    outflows: dict[str, list] = {}
    for row in log:
        if row.unsettled_spent > 0:
            outflows.setdefault(row.sender, []).append(row)
    assert sorted(ledger._outflows) == sorted(outflows), (
        f"outflow senders {sorted(ledger._outflows)} != {sorted(outflows)}"
    )
    for sender, rows in outflows.items():
        got = ledger._outflows[sender]
        assert len(got) == len(rows) and all(a is b for a, b in zip(got, rows)), (
            f"{sender}: outflows {[r.transfer_id for r in got]} != "
            f"{[r.transfer_id for r in rows]}"
        )
