"""Scenario execution: builds the world, drives every module on the script
clock, evaluates expectations, and emits a deterministic event log.

Each step produces one :class:`EventRecord` whose fields (scenario, seq,
time, action, params, outcome, result, deltas) are exactly the keys of its
event-log line; :meth:`RunResult.log_lines` is the one builder of those
lines.  Replaying a script always yields byte-identical lines: there is no
wall clock and no ambient randomness anywhere in the engine.

The deltas are folded by :meth:`WrapperLedger.effects_since` from the
ledger journal entries the step appended (``mint``, ``base_transfer``,
``wrap``, ``unwrap``, ``transfer``, ``freeze``, ``recover``, ``release``),
and from nothing else: a transfer's entry carries its own spend split, so
the runner marks the journal alone, and working the deltas out costs the
same in a world of any size.  What still grows with the world is
:meth:`World.check_invariants` after every step, which recounts every
account, LP holder and bid, and the two snapshots around an
``expect_error`` step.

Every check of a step is a ``(description, expected, observed)`` triple:
its ``expect_error`` outcome, the unchanged state after that error, its
success when no error is expected, each ``expect_*`` and ``assert``
comparison.  One constructor turns each into an :class:`AssertionResult`
that passed iff ``expected == observed``.  The state is compared in full, by
value (:meth:`World.snapshot`: every balance, record, case, signer, pool
and bid, and the journal's length), before and after the step.  Any
rejected step, expected or not, must also leave the journal at its length
before the step; that check costs one length, covers the rejections that
no snapshot is taken around, and is reported only when it fails.  Failures surface in the report
rather than as exceptions, so a scenario always runs to the end.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, NamedTuple

from .errors import RPoolError, UnboundLabel
from .oracle import ConstantRiskModel, RatingEntity, TaintAwareRiskModel, issue_report
from .orderbook import OrderBook
from .scenario import ACTION_SPECS, Params, ScenarioScript, Step, format_value
from .world import World


#: expect_* step field -> (description template, result field checked; None
#: checks the whole result).  The template receives the expected value in
#: its canonical scenario text, so rates read as decimals.
EXPECTATIONS: dict[str, tuple[str, str | None]] = {
    "expect_minted": ("minted LP tokens == {}", "minted"),
    "expect_base": ("base out == {}", "base"),
    "expect_unsettled": ("unsettled out == {}", "unsettled"),
    "expect_quote": ("report quote == {}", "quote_ppm"),
    "expect_out": ("swap payout == {}", "out"),
    "expect_rate": ("effective rate == {}", "rate_ppm"),
    "expect_amount": ("recovered amount == {}", "amount"),
    "expect": ("recovery plan", None),
}


class EventRecord(NamedTuple):
    """One step of one scenario: its fields are the keys of its log line."""

    scenario: str
    seq: int
    time: int
    action: str
    params: Params
    outcome: str  # "ok" or an error name
    result: object
    deltas: dict


class AssertionResult(NamedTuple):
    seq: int
    description: str
    passed: bool
    expected: object
    observed: object


class RunResult(NamedTuple):
    name: str
    events: list[EventRecord]
    assertions: list[AssertionResult]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def log_lines(self) -> list[str]:
        """The event log: one compact JSON line with sorted keys per step."""
        return [
            json.dumps(event._asdict(), sort_keys=True, separators=(",", ":"))
            for event in self.events
        ]


class ScenarioRunner:
    """One isolated world per runner; run() executes the whole script."""

    def __init__(self, script: ScenarioScript, name: str = "scenario") -> None:
        self.script = script
        self.name = name
        self.tainted: set[int] = set()
        self.entities: dict[str, RatingEntity] = {}
        #: as= label -> the transfer id, RiskReport or bid id it names
        self.labels: dict[str, Any] = {}
        self.world = world = World(recovery_window=script.window, arbitrator=script.arbitrator)
        for acct in script.accounts:
            if acct.base:
                world.base.mint(acct.name, acct.base)
            if acct.settled:
                world.ledger.genesis_settled(acct.name, acct.settled)
        for spec in script.signers:
            if spec.model == "constant":
                model = ConstantRiskModel(spec.rate)
            else:
                model = TaintAwareRiskModel(self.tainted, spec.rate)
            self.entities[spec.name] = world.add_signer(spec.name, model, spec.authorized)
        for spec in script.pools:
            world.add_pool(
                spec.name,
                kappa_ppm=spec.kappa_ppm,
                risk_bounds=(spec.risk_lo_ppm, spec.risk_hi_ppm),
                min_quorum=spec.min_quorum,
                min_lp_deposit=spec.min_lp_deposit,
                rate_cap_ppm=spec.rate_cap_ppm,
            )
        for name in script.books:
            world.books[name] = OrderBook(world.ledger)

    def state_digest(self) -> str:
        """sha256 of :meth:`World.snapshot`, for comparing states across runs."""
        blob = json.dumps(self.world.snapshot(), sort_keys=True, default=bytes.hex).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- execution -------------------------------------------------------------

    def run(self) -> RunResult:
        result = RunResult(self.name, [], [])
        for seq, step in enumerate(self.script.steps, start=1):
            self._run_step(seq, step, result)
            self.world.check_invariants()
        return result

    def _run_step(self, seq: int, step: Step, result: RunResult) -> None:
        mark = self.world.ledger.mark()
        state_before = self.world.snapshot() if step.expect_error else None
        checks: list[tuple[str, object, object]] = []
        outcome, op_result = "ok", None
        try:
            op_result = self.ACTIONS[step.action](self, step.params, step.time)
            checks = [(f"step {seq}: {d}", e, o) for d, e, o in self._checks(step, op_result)]
        except RPoolError as exc:
            outcome = exc.name  # result expectations are moot on failure
        where = f"step {seq} ({step.action})"
        if step.expect_error is not None:
            checks.insert(0, (f"{where} fails with {step.expect_error}", step.expect_error, outcome))
            if outcome != "ok" and self.world.snapshot() != state_before:
                unchanged = f"{where} leaves state unchanged on error"
                checks.append((unchanged, "unchanged state", "state changed"))
        elif outcome != "ok":
            checks.append((f"{where} succeeds", "ok", outcome))
        journal = self.world.ledger.mark()
        if outcome != "ok" and journal != mark:
            checks.append((f"{where} journals nothing on error", mark, journal))
        result.assertions.extend(AssertionResult(seq, d, e == o, e, o) for d, e, o in checks)
        result.events.append(
            EventRecord(
                scenario=self.name,
                seq=seq,
                time=step.time,
                action=step.action,
                params=step.params,
                outcome=outcome,
                result=op_result,
                deltas=self.world.ledger.effects_since(mark, step.time),
            )
        )

    def _checks(self, step: Step, op_result: Any) -> list[tuple[str, object, object]]:
        """(description, expected, observed) for a step that succeeded."""
        p = step.params
        if step.action == "assert":
            observed = self.ASSERTS[p["kind"]](self, p, step.time)
            return [(what, p[key], value) for key, (what, value) in observed.items() if key in p]
        checks = []
        for key, (kind, _) in ACTION_SPECS[step.action].items():
            if key in EXPECTATIONS and key in p:
                template, field_name = EXPECTATIONS[key]
                observed = op_result if field_name is None else op_result[field_name]
                checks.append((template.format(format_value(kind, p[key])), p[key], observed))
        return checks

    def _bind(self, p: Params, value: Any) -> None:
        """Name the object a step produced by its as= label; a transfer id
        marked tainted= feeds the taint-aware risk models."""
        if "as" in p:
            self.labels[p["as"]] = value
        if p.get("tainted"):
            self.tainted.add(value)

    def _label(self, name: str) -> Any:
        """What an earlier step bound by as=; that step may have failed."""
        if name not in self.labels:
            raise UnboundLabel(f"label {name!r} is unbound: the step that binds it failed")
        return self.labels[name]

    def _bid_id(self, ref: int | str) -> int:
        return ref if isinstance(ref, int) else self._label(ref)

    # -- actions: one handler per ACTION_SPECS row -------------------------------

    def _mint_base(self, p: Params, now: int) -> None:
        self.world.base.mint(p["account"], p["amount"])

    def _wrap(self, p: Params, now: int) -> None:
        self.world.ledger.wrap(p["account"], p["amount"], now)

    def _unwrap(self, p: Params, now: int) -> None:
        self.world.ledger.unwrap_to(p["account"], p["amount"], p.get("to", p["account"]), now)

    def _transfer(self, p: Params, now: int) -> dict:
        unsettled = p.get("unsettled", False)
        tid = self.world.ledger.transfer(p["from"], p["to"], p["amount"], unsettled, now)
        self._bind(p, tid)
        return {"transfer_id": tid}

    def _disable_unwrap(self, p: Params, now: int) -> None:
        self.world.ledger.disable_unwrap(p["account"])

    def _deposit(self, p: Params, now: int) -> dict:
        return {"minted": self.world.pools[p["pool"]].deposit(p["lp"], p["amount"], now)}

    def _withdraw(self, p: Params, now: int) -> dict:
        base_out, unsettled_out = self.world.pools[p["pool"]].withdraw(p["lp"], p["tokens"], now)
        return {"base": base_out, "unsettled": unsettled_out}

    def _issue_report(self, p: Params, now: int) -> dict:
        report = issue_report(
            self.entities[p["signer"]],
            self.world.registry,
            p["requestor"],
            p["amount"],
            now,
            p["ttl"],
            self.world.ledger,
        )
        self._bind(p, report)
        return {"quote_ppm": report.quote_ppm, "nonce": report.account_nonce}

    def _swap(self, p: Params, now: int) -> dict:
        reports = [self._label(label) for label in p["reports"]]
        receipt = self.world.pools[p["pool"]].swap(p["requestor"], p["amount"], reports, now)
        self._bind(p, receipt.transfer_in_id)
        return {
            "out": receipt.amount_out,
            "rate_ppm": receipt.rate_ppm,
            "median_ppm": receipt.median_ppm,
            "multiplier_ppm": receipt.multiplier_ppm,
            "transfer_id": receipt.transfer_in_id,
        }

    def _post_bid(self, p: Params, now: int) -> dict:
        bid_id = self.world.books[p["book"]].post_bid(
            p["bidder"], p["amount"], p["min_rate"], p["expiry"], now
        )
        self._bind(p, bid_id)
        return {"bid_id": bid_id}

    def _cancel_bid(self, p: Params, now: int) -> None:
        self.world.books[p["book"]].cancel_bid(p["by"], self._bid_id(p["bid"]))

    def _match_bid(self, p: Params, now: int) -> dict:
        book = self.world.books[p["book"]]
        fill = book.match_bid(p["lp"], self._bid_id(p["bid"]), p["offer"], now)
        return {
            "unsettled": fill.amount_unsettled,
            "base": fill.base_paid,
            "transfer_id": fill.transfer_id,
        }

    def _freeze(self, p: Params, now: int) -> dict:
        if "targets" in p:
            targets = p["targets"]
        else:
            targets = self.world.ledger.plan_recovery(self._label(p["transfer"]), p["amount"], now)
        self.world.ledger.freeze(p.get("by", self.script.arbitrator), targets, p["case"], now)
        return {"targets": [[name, amount] for name, amount in targets]}

    def _recover(self, p: Params, now: int) -> dict:
        by = p.get("by", self.script.arbitrator)
        return {"amount": self.world.ledger.recover(by, p["case"], p["victim"], now)}

    def _release(self, p: Params, now: int) -> None:
        self.world.ledger.release(p.get("by", self.script.arbitrator), p["case"], now)

    def _plan_recovery(self, p: Params, now: int) -> list:
        plan = self.world.ledger.plan_recovery(self._label(p["transfer"]), p["amount"], now)
        return [[name, amount] for name, amount in plan]

    def _no_op(self, p: Params, now: int) -> None:
        """advance moves only the clock; assert's checks run in _checks."""

    ACTIONS: dict[str, Callable[[ScenarioRunner, Params, int], object]] = {
        "mint_base": _mint_base,
        "wrap": _wrap,
        "unwrap": _unwrap,
        "transfer": _transfer,
        "disable_unwrap": _disable_unwrap,
        "deposit": _deposit,
        "withdraw": _withdraw,
        "issue_report": _issue_report,
        "swap": _swap,
        "post_bid": _post_bid,
        "cancel_bid": _cancel_bid,
        "match_bid": _match_bid,
        "freeze": _freeze,
        "recover": _recover,
        "release": _release,
        "plan_recovery": _plan_recovery,
        "advance": _no_op,
        "assert": _no_op,
    }

    # -- assertions: comparison field -> (description, observed value) ----------

    def _assert_balance(self, p: Params, now: int) -> dict:
        settled, unsettled = self.world.ledger.settle_view(p["account"], now)
        return {
            "settled": (f"{p['account']} settled", settled),
            "unsettled": (f"{p['account']} unsettled", unsettled),
        }

    def _assert_base(self, p: Params, now: int) -> dict:
        return {"amount": (f"{p['account']} base", self.world.base.balance(p["account"]))}

    def _assert_nonce(self, p: Params, now: int) -> dict:
        return {"value": (f"{p['account']} nonce", self.world.ledger.nonce(p["account"]))}

    def _assert_pool(self, p: Params, now: int) -> dict:
        pool = self.world.pools[p["pool"]]
        state = pool.pool_state(now)
        return {
            key: (f"pool {pool.address} {key}", value)
            for key, value in state._asdict().items()
        }

    def _assert_lp(self, p: Params, now: int) -> dict:
        pool = self.world.pools[p["pool"]]
        held = pool.lp_holdings.get(p["account"], 0)
        return {"amount": (f"{p['account']} LP tokens in {pool.address}", held)}

    def _assert_bid(self, p: Params, now: int) -> dict:
        bid = self.world.books[p["book"]].bids.get(self._bid_id(p["bid"]))
        status = "absent" if bid is None else bid.status
        return {"status": (f"bid {p['bid']} status", status)}

    ASSERTS: dict[str, Callable[[ScenarioRunner, Params, int], dict]] = {
        "balance": _assert_balance,
        "base": _assert_base,
        "nonce": _assert_nonce,
        "pool": _assert_pool,
        "lp": _assert_lp,
        "bid": _assert_bid,
    }


def run_scenario(script: ScenarioScript, name: str = "scenario") -> RunResult:
    """Execute a parsed script in a fresh, isolated world."""
    return ScenarioRunner(script, name).run()
