"""The three benchmark workloads and their correctness gates.

Each workload builds its world with :meth:`setup` and runs one fixed unit
of work with :meth:`rep`; both are repeated and fresh each time, so every
repetition of one seed does the same work and yields the same output
digest.  Only the calls into ``rpoolsim`` are timed: output checks,
digests and fingerprints run between timed calls.

The harness reaches the library through module attributes and methods
(``oracle.issue_report``, ``pool.swap``), which is where the tracer in
``spans.py`` wraps them.  Its own checks between timed calls run inside
``spans.untraced()``, so a traced run's spans are the program's alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import rpoolsim.attack as attack
import rpoolsim.cli as cli
import rpoolsim.oracle as oracle
import rpoolsim.runner as runner
import rpoolsim.scenario as scenario
from rpoolsim.amm import AmmPool
from rpoolsim.ledger import BaseLedger, WrapperLedger
from rpoolsim.orderbook import OrderBook

import calibrate
import gen
import spans

PPM = gen.PPM
ARB = "arb"


@dataclass
class Tally:
    """Operations attempted and those whose outcome differed from the
    generator's expectation; gate failures count as failed operations."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(what)


@dataclass
class Rep:
    units: int  # steps, successful pool ops or attack scenarios
    seconds: float  # time spent inside the timed calls
    scaled_seconds: float  # the same on the reference host (calibrate.py)
    digest: str
    latencies_us: dict[str, list[float]] = field(default_factory=dict)  # scaled
    gauges: dict[str, list[int]] = field(default_factory=dict)


def sha256_json(obj: object) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- scenario_wide -------------------------------------------------------------


class ScenarioWide:
    """Each repetition runs the scenario through ``cli.main`` ``CALLS``
    times: calls shorter than the host's speed phases can be scaled."""

    name = "scenario_wide"
    unit = "steps"
    rate_name = "steps_per_s"
    headline = "step_us"
    generate = staticmethod(gen.scenario_wide)
    CALLS = 6

    def __init__(self, inputs: gen.WideScenario, out_dir: Path) -> None:
        self.inputs = inputs
        self.path = out_dir / "scenario_wide.scn"
        self.log = out_dir / "scenario_wide.jsonl"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path.write_text(inputs.text)
        step_lines = [line for line in inputs.text.splitlines() if line.startswith("at ")]
        self.expected = ["StaleNonce" if "expect_error=StaleNonce" in line else "ok"
                         for line in step_lines]

    def setup(self) -> float:
        """World construction: parse plus genesis of every account."""
        start = perf_counter_ns()
        runner.ScenarioRunner(scenario.parse_scenario(self.inputs.text), "scenario_wide")
        return (perf_counter_ns() - start) / 1e9

    def rep(self, tally: Tally) -> Rep:
        argv = ["run", str(self.path), "--log", str(self.log), "--format", "json"]
        host = calibrate.Host()
        raw: list[float] = []
        digests = set()
        for _ in range(self.CALLS):
            stdout = io.StringIO()
            start = perf_counter_ns()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            raw.append((perf_counter_ns() - start) / 1e9)
            host.checkpoint(len(raw))
            digests.add(self._check(code, stdout.getvalue(), tally))
        if len(digests) != 1:
            tally.fail("calls on one scenario wrote different logs")
        steps = len(self.expected)
        scaled = [s * k for s, k in zip(raw, host.scales(len(raw)))]
        return Rep(steps * self.CALLS, sum(raw), sum(scaled), digests.pop(),
                   {"step_us": [s * 1e6 / steps for s in scaled]})

    def _check(self, code: int, stdout: str, tally: Tally) -> str:
        """Check one call's outcomes against the labels; return its log digest."""
        steps = len(self.expected)
        tally.attempted += steps
        log = self.log.read_bytes()
        outcomes = [json.loads(line)["outcome"] for line in log.splitlines()]
        if len(outcomes) != steps:
            tally.fail(f"log has {len(outcomes)} events, script has {steps} steps", steps)
        else:
            for seq, (got, want) in enumerate(zip(outcomes, self.expected), start=1):
                if got != want:
                    tally.fail(f"step {seq}: outcome {got}, expected {want}")
        report = json.loads(stdout.splitlines()[-1])
        failed = [a for a in report["assertions"] if not a["passed"]]
        if code != 0 or failed:
            tally.fail(f"cli exit {code}, {len(failed)} failed expectations: {failed[:3]}")
        return hashlib.sha256(log).hexdigest()


# -- pool_deep -----------------------------------------------------------------


class PoolDeep:
    name = "pool_deep"
    unit = "pool ops"
    rate_name = "pool_ops_per_s"
    headline = "swap_us"
    generate = staticmethod(gen.pool_deep)

    def __init__(self, plan: gen.PoolDeepPlan, out_dir: Path | None = None) -> None:
        self.plan = plan

    def setup(self) -> float:
        """Build the world and run the warm-up."""
        plan = self.plan
        start = perf_counter_ns()
        self.base = base = BaseLedger()
        self.ledger = ledger = WrapperLedger(base, recovery_window=plan.window, arbitrator=ARB)
        self.registry = registry = oracle.SignerRegistry()
        self.pool = pool = AmmPool(
            ledger, "pool", registry, kappa_ppm=500_000, risk_bounds=(0, PPM),
            min_quorum=len(plan.signers), min_lp_deposit=1, rate_cap_ppm=500_000)
        self.book = OrderBook(ledger)
        self.entities = []
        for signer in plan.signers:
            secret, public = registry.scheme.keygen(signer)
            registry.register(signer, public)
            self.entities.append(oracle.RatingEntity(signer, secret, oracle.ConstantRiskModel(900_000)))
            base.mint(signer, 10**12)
            pool.deposit(signer, 10**12, 0)
        for lp in plan.lps:
            base.mint(lp, 10**10)
            pool.deposit(lp, 10**9, 0)
        for filler in plan.fillers:
            base.mint(filler, 10**12)
        for user in plan.users:
            ledger.genesis_settled(user, 10**12)
        self.state = _PoolRun()
        warmup = Tally()
        self._run_ops(0, plan.timed_from, warmup)
        seconds = (perf_counter_ns() - start) / 1e9
        self.warmup = warmup
        self.records_after_warmup = self.pool_records()
        return seconds

    def pool_records(self) -> int:
        acct = self.ledger.accounts.get(self.pool.address)
        return 0 if acct is None else len(acct.unsettled)

    def rep(self, tally: Tally) -> Rep:
        plan = self.plan
        if self.warmup.failed:
            tally.fail(f"warm-up: {self.warmup.notes[:3]}", self.warmup.failed)
        steady = plan.window // gen.POOL_TICK
        if not 0.9 * steady <= self.records_after_warmup <= 1.1 * steady:
            tally.fail(f"pool holds {self.records_after_warmup} records after warm-up, "
                       f"expected about {steady}")
        host = calibrate.Host()
        run = self._run_ops(plan.timed_from, len(plan.ops), tally, host)
        scaled = [(kind, us * k) for (kind, us), k in zip(run.op_us, host.scales(len(run.op_us)))]
        swap_us, recover_us, chain = [], [], 0.0
        for kind, us in scaled:
            if kind == "swap":
                swap_us.append(us)
            elif kind in ("plan_recovery", "freeze"):
                chain = us if kind == "plan_recovery" else chain + us
            elif kind == "recover":
                recover_us.append(chain + us)
        try:
            with spans.untraced():
                self.ledger.check_invariants()
                if self.ledger.base_locked() != self.ledger.wrapped_total():
                    raise AssertionError("base_locked != wrapped_total")
        except AssertionError as exc:
            tally.fail(f"invariants: {exc}")
        return Rep(len(run.op_us), sum(us for _, us in run.op_us) / 1e6,
                   sum(us for _, us in scaled) / 1e6, self.digest(),
                   {"swap_us": swap_us, "recover_us": recover_us},
                   {"pool_records": run.pool_records, "transfer_log_len": run.log_len})

    def digest(self) -> str:
        """Observable end state, receipts, fills and every op result."""
        now = self.state.now
        names = sorted({*self.base.balances, *self.ledger.accounts} - {self.ledger.address})
        with spans.untraced():
            return sha256_json({
                "accounts": [(n, self.base.balance(n), *self.ledger.settle_view(n, now),
                              self.ledger.nonce(n)) for n in names],
                "pool": list(self.pool.pool_state(now)),
                "lp": sorted(self.pool.lp_holdings.items()),
                "receipts": [dataclasses.astuple(r) for r in self.pool.receipts],
                "fills": [dataclasses.astuple(f) for f in self.book.fills],
                "results": self.state.results,
            })

    def fingerprint(self, account: str, now: int) -> tuple:
        ledger = self.ledger
        with spans.untraced():
            return (ledger.nonce(account), ledger.settle_view(account, now),
                    self.base.balance(account), tuple(self.pool.pool_state(now)),
                    len(self.pool.receipts), len(ledger.transfer_log))

    def _run_ops(self, first: int, last: int, tally: Tally,
                 host: calibrate.Host | None = None) -> "_PoolRun":
        """Run ops[first:last]; ``run.op_us`` gets (kind, µs) per op whose
        outcome was the expected one, "swap" only for accepted swaps."""
        run = self.state
        run.reset_counters()
        ops = self.plan.ops
        for index in range(first, last):
            op = ops[index]
            now, kind = op[0], op[1]
            run.now = now
            expect = op[4] if kind == "swap" else "ok"
            before = self.fingerprint(op[2], now) if expect != "ok" else None
            call = getattr(self, "_op_" + kind)
            tally.attempted += 1
            start = perf_counter_ns()
            try:
                result = call(run, index, op)
                outcome = "ok"
            except Exception as exc:  # any escape is a failed op, not a crash
                result, outcome = None, type(exc).__name__
            ns = perf_counter_ns() - start
            if host is not None:
                host.checkpoint(len(run.op_us))
            if outcome != expect:
                tally.fail(f"op {index} {kind}: {outcome}, expected {expect}")
                continue
            if before is not None and self.fingerprint(op[2], now) != before:
                tally.fail(f"op {index} {kind}: rejected but state changed")
                continue
            if result is not None:
                run.results.append(result)
            if kind == "swap" and expect != "ok":
                kind = "rejected"
            run.op_us.append((kind, ns / 1e3))
            if kind == "plan_recovery":
                run.log_len.append(len(self.ledger.transfer_log))
            elif kind == "swap":
                run.swaps += 1
                if run.swaps % 100 == 0:
                    run.pool_records.append(self.pool_records())
        return run

    # Each handler makes one library call; _run_ops times it.

    def _op_feed(self, run, index, op):
        _, _, payer, requestor, amount = op
        run.feeds[index] = self.ledger.transfer(payer, requestor, amount, False, run.now)

    def _op_inflow(self, run, index, op):
        _, _, requestor, amount = op
        self.ledger.transfer_unsettled(requestor, self.pool.address, amount, run.now)

    def _op_report(self, run, index, op):
        _, _, signer, requestor, amount = op
        run.reports.append(oracle.issue_report(
            self.entities[signer], self.registry, requestor, amount, run.now, 600, self.ledger))

    def _op_swap(self, run, index, op):
        _, _, requestor, amount, _ = op
        reports, run.reports = run.reports, []
        self.pool.swap(requestor, amount, reports, run.now)

    def _op_post_bid(self, run, index, op):
        _, _, bidder, amount, rate, expiry = op
        run.bid = self.book.post_bid(bidder, amount, rate, expiry, run.now)

    def _op_match_bid(self, run, index, op):
        _, _, filler, offer = op
        self.book.match_bid(filler, run.bid, offer, run.now)

    def _op_deposit(self, run, index, op):
        _, _, lp, amount = op
        return ["deposit", self.pool.deposit(lp, amount, run.now)]

    def _op_withdraw(self, run, index, op):
        _, _, lp, share_ppm = op
        tokens = max(1, self.pool.lp_holdings.get(lp, 0) * share_ppm // PPM)
        return ["withdraw", *self.pool.withdraw(lp, tokens, run.now)]

    def _op_plan_recovery(self, run, index, op):
        _, _, feed_at, amount = op
        run.plan = self.ledger.plan_recovery(run.feeds[feed_at], amount, run.now)
        return ["plan", run.plan]

    def _op_freeze(self, run, index, op):
        _, _, case = op
        self.ledger.freeze(ARB, run.plan, case, run.now)

    def _op_recover(self, run, index, op):
        _, _, case, victim = op
        return ["recover", self.ledger.recover(ARB, case, victim, run.now)]


@dataclass
class _PoolRun:
    """Mutable state of one pass over the pool_deep op list."""

    now: int = 0
    feeds: dict[int, int] = field(default_factory=dict)  # feed op index -> transfer id
    reports: list = field(default_factory=list)
    bid: int = 0
    plan: list = field(default_factory=list)
    results: list = field(default_factory=list)
    op_us: list[tuple[str, float]] = field(default_factory=list)
    swaps: int = 0
    pool_records: list[int] = field(default_factory=list)
    log_len: list[int] = field(default_factory=list)

    def reset_counters(self) -> None:
        self.op_us, self.swaps = [], 0
        self.pool_records, self.log_len = [], []


# -- attack_sweep -----------------------------------------------------------------


class AttackSweep:
    name = "attack_sweep"
    unit = "scenarios"
    rate_name = "scenarios_per_s"
    headline = "scenario_us"
    generate = staticmethod(gen.attack_sweep)

    def __init__(self, cases: list[gen.AttackCase], out_dir: Path | None = None) -> None:
        self.cases = cases

    def setup(self) -> float:
        """Construct (and so validate) every AttackScenario."""
        start = perf_counter_ns()
        self.scenarios = [
            attack.AttackScenario(c.pool_total, c.lp_supply, c.collateral, c.shorted,
                                  c.stolen, c.rate_ppm)
            for c in self.cases
        ]
        return (perf_counter_ns() - start) / 1e9

    def rep(self, tally: Tally) -> Rep:
        results = []
        raw = []
        host = calibrate.Host()
        for case, s in zip(self.cases, self.scenarios):
            start = perf_counter_ns()
            bound = attack.exact_profit(s, rate=case.rate)
            analytic = attack.simulate_attack(s)
            exact = attack.exact_profit(s)
            live = attack.end_to_end_attack_replay(s)
            raw.append((perf_counter_ns() - start) / 1e3)
            host.checkpoint(len(raw))
            results.append((bound, analytic.profit, exact, live.profit))
        latencies = [us * k for us, k in zip(raw, host.scales(len(raw)))]

        tally.attempted += len(results)
        for case, (bound, analytic, exact, live) in zip(self.cases, results):
            if bound > case.stolen or analytic > exact or abs(live - analytic) > 3:
                tally.fail(f"bound violated at {case}: profit {bound}, analytic {analytic}, "
                           f"exact {exact}, live {live}")
        digest = sha256_json([(str(b), a, str(e), lv) for b, a, e, lv in results])
        return Rep(len(results), sum(raw) / 1e6, sum(latencies) / 1e6, digest,
                   {"scenario_us": latencies})


WORKLOADS = {cls.name: cls for cls in (ScenarioWide, PoolDeep, AttackSweep)}


# -- gates run once per invocation ------------------------------------------------


def shipped_scenarios_gate(root: Path, tally: Tally) -> int:
    """Every shipped ``scenarios/*.scn`` must pass through ``cli.main``."""
    files = sorted((root / "scenarios").glob("*.scn"))
    if not files:
        tally.fail("no shipped scenarios found")
    for path in files:
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(path)])
        if code != 0:
            tally.fail(f"{path.name}: exit {code}")
    return len(files)


def naive_oracle_gate(seed: int, tally: Tally) -> None:
    """Replay a small pool_deep instance through the naive ledger oracle,
    which must agree with the engine on every account."""
    import naive_ledger  # tests/naive_ledger.py, used read-only

    plan = gen.pool_deep(seed, users=20, warmup=100, swaps=300, bids=20,
                         lp_ops=10, chains=10, window=1_000)
    work = PoolDeep(plan)
    work.setup()
    work._run_ops(plan.timed_from, len(plan.ops), tally)
    tally.attempted += 1
    try:
        model = naive_ledger.replay(work.ledger.base.journal, plan.window)
        naive_ledger.assert_matches(model, work.ledger, work.state.now)
    except AssertionError as exc:
        tally.fail(f"naive oracle disagrees: {exc}")
