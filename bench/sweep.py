"""Size sweeps behind the three baseline findings.

- the runner's cost per step grows with the number of accounts in the
  world (it snapshots every account twice per step);
- a swap's cost grows with the unsettled records held at the pool;
- a plain settled transfer, as the transfer log grows from 5k to 50k
  entries (the ledger's own work per transfer does not grow; the
  interpreter's cyclic garbage collector, scanning a larger heap, does).

Each function returns microseconds per operation, measured untraced and
scaled to the reference host like the end-to-end times (calibrate.py).
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import calibrate
import rpoolsim.oracle as oracle
import rpoolsim.runner as runner
import rpoolsim.scenario as scenario
from rpoolsim.amm import AmmPool
from rpoolsim.ledger import BaseLedger, WrapperLedger

import gen

PPM = gen.PPM
#: name -> (function, size) for the per-layer metrics of a traced run
NAMED = {
    "runner.step_us.n250": ("runner_step_us", 250),
    "runner.step_us.n2000": ("runner_step_us", 2000),
    "amm.swap_us.r1k": ("swap_us", 1000),
    "amm.swap_us.r4k": ("swap_us", 4000),
    "amm.swap_us.r16k": ("swap_us", 16000),
    "ledger.transfer_us.t50k": ("transfer_us", 50_000),
}
#: samples per point: runner repeats, timed swaps, timed transfers
RUNNER_REPEATS = 3
SWAPS = 50
TRANSFERS_MEASURED = 5_000
#: the wider grid printed by ``run.py --sweep``
GRID = {
    "runner_step_us": [250, 500, 1000, 2000],
    "swap_us": [1000, 4000, 16000],
    "transfer_us": [5_000, 50_000],
}


def runner_step_us(accounts: int) -> float:
    script = scenario.parse_scenario(gen.runner_sweep_scenario(accounts))
    steps = gen.RUNNER_SWEEP_STEPS
    samples = []
    for _ in range(RUNNER_REPEATS):
        world = runner.ScenarioRunner(script, f"n{accounts}")
        before = calibrate.reference_s()
        start = perf_counter_ns()
        result = world.run()
        elapsed_us = (perf_counter_ns() - start) / 1e3
        samples.append(elapsed_us * calibrate.scale(before, calibrate.reference_s()) / steps)
        if not result.passed:
            raise AssertionError(f"runner sweep n{accounts} failed its steps")
    return statistics.median(samples)


def swap_us(records: int) -> float:
    """Swap latency with ``records`` unsettled records at the pool."""
    base = BaseLedger()
    ledger = WrapperLedger(base, recovery_window=10**9, arbitrator="arb")
    registry = oracle.SignerRegistry()
    pool = AmmPool(ledger, "pool", registry, kappa_ppm=500_000, risk_bounds=(0, PPM),
                   min_quorum=1, min_lp_deposit=1, rate_cap_ppm=500_000)
    secret, public = registry.scheme.keygen("rater")
    registry.register("rater", public)
    rater = oracle.RatingEntity("rater", secret, oracle.ConstantRiskModel(900_000))
    base.mint("rater", 10**15)
    pool.deposit("rater", 10**15, 0)
    ledger.genesis_settled("donor", 10**15)
    for now in range(records):
        ledger.transfer("donor", "pool", 1, False, now)
    samples = []
    before = calibrate.reference_s()
    for i in range(SWAPS):
        now = records + i
        ledger.transfer("donor", "user", 1_000, False, now)
        reports = [oracle.issue_report(rater, registry, "user", 1_000, now, 600, ledger)]
        start = perf_counter_ns()
        pool.swap("user", 1_000, reports, now)
        samples.append((perf_counter_ns() - start) / 1e3)
    return statistics.median(samples) * calibrate.scale(before, calibrate.reference_s())


def transfer_us(transfers: int) -> float:
    """Mean cost of the last ``TRANSFERS_MEASURED`` of ``transfers`` settled
    transfers from 100 payers to 10 payees: the log grows, the senders hold
    no records."""
    ledger = WrapperLedger(BaseLedger(), recovery_window=10**9, arbitrator="arb")
    payers = [f"p{i}" for i in range(100)]
    payees = [f"q{i}" for i in range(10)]
    for payer in payers:
        ledger.genesis_settled(payer, 10**12)
    for i in range(transfers - TRANSFERS_MEASURED):
        ledger.transfer(payers[i % 100], payees[i % 10], 1 + i % 997, False, i)
    before = calibrate.reference_s()
    start = perf_counter_ns()
    for i in range(transfers - TRANSFERS_MEASURED, transfers):
        ledger.transfer(payers[i % 100], payees[i % 10], 1 + i % 997, False, i)
    elapsed_us = (perf_counter_ns() - start) / 1e3
    return elapsed_us * calibrate.scale(before, calibrate.reference_s()) / TRANSFERS_MEASURED


def named() -> dict[str, float]:
    return {name: globals()[fn](size) for name, (fn, size) in NAMED.items()}


def grid() -> dict[str, dict[int, float]]:
    return {fn: {size: globals()[fn](size) for size in sizes} for fn, sizes in GRID.items()}
