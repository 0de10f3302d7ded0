#!/usr/bin/env python3
"""Walk through the three asset-recovery scenarios against a live pool.

A pool holding 100 settled + 100 unsettled tokens absorbs a tainted
100-token swap at rate 0.5, the stolen tokens are frozen and clawed back,
and we watch who ends up bearing the loss depending on when each LP
withdrew.

Run:
    python3 demos/recovery_walkthrough.py
"""

from rpoolsim import ConstantRiskModel, World, issue_report

WINDOW = 86_400


def build_pool(lp_name, lp_stake, partner_stake):
    """Pool at the worked-example state, with `lp_name` holding a share."""
    world = World(recovery_window=WINDOW, arbitrator="arb")
    base, ledger = world.base, world.ledger
    pool = world.add_pool(
        "pool",
        kappa_ppm=500_000, risk_bounds=(0, 1_000_000),
        min_quorum=1, min_lp_deposit=1, rate_cap_ppm=500_000,
    )
    for name, stake in ((lp_name, lp_stake), ("partner", partner_stake)):
        base.mint(name, stake)
        pool.deposit(name, stake, 0)
    # pre-existing unsettled traffic parked in the pool
    base.mint("donor", 100)
    ledger.wrap("donor", 100, 0)
    ledger.transfer("donor", "pool", 100, False, 0)
    # the theft: victim's settled tokens land unsettled at mallory
    base.mint("victim", 100)
    ledger.wrap("victim", 100, 0)
    ledger.transfer("victim", "mallory", 100, False, 0)
    rater = world.add_signer("partner", ConstantRiskModel(500_000))
    report = issue_report(rater, world.registry, "mallory", 100, 0, 60, ledger)
    receipt = pool.swap("mallory", 100, [report], 0)
    return base, ledger, pool, receipt


def show(pool, label):
    s = pool.pool_state(0)
    print(f"  {label}: {s.settled} settled / {s.unsettled} unsettled "
          f"(total {s.total}, LP supply {s.lp_supply})")


def recover(ledger, receipt):
    plan = ledger.plan_recovery(receipt.transfer_in_id, 100, 0)
    print(f"  recovery plan: {plan}")
    ledger.freeze("arb", plan, "theft", 0)
    ledger.recover("arb", "theft", "victim", 0)


print("=== Scenario 1: L0 withdraws AFTER the clawback ===")
base, ledger, pool, receipt = build_pool("L0", 10, 90)
show(pool, "after the tainted swap")
recover(ledger, receipt)
show(pool, "after the clawback")
base_out, unsettled_out = pool.withdraw("L0", 10, 0)
print(f"  L0 (10% of the pool) withdraws: {base_out} base + {unsettled_out} unsettled")
print("  L0 shares the loss: 15 back instead of the 20 a clean pool would owe.\n")

print("=== Scenario 2: L1 (50%) withdraws BEFORE the clawback ===")
base, ledger, pool, receipt = build_pool("L1", 50, 50)
base_out, unsettled_out = pool.withdraw("L1", 50, 0)
print(f"  L1 withdraws first: {base_out} base + {unsettled_out} unsettled")
recover(ledger, receipt)
show(pool, "after the clawback")
print("  The pool covered the whole 100; L1 keeps everything, the remaining")
print("  LPs absorb the loss.\n")

print("=== Scenario 3: L2 (60%) withdraws BEFORE the clawback ===")
base, ledger, pool, receipt = build_pool("L2", 60, 40)
base_out, unsettled_out = pool.withdraw("L2", 60, 0)
print(f"  L2 withdraws first: {base_out} base + {unsettled_out} unsettled")
recover(ledger, receipt)
settled, unsettled = ledger.settle_view("L2", 0)
print(f"  L2 after the clawback: {settled} settled + {unsettled} unsettled wrapper tokens")
print("  The pool only held 80 of the stolen 100, so the plan reached 20")
print("  tokens straight out of L2's recent withdrawal.")
