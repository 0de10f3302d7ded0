#!/usr/bin/env python3
"""The nonce defense: why pre-fetched risk reports cannot launder a theft.

Marvin gets glowing risk reports while his account is pristine, then pulls
the heist and tries to swap the loot with the old reports.  The swap dies
on the nonce check, because the theft deposit bumped his account nonce.

Run:
    python3 demos/flashloan_defense.py
"""

from rpoolsim import ConstantRiskModel, World, issue_report
from rpoolsim.errors import StaleNonce

world = World(recovery_window=86_400, arbitrator="arb")
base, ledger, registry = world.base, world.ledger, world.registry
pool = world.add_pool(
    "pool",
    kappa_ppm=500_000, risk_bounds=(400_000, 1_000_000),
    min_quorum=1, min_lp_deposit=1, rate_cap_ppm=1_000_000,
)
base.mint("lp", 500)
pool.deposit("lp", 500, 0)
rater = world.add_signer("lp", ConstantRiskModel(900_000))

print(f"marvin's nonce while pristine: {ledger.nonce('marvin')}")
report = issue_report(rater, registry, "marvin", 100, 0, 300, ledger)
print(f"report issued: quote {report.quote_ppm} ppm, bound to nonce {report.account_nonce}")

# the heist lands 100 unsettled tokens in marvin's account
base.mint("protocol", 100)
ledger.wrap("protocol", 100, 1)
ledger.transfer("protocol", "marvin", 100, False, 1)
print(f"after the theft marvin's nonce is {ledger.nonce('marvin')}")

try:
    pool.swap("marvin", 100, [report], 2)
except StaleNonce as exc:
    print(f"swap rejected: StaleNonce ({exc})")

state = pool.pool_state(2)
print(f"pool untouched: {state.settled} settled / {state.unsettled} unsettled")
print()
print("The same rule blocks honest flash-loan flows: any deposit into the")
print("requestor's account between rating and swap invalidates the report,")
print("which is exactly what makes the laundering route unusable.")
