"""LP-shorting attack analysis.

The attack: short the pool's LP tokens, steal wrapped tokens from a victim
protocol, launder them through the pool at rate x/p, let the recovery drain
the pool (depressing the LP token price), then close the short at the lower
price.  Profit is x + b - m: the swap payout, plus the short-sale proceeds,
minus the buy-back cost.

The lending market and DEX are modeled analytically at spot prices — the
price of an LP token is pool-total/lp-supply before the recovery and drops
by at most the swap payout afterwards.  Spot equality is the worst case for
the safety claim, so it is what the cap bound must survive.

Core result, exact in rationals: profit exceeds the plain-theft baseline p
only when the exchange rate strictly exceeds lp_supply/(lp_supply+shorted).
Shorting everything pushes that threshold down to 1/2; shorting at most 10%
keeps it above 10/11 (~91%).  A pool rate cap at or below the threshold is
therefore safe, with equality allowed because profitability is strict.

Integer bookkeeping rounds against the attacker (proceeds floor, costs
ceil).  With T the pool total, L the LP supply, l the short, the exact
payout x = stolen·rate_ppm/PPM and the integer payout X = floor(x), let

    δ1 = x − X,   δ2 = l·T/L − sale,   δ3 = buyback − l·(T−X)/L,

each in [0, 1).  Then, exactly,

    exact − integer = δ1·(1 + l/L) + δ2 + δ3,

so with l <= L the integer model's profit is never above the exact rational
profit and is less than four token units below it (3.29 at most on the
acceptance grid).  The live end-to-end replay swaps into a fully settled
pool, whose multiplier saturates, so it returns exactly the integer
model's breakdown.

The live replay builds its pre-swap world (the LP deposit, any prior
recovery, and the theft) once per ``(pool_total, lp_supply, stolen)``.
Each replay forks it with one :meth:`~rpoolsim.world.World.copy`, sets the
fork's risk bounds, rate cap and lender's model, runs the swap and the
recovery on the fork, and drops it: the cached world is never written to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .amm import check_risk_bounds
from .errors import InvalidScenario, ZeroShort
from .oracle import ConstantRiskModel, RiskModel, issue_report
from .rates import PPM, ceil_div, check_rate
from .world import World


class _AttackFields(NamedTuple):
    pool_total: int   # tokens managed by the pool, settled plus unsettled
    lp_supply: int    # LP tokens in circulation
    collateral: int   # posted at the lending protocol
    shorted: int      # LP tokens borrowed and sold
    stolen: int       # tokens taken from the victim protocol
    rate_ppm: int     # pool exchange rate obtained for the stolen tokens


class AttackScenario(_AttackFields):
    """Parameters of one LP-shorting attempt, checked when built.

    ``pool_total`` and ``lp_supply`` are equal until the pool's first
    recovery event and the former never exceeds the latter afterwards.
    """

    __slots__ = ()

    def __new__(
        cls,
        pool_total: int,
        lp_supply: int,
        collateral: int,
        shorted: int,
        stolen: int,
        rate_ppm: int,
    ) -> AttackScenario:
        if lp_supply <= 0 or pool_total <= 0:
            raise InvalidScenario("pool total and LP supply must be positive")
        if pool_total > lp_supply:
            raise InvalidScenario("pool total cannot exceed LP supply")
        if not 0 <= shorted <= lp_supply:
            raise InvalidScenario("short must be between 0 and the LP supply")
        if collateral < 0:
            raise InvalidScenario("collateral cannot be negative")
        if stolen <= 0:
            raise InvalidScenario("stolen amount must be positive")
        if not 0 <= rate_ppm <= PPM:
            raise InvalidScenario("rate must lie in [0, 1]")
        return tuple.__new__(cls, (pool_total, lp_supply, collateral, shorted, stolen, rate_ppm))

    @classmethod
    def _make(cls, iterable) -> AttackScenario:
        # ``_replace`` builds through ``_make``, so a copy is checked too
        return cls(*iterable)

    @property
    def borrow_limit_respected(self) -> bool:
        """Whether the short stays within the spot borrowing power of the collateral."""
        return self.shorted * self.pool_total <= self.collateral * self.lp_supply


class ProfitBreakdown(NamedTuple):
    swap_out: int        # x: base received from the pool
    sale_proceeds: int   # b: short sale of LP tokens at the pre-attack price
    buyback_cost: int    # m: repurchase at the post-recovery price
    profit: int          # x + b - m
    stolen: int          # the plain-theft baseline p
    #: m >= collateral*(pool_total-x)/pool_total, evaluated only when the
    #: short saturates the borrow limit; None otherwise.
    meets_collateral_bound: bool | None

    @property
    def exceeds_stolen(self) -> bool:
        return self.profit > self.stolen


def _breakdown(
    scenario: AttackScenario, swap_out: int, total_before: int, total_after: int
) -> ProfitBreakdown:
    # one unpack, not ten field reads; built positionally, as keywords cost twice as much
    pool_total, lp_supply, collateral, shorted, stolen, _ = scenario
    sale = shorted * total_before // lp_supply
    buyback = ceil_div(shorted * total_after, lp_supply)
    bound = None
    if shorted > 0 and shorted == collateral * lp_supply // pool_total:  # at the limit
        bound = buyback * pool_total >= collateral * (pool_total - swap_out)
    return ProfitBreakdown(swap_out, sale, buyback, swap_out + sale - buyback, stolen, bound)


def simulate_attack(scenario: AttackScenario) -> ProfitBreakdown:
    """Analytic replay of the seven attack steps in integer arithmetic.

    The pool gains the stolen tokens, pays out the swap, then loses the
    stolen tokens to the recovery: net change is minus the swap payout, so
    the LP spot price falls from total/supply to (total-x)/supply.
    """
    swap_out = _swap_payout(scenario)
    return _breakdown(
        scenario, swap_out, scenario.pool_total, scenario.pool_total - swap_out
    )


def _swap_payout(scenario: AttackScenario) -> int:
    """The attack swap's payout at the scenario's rate, refused as
    :class:`InvalidScenario` when the pool could not pay it."""
    swap_out = scenario.stolen * scenario.rate_ppm // PPM
    if swap_out > scenario.pool_total:
        raise InvalidScenario(
            f"swap payout {swap_out} exceeds pool capacity {scenario.pool_total}"
        )
    return swap_out


def exact_profit(scenario: AttackScenario, rate: Fraction | None = None) -> Fraction:
    """Attack profit in exact rationals (the model the safety bound lives in).

    With payout x = stolen*rate, the short sells at total/L and buys back at
    (total-x)/L per token, so b - m = shorted*x/L and the profit x + b - m
    is stolen*rate*(L+shorted)/L, built as one fraction.
    """
    lp_supply = scenario.lp_supply
    if rate is None:
        numerator, denominator = scenario.rate_ppm, PPM
    else:
        numerator, denominator = rate.numerator, rate.denominator
    return Fraction(
        scenario.stolen * numerator * (lp_supply + scenario.shorted),
        denominator * lp_supply,
    )


def profitability_threshold(lp_supply: int, shorted: int) -> int:
    """Minimum exchange rate (ppm, floored) at which the attack can beat
    plain theft: :func:`exact_threshold` in ppm."""
    threshold = exact_threshold(lp_supply, shorted)
    return threshold.numerator * PPM // threshold.denominator


def exact_threshold(lp_supply: int, shorted: int) -> Fraction:
    """lp_supply / (lp_supply + shorted), for a short of 1 to lp_supply tokens."""
    if shorted == 0:
        raise ZeroShort("threshold undefined for a zero short")
    if not 0 < shorted <= lp_supply:
        raise InvalidScenario("short must be between 1 and the LP supply")
    return Fraction(lp_supply, lp_supply + shorted)


def is_cap_safe(rate_cap_ppm: int, max_short_fraction_ppm: int) -> bool:
    """True iff the rate cap makes the attack unprofitable for any attacker
    able to short at most the given fraction of LP tokens.

    Profitability requires the rate to *strictly* exceed 1/(1+f), so a cap
    exactly at the threshold is still safe.  The comparison is exact.
    """
    check_rate(rate_cap_ppm)
    if not 0 < max_short_fraction_ppm <= PPM:
        raise ValueError("short fraction must be in (0, 1]")
    # cap <= 1 / (1 + f), cross-multiplied in integers.
    return rate_cap_ppm * (PPM + max_short_fraction_ppm) <= PPM * PPM


REPLAY_WINDOW = 86_400
_VICTIM, _THIEF = "victim-protocol", "marvin"


def _steal(ledger, victim, thief, amount, now):
    """Mint and wrap ``amount`` at ``victim``, then taint its move to ``thief``."""
    ledger.base.mint(victim, amount)
    ledger.wrap(victim, amount, now)
    ledger.tainted.add(ledger.transfer(victim, thief, amount, False, now))


def _swap_recover(pool, signer, victim, thief, amount, case, now):
    """Swap the stolen ``amount`` through ``pool`` on one report from
    ``signer``, then claw it back to ``victim``: the receipt."""
    ledger = pool.ledger
    report = issue_report(signer, pool.registry, thief, amount, now, 60, ledger)
    receipt = pool.swap(thief, amount, [report], now)
    plan = ledger.plan_recovery(receipt.transfer_in_id, amount, now)
    ledger.freeze(ledger.arbitrator, plan, case, now)
    ledger.recover(ledger.arbitrator, case, victim, now)
    return receipt


@lru_cache(maxsize=8)  # the criterion 6 grid visits its keys in runs
def _pre_swap_world(pool_total: int, lp_supply: int, stolen: int) -> World:
    """The world just before the attack swap.

    The lender deposits ``lp_supply`` into an uncapped pool with risk
    bounds ``[0, 1]``.  When ``pool_total`` is lower, a prior recovery
    event brings the pool total down to it while leaving the LP supply
    untouched: an early thief swaps the shortfall through at rate 1 and
    the arbitrator claws it back.  Then the thief takes ``stolen`` from
    the victim protocol.  The result is cached and shared, so callers run
    on a :meth:`World.copy` of it and never write to it.
    """
    world = World(recovery_window=REPLAY_WINDOW, arbitrator="arbiter")
    lender = world.add_signer("lender", ConstantRiskModel(PPM))
    pool = world.add_pool(
        "pool",
        kappa_ppm=500_000,
        risk_bounds=(0, PPM),
        min_quorum=1,
        min_lp_deposit=1,
        rate_cap_ppm=PPM,
    )
    now = 0
    world.base.mint("lender", lp_supply)
    pool.deposit("lender", lp_supply, now)
    if lp_supply > pool_total:
        shortfall = lp_supply - pool_total
        _steal(world.ledger, "early-victim", "early-thief", shortfall, now)
        _swap_recover(pool, lender, "early-victim", "early-thief", shortfall, "prior-case", now)
    _steal(world.ledger, _VICTIM, _THIEF, stolen, now)
    return world


def end_to_end_attack_replay(
    scenario: AttackScenario,
    *,
    rate_cap_ppm: int = PPM,
    risk_bounds: tuple[int, int] = (0, PPM),
    model: RiskModel | None = None,
) -> ProfitBreakdown:
    """Execute the attack against live ledger and pool instances.

    The pool, its oracle, the theft, the swap, and the recovery all run for
    real; only the lending desk and the DEX legs are priced analytically at
    spot from the live pool totals.  ``risk_bounds`` and ``rate_cap_ppm``
    (checked first, as a pool's constructor checks them) apply to this
    replay's fork of the pre-swap world only.  A payout at the scenario's
    rate above the pool total is refused next, before any world is built
    or forked, as :func:`simulate_attack` refuses it.  The lender
    signs the attack's report with ``model``, by default a constant quote
    of the scenario's rate.  Pool rejections (rate bounds, nonce) propagate
    to the caller.  A payout that disagrees with the swap's receipt raises
    :class:`AssertionError`, under ``python -O`` too.
    """
    check_risk_bounds(risk_bounds)
    check_rate(rate_cap_ppm)
    _swap_payout(scenario)
    pool_total, lp_supply, _, _, stolen, rate_ppm = scenario
    world = _pre_swap_world(pool_total, lp_supply, stolen).copy()
    ledger, pool = world.ledger, world.pools["pool"]
    pool.risk_bounds = risk_bounds
    pool.rate_cap_ppm = rate_cap_ppm

    now = 0
    total_before = sum(ledger.settle_view("pool", now))
    lender = world.signers["lender"]  # the fork's own entity and constant model
    if model is None:
        lender.model.rate_ppm = rate_ppm
    else:
        lender.model = model
    receipt = _swap_recover(pool, lender, _VICTIM, _THIEF, stolen, "theft-case", now)
    total_after = sum(ledger.settle_view("pool", now))

    swap_out = world.base.balance(_THIEF)
    if swap_out != receipt.amount_out:
        raise AssertionError(f"thief holds {swap_out} base, receipt pays {receipt.amount_out}")
    return _breakdown(scenario, swap_out, total_before, total_after)
