"""The automated-market pool exchanging unsettled wrapper tokens for base.

The pool's ledger account holds only wrapper tokens: LP deposits arrive as
base and are wrapped immediately, swap payouts are unwrapped on the way
out, so no pool operation changes the base held at the pool address.  Base
that other steps send there (a mint, an unwrap to it) is inert.  Swap
pricing is the median oracle quote scaled by a bonding-curve multiplier
that decays once the pool's settled fraction drops below the configured
threshold, then clamped by a hard rate cap (the LP-shorting defense).

LP shares are an internal map rather than tokens on the ledger; their
market price during attacks is modeled analytically in the attack lab.

Deposits mint shares against the pool's *current* total, so newcomers are
not diluted by clawbacks that predate them.  Withdrawals pay out the pool's
settled:unsettled mix pro rata — keeping the bonding-curve input ratio
unchanged — with the settled share unwrapped to base and the unsettled
share transferred as wrapper tokens whose window restarts at the LP.

Every pool operation reads the pool's balance through the ledger, so a call
before the ledger's clock is refused with ``ClockWentBack``, and every
accepted one moves the clock to its ``now``: a withdrawal stores it itself,
since one that pays ``(0, 0)`` makes no ledger call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InsufficientLpTokens, InsufficientPoolSettled, PoolEmptied, UnwrapDisabled
from .ledger import WrapperLedger, check_amount, slot_initializer
from .oracle import RiskReport, SignerRegistry, validate_reports
from .rates import DEFAULT_RATE_CAP_PPM, PPM, check_rate


def settled_multiplier(settled: int, total: int, kappa_ppm: int) -> int:
    """Bonding-curve multiplier min(1, (settled/total)/kappa) in ppm.

    Rises linearly with the pool's settled fraction and saturates at 1 once
    the fraction reaches ``kappa``.  An empty pool quotes 0 rather than
    divide by zero.  A swap priced at 0 is not refused: it pays 0 base and
    the pool keeps the unsettled tokens.
    """
    if total == 0:
        return 0
    if not 0 <= settled <= total:
        raise ValueError(f"settled {settled} outside [0, {total}]")
    return min(PPM, settled * PPM * PPM // (total * kappa_ppm))


def check_risk_bounds(risk_bounds: tuple[int, int]) -> None:
    """Validate a pool's ``(low, high)`` bounds on the median quote."""
    check_rate(risk_bounds[0], "risk_lo_ppm")
    check_rate(risk_bounds[1], "risk_hi_ppm")
    if risk_bounds[0] > risk_bounds[1]:
        raise ValueError("risk bounds out of order")


@slot_initializer
@dataclass(frozen=True, init=False)
class SwapReceipt:
    # slotted by hand and given its __init__ by slot_initializer: see the
    # comment on the ledger's record builders
    __slots__ = (
        "requestor", "amount_in", "median_ppm", "multiplier_ppm", "rate_ppm", "amount_out",
        "time", "transfer_in_id",
    )
    requestor: str
    amount_in: int
    median_ppm: int
    multiplier_ppm: int
    rate_ppm: int
    amount_out: int
    time: int
    #: ledger id of the inbound unsettled transfer; recovery plans start here
    transfer_in_id: int


class PoolState(NamedTuple):
    settled: int
    unsettled: int
    total: int
    lp_supply: int


#: Builds an exact :class:`PoolState` from one tuple of its four fields
#: without the generated constructor's frame, as the ledger builds its
#: records.
_new_pool_state = functools.partial(tuple.__new__, PoolState)


class AmmPool:
    """Automated R-Pool over one wrapper ledger account."""

    def __init__(
        self,
        ledger: WrapperLedger,
        address: str,
        registry: SignerRegistry,
        *,
        kappa_ppm: int,
        risk_bounds: tuple[int, int],
        min_quorum: int,
        min_lp_deposit: int,
        rate_cap_ppm: int = DEFAULT_RATE_CAP_PPM,
    ) -> None:
        if not 0 < kappa_ppm < PPM:
            raise ValueError(f"kappa_ppm must be strictly between 0 and {PPM}")
        check_risk_bounds(risk_bounds)
        if min_quorum < 1:
            raise ValueError("quorum must be at least 1")
        check_rate(rate_cap_ppm, "rate_cap_ppm")
        ledger.check_name(address)
        self.ledger = ledger
        self.address = address
        self.registry = registry
        self.kappa_ppm = kappa_ppm
        self.risk_bounds = risk_bounds
        self.min_quorum = min_quorum
        self.min_lp_deposit = min_lp_deposit
        self.rate_cap_ppm = rate_cap_ppm
        self.lp_supply = 0
        self.lp_holdings: dict[str, int] = {}
        self.receipts: list[SwapReceipt] = []
        # Pools must be able to unwrap their settled liquidity.
        if ledger.is_unwrap_disabled(address):
            raise ValueError(f"pool account {address} has unwrapping disabled")

    def _check_unwrap(self) -> None:
        """Reject a base payout before the operation's first write: the
        pool's account may have disabled unwrapping after construction."""
        if self.ledger.is_unwrap_disabled(self.address):
            raise UnwrapDisabled(f"unwrapping is disabled for {self.address}")

    # -- views -----------------------------------------------------------

    def pool_state(self, now: int) -> PoolState:
        settled, unsettled = self.ledger.settle_view(self.address, now)
        return _new_pool_state((settled, unsettled, settled + unsettled, self.lp_supply))

    # -- liquidity -------------------------------------------------------

    def deposit(self, lp: str, amount: int, now: int) -> int:
        """Add base liquidity; returns the LP tokens minted.

        Shares are priced against the pool total *before* the deposit, so a
        deposit's redeemable value equals the deposit regardless of past
        clawbacks.  The genesis deposit mints one share per token.  A pool
        that clawbacks emptied while LP tokens are outstanding takes no
        deposit until those worthless tokens are burned: at any share price
        they would claim part of it.
        """
        check_amount(amount)
        _, _, total, _ = self.pool_state(now)
        if self.lp_supply == 0:
            minted = amount
        elif total == 0:
            raise PoolEmptied(f"{self.address} holds nothing against {self.lp_supply} LP tokens")
        else:
            minted = amount * self.lp_supply // total
        self.ledger.base.transfer(lp, self.address, amount)
        self.ledger.wrap(self.address, amount, now)
        if minted:  # a holding is never 0: withdraw deletes emptied ones
            self.lp_holdings[lp] = self.lp_holdings.get(lp, 0) + minted
            self.lp_supply += minted
        return minted

    def withdraw(self, lp: str, lp_tokens: int, now: int) -> tuple[int, int]:
        """Burn LP tokens for the pro-rata pool share.

        Returns ``(base_out, unsettled_out)``: the settled portion is
        unwrapped and paid as base, the unsettled portion is transferred as
        wrapper tokens (window restarting here).  The split preserves the
        pool's settled:unsettled ratio so withdrawals cannot steer the
        bonding curve.
        """
        check_amount(lp_tokens)
        held = self.lp_holdings.get(lp, 0)
        if held < lp_tokens:
            raise InsufficientLpTokens(f"{lp} holds {held}, burning {lp_tokens}")
        _, unsettled, total, _ = self.pool_state(now)
        # lp_supply >= held >= lp_tokens > 0; a pool total of 0 pays out 0
        withdrawn = lp_tokens * total // self.lp_supply
        unsettled_out = withdrawn * unsettled // total if withdrawn else 0
        base_out = withdrawn - unsettled_out

        if base_out:
            self._check_unwrap()
        if unsettled_out:
            self.ledger.transfer_unsettled(self.address, lp, unsettled_out, now)
        if base_out:
            self.ledger.unwrap_to(self.address, base_out, lp, now)
        # a payout of (0, 0) makes no ledger call, so the clock is stored
        # here, after the transfer that may still refuse frozen value
        self.ledger.clock = now
        self.lp_holdings[lp] = held - lp_tokens
        if self.lp_holdings[lp] == 0:
            del self.lp_holdings[lp]
        self.lp_supply -= lp_tokens
        return base_out, unsettled_out

    # -- swapping --------------------------------------------------------

    def swap(
        self, requestor: str, amount_in: int, reports: list[RiskReport], now: int
    ) -> SwapReceipt:
        """Exchange the requestor's unsettled tokens for base at the quoted rate.

        The full report validation (including the nonce check) runs before
        any state changes; pricing reads the pre-swap pool state, so the
        requestor gets exactly the rate it could have computed beforehand.
        """
        check_amount(amount_in)
        median = validate_reports(self, requestor, amount_in, reports, now)
        settled, _, total, _ = self.pool_state(now)
        multiplier = settled_multiplier(settled, total, self.kappa_ppm)
        rate = min(self.rate_cap_ppm, median * multiplier // PPM)
        amount_out = amount_in * rate // PPM
        if settled < amount_out:
            raise InsufficientPoolSettled(
                f"pool has {settled} settled, swap needs {amount_out}"
            )
        if amount_out:
            self._check_unwrap()
        transfer_in = self.ledger.transfer_unsettled(
            requestor, self.address, amount_in, now
        )
        if amount_out:
            self.ledger.unwrap_to(self.address, amount_out, requestor, now)
        receipt = SwapReceipt(
            requestor, amount_in, median, multiplier, rate, amount_out, now, transfer_in
        )
        self.receipts.append(receipt)
        return receipt
