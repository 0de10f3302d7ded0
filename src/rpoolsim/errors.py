"""Domain error types.

Every rejection a simulated contract can produce is a distinct exception
class, so scenario scripts and tests can pin the exact failure mode by
name (``expect_error=StaleNonce``).  All of them derive from
:class:`RPoolError`; anything else escaping the simulator is a bug, not a
modeled rejection.
"""

from __future__ import annotations


class RPoolError(Exception):
    """Base class for all modeled rejections."""

    @property
    def name(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# token ledger
# ---------------------------------------------------------------------------

class ZeroAmount(RPoolError):
    """Operation called with a zero amount."""


class InsufficientBase(RPoolError):
    """Base-token balance too small."""


class InsufficientSettled(RPoolError):
    """Settled wrapper balance too small (unsettled tokens never unwrap)."""


class InsufficientBalance(RPoolError):
    """Spendable wrapper balance too small for a transfer."""


class InsufficientUnsettled(RPoolError):
    """Unsettled balance too small to freeze or bid against."""


class UnwrapDisabled(RPoolError):
    """Account permanently opted out of unwrapping."""


class FrozenFunds(RPoolError):
    """The shortfall is explained by amounts under an active freeze."""


class SelfTransfer(RPoolError):
    """Sender and recipient are the same account."""


class NotArbitrator(RPoolError):
    """Freeze/recover/release caller is not the configured arbitrator."""


class UnknownCase(RPoolError):
    """Case id does not name an open case (or re-uses a spent one)."""


class Uncoverable(RPoolError):
    """Recovery plan cannot reach the requested amount."""


class ReservedName(RPoolError):
    """The arbitrator, the wrapper's own address and the ``<nobody>``
    sentinel cannot hold an account."""


class ClockWentBack(RPoolError):
    """Called at a time before the latest one an operation used."""


# ---------------------------------------------------------------------------
# risk oracle
# ---------------------------------------------------------------------------

class UnknownSigner(RPoolError):
    """Rating entity is not registered."""


class EmptyQuoteSet(RPoolError):
    """Median requested over zero quotes.

    Only a direct :func:`~rpoolsim.oracle.median_quote` call raises it:
    ``validate_reports`` raises :class:`QuorumTooSmall` first, and a pool's
    quorum is at least 1, so no pool, runner or CLI operation reaches it.
    """


class QuorumTooSmall(RPoolError):
    """Fewer reports than the pool's minimum quorum."""


class DuplicateSigner(RPoolError):
    """Two reports share a signer."""


class SignerNotLp(RPoolError):
    """Signer is not an LP with the pool's minimum deposit."""


class SignerNotAuthorized(RPoolError):
    """Signer is not on the pool's authorized roster."""


class StaleNonce(RPoolError):
    """Requestor's account nonce moved since the report was issued."""


class ReportExpired(RPoolError):
    """Report expiry is not strictly in the future."""


class RequestMismatch(RPoolError):
    """Report requestor/amount differ from the swap request."""


class BadSignature(RPoolError):
    """Report signature does not verify."""


class OutOfRiskBounds(RPoolError):
    """Median quote falls outside the pool's configured risk bounds."""


# ---------------------------------------------------------------------------
# automated pool
# ---------------------------------------------------------------------------

class InsufficientLpTokens(RPoolError):
    """LP tried to burn more pool shares than it holds."""


class InsufficientPoolSettled(RPoolError):
    """Pool's settled liquidity cannot cover the swap payout."""


class PoolEmptied(RPoolError):
    """Clawbacks left the pool holding nothing while LP tokens are still
    outstanding: a deposit would hand part of itself to worthless shares."""


# ---------------------------------------------------------------------------
# order book
# ---------------------------------------------------------------------------

class NotBidder(RPoolError):
    """Cancel attempted by someone other than the bid owner."""


class BidNotOpen(RPoolError):
    """Bid id is unknown, cancelled, or already filled."""


class BadExpiry(RPoolError):
    """Bid or report expiry is not in the future (a report ttl must be positive)."""


class BidExpired(RPoolError):
    """Match attempted at or after the bid's expiry."""


class QuoteTooLow(RPoolError):
    """Offered base amount is below the bidder's minimum asking price."""


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

class UnboundLabel(RPoolError):
    """A step names a label whose binding step failed."""


# ---------------------------------------------------------------------------
# attack lab
# ---------------------------------------------------------------------------

class InvalidScenario(RPoolError):
    """Attack scenario violates its own invariants."""


class ZeroShort(RPoolError):
    """Profitability threshold is undefined for a zero short position."""


def _collect(cls: type) -> dict[str, type]:
    out: dict[str, type] = {}
    for sub in cls.__subclasses__():
        out[sub.__name__] = sub
        out.update(_collect(sub))
    return out


#: name -> class, for ``expect_error`` lookups in scenario scripts.
ERRORS_BY_NAME: dict[str, type] = _collect(RPoolError)
