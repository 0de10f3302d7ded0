"""Risk-rating entities, signed risk reports, and quorum validation.

A rating entity quotes the payable fraction of a proposed swap — one minus
its estimated clawback probability — and signs a report binding the quote to
the requestor, the amount, the requestor's current account nonce, and an
expiry.  The nonce binding is the anti-laundering defense: any balance
event touching the requestor between issuance and the swap invalidates the
report, which also rejects flash-loan-style atomic flows by construction.

The aggregator side is a pure function: given a pool's configuration and a
list of reports it either returns the median quote or raises the error of
the lowest-numbered check that fails, with the message of the first report
in list order that fails it.  So the error class does not depend on the
order of the reports.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Protocol

from .errors import (
    BadExpiry,
    BadSignature,
    DuplicateSigner,
    EmptyQuoteSet,
    OutOfRiskBounds,
    QuorumTooSmall,
    ReportExpired,
    RequestMismatch,
    SignerNotAuthorized,
    SignerNotLp,
    StaleNonce,
    UnknownSigner,
)
from .ledger import WrapperLedger
from .rates import check_rate


#: the fixed-width head of a report's encoding: requestor length, amount
#: (high and low 8 bytes), account nonce, expiry, quote, signer length
_HEAD = struct.Struct(">IQQQQII")
_LOW_64 = (1 << 64) - 1


def canonical_encode(
    requestor: str,
    amount: int,
    account_nonce: int,
    expiry: int,
    quote_ppm: int,
    signer_id: str,
) -> bytes:
    """Deterministic, injective byte encoding of a report's signed fields.

    A fixed 40-byte big-endian head (requestor length 4 bytes, amount 16,
    account nonce 8, expiry 8, quote 4, signer length 4) followed by the
    requestor's and the signer's UTF-8 bytes.  The head carries both
    lengths, so the bytes split back into exactly one field tuple, as in
    EIP-712's typed hashing.  A field outside its width, or not an integer,
    is a ``ValueError``.
    """
    requestor_bytes = requestor.encode()
    signer_bytes = signer_id.encode()
    try:
        head = _HEAD.pack(
            len(requestor_bytes),
            amount >> 64,
            amount & _LOW_64,
            account_nonce,
            expiry,
            quote_ppm,
            len(signer_bytes),
        )
    except (struct.error, TypeError) as exc:
        raise ValueError(f"report field not encodable: {exc}") from None
    return head + requestor_bytes + signer_bytes


class HashSignatureScheme:
    """Keyed-hash signatures for simulation use: sign = H(secret || message).

    Key pairs are symmetric (verification key equals the signing secret),
    which is fine at desk scale.
    """

    def keygen(self, seed: str) -> tuple[bytes, bytes]:
        secret = hashlib.sha256(b"rpool-signer:" + seed.encode()).digest()
        return secret, secret

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return hashlib.sha256(secret + message).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        expected = hashlib.sha256(public_key + message).digest()
        return hmac.compare_digest(expected, signature)


class RiskReport:
    __slots__ = (
        "requestor", "amount", "account_nonce", "expiry", "quote_ppm", "signer_id", "signature"
    )

    def __init__(
        self,
        requestor: str,
        amount: int,
        account_nonce: int,
        expiry: int,
        quote_ppm: int,
        signer_id: str,
        signature: bytes,
    ) -> None:
        self.requestor = requestor
        self.amount = amount
        self.account_nonce = account_nonce
        self.expiry = expiry
        self.quote_ppm = quote_ppm
        self.signer_id = signer_id
        self.signature = signature


class SignerRegistry:
    """Authorized rating entities and their verification keys."""

    #: stateless, so one scheme serves every registry
    scheme = HashSignatureScheme()

    def __init__(self) -> None:
        self._signers: dict[str, tuple[bytes, bool]] = {}

    def register(self, signer_id: str, public_key: bytes, authorized: bool = True) -> None:
        self._signers[signer_id] = (public_key, authorized)


class RiskModel(Protocol):
    rate_ppm: int  # a world's snapshot lists it; its copy builds type(model)(rate_ppm)

    def quote(
        self, ledger: WrapperLedger, requestor: str, amount: int, now: int
    ) -> int: ...


class ConstantRiskModel:
    """Quotes the same rate for every request."""

    __slots__ = ("rate_ppm",)

    def __init__(self, rate_ppm: int) -> None:
        self.rate_ppm = rate_ppm

    def quote(self, ledger: WrapperLedger, requestor: str, amount: int, now: int) -> int:
        return self.rate_ppm


class TaintAwareRiskModel(ConstantRiskModel):
    """Quotes zero (maximal risk) for holders of tainted funds.

    A requestor still holding unsettled value of a record whose origin
    transfer is in the ledger's tainted set (not yet due at ``now``, or
    frozen under an open case) is rated unswappable; everyone else gets
    ``rate_ppm``.  A quote costs one lookup per tainted transfer
    (:meth:`WrapperLedger.holds_record_from`), so it grows with the tainted
    set, not with the requestor's records or the open cases' marks.
    """

    __slots__ = ()

    def quote(self, ledger: WrapperLedger, requestor: str, amount: int, now: int) -> int:
        for transfer_id in ledger.tainted:
            if ledger.holds_record_from(requestor, transfer_id, now):
                return 0
        return self.rate_ppm


class RatingEntity:
    """A simulated risk-rating entity holding its signing secret."""

    __slots__ = ("signer_id", "secret", "model")

    def __init__(self, signer_id: str, secret: bytes, model: RiskModel) -> None:
        self.signer_id = signer_id
        self.secret = secret
        self.model = model


def issue_report(
    entity: RatingEntity,
    registry: SignerRegistry,
    requestor: str,
    amount: int,
    now: int,
    ttl: int,
    ledger: WrapperLedger,
) -> RiskReport:
    """Produce a signed report for the requestor's current account state.

    A view: it writes no state and leaves the ledger's clock where it is.
    A report at a time before the clock is refused only when its model
    reads the ledger at that time, as a taint-aware model does for each
    tainted transfer; the swap that submits it is refused in any case."""
    if entity.signer_id not in registry._signers:
        raise UnknownSigner(f"{entity.signer_id} is not registered")
    if ttl <= 0:
        raise BadExpiry(f"report ttl must be positive, got {ttl}")
    quote = check_rate(entity.model.quote(ledger, requestor, amount, now))
    account_nonce = ledger.nonce(requestor)
    expiry = now + ttl
    message = canonical_encode(requestor, amount, account_nonce, expiry, quote, entity.signer_id)
    signature = registry.scheme.sign(entity.secret, message)
    return RiskReport(requestor, amount, account_nonce, expiry, quote, entity.signer_id, signature)


def median_quote(quotes: list[int]) -> int:
    """Median rate; even cardinality takes the floored mean of the middle pair.

    Zero quotes raise :class:`EmptyQuoteSet`.  :func:`validate_reports`
    never passes zero: its quorum check raises :class:`QuorumTooSmall` first.
    """
    if not quotes:
        raise EmptyQuoteSet("median of zero quotes")
    ordered = sorted(quotes)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) // 2


#: The error each per-report check raises, by check number.  The pass keeps
#: a failure's number and message and builds the error where it raises it:
#: an error held in a local would make a cycle with its traceback's frame,
#: which keeps the pool and the reports alive until the cyclic collector runs.
_REPORT_CHECK_ERRORS = {
    3: SignerNotLp,
    4: SignerNotAuthorized,
    5: StaleNonce,
    6: ReportExpired,
    7: RequestMismatch,
    8: BadSignature,
}


def validate_reports(
    pool,
    requestor: str,
    amount: int,
    reports: list[RiskReport],
    now: int,
) -> int:
    """Run the pool's swap-validation checks and return the median quote.

    The checks, by number:

      1. quorum size        6. expiry (strict: now < expiry)
      2. unique signers     7. requestor/amount match the request
      3. signers are LPs    8. signatures verify
      4. signers authorized 9. median inside the pool's risk bounds
      5. nonces current

    The lowest-numbered failed check wins: its error is raised, with the
    message of the first report in list order that fails it.  So the error
    class does not depend on the order of ``reports``.

    Check 1 runs first.  Then one pass walks the reports in list order: a
    repeated signer raises at once, since only check 1 outranks check 2,
    and checks 3-8 run in order on each report while they could still come
    before the lowest failure recorded so far.  Check 9 runs on a clean
    pass.
    """
    if len(reports) < pool.min_quorum:
        raise QuorumTooSmall(f"{len(reports)} reports, quorum is {pool.min_quorum}")
    lp_holdings = pool.lp_holdings
    min_lp_deposit = pool.min_lp_deposit
    registry: SignerRegistry = pool.registry
    signers = registry._signers
    verify = registry.scheme.verify
    current_nonce = pool.ledger.nonce(requestor)
    seen = set()
    failed = 9  # the lowest check failed so far: 9 while none of 3-8 has
    message = ""
    for report in reports:
        signer_id = report.signer_id
        if signer_id in seen:
            raise DuplicateSigner("reports share a signer")
        seen.add(signer_id)
        if failed > 3:
            holding = lp_holdings.get(signer_id, 0)
            if holding <= 0 or holding < min_lp_deposit:
                failed = 3
                message = (
                    f"{signer_id} holds {holding} LP tokens, minimum deposit is {min_lp_deposit}"
                )
        if failed > 4:
            entry = signers.get(signer_id)  # (public key, authorized)
            if entry is None or not entry[1]:
                failed, message = 4, f"{signer_id} is not authorized"
        if failed > 5 and report.account_nonce != current_nonce:
            failed = 5
            message = f"report nonce {report.account_nonce} != current {current_nonce}"
        if failed > 6 and not now < report.expiry:
            failed, message = 6, f"report expired at {report.expiry}, now {now}"
        if failed > 7 and (report.requestor != requestor or report.amount != amount):
            failed = 7
            message = (
                f"report is for ({report.requestor}, {report.amount}), "
                f"request is ({requestor}, {amount})"
            )
        if failed > 8:
            # this report passed check 4, so ``entry`` is its signer's
            try:
                signed = canonical_encode(
                    report.requestor,
                    report.amount,
                    report.account_nonce,
                    report.expiry,
                    report.quote_ppm,
                    signer_id,
                )
            except ValueError:
                # an integer outside its field: no signature can cover the report
                failed, message = 8, f"report by {signer_id} is not encodable"
            else:
                if not verify(entry[0], signed, report.signature):
                    failed, message = 8, f"signature by {signer_id} does not verify"
    if failed < 9:
        raise _REPORT_CHECK_ERRORS[failed](message)
    median = median_quote([r.quote_ppm for r in reports])
    lo, hi = pool.risk_bounds
    if not lo <= median <= hi:
        raise OutOfRiskBounds(f"median {median} ppm outside [{lo}, {hi}]")
    return median
