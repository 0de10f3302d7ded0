"""Risk-rating entities, signed risk reports, and quorum validation.

A rating entity quotes the payable fraction of a proposed swap — one minus
its estimated clawback probability — and signs a report binding the quote to
the requestor, the amount, the requestor's current account nonce, and an
expiry.  The nonce binding is the anti-laundering defense: any balance
event touching the requestor between issuance and the swap invalidates the
report, which also rejects flash-loan-style atomic flows by construction.

The aggregator side is a pure function: given a pool's configuration and a
list of reports it either returns the median quote or raises the error for
the first failed check.
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
    EIP-712's typed hashing.  A field outside its width is a ``ValueError``.
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
    except struct.error as exc:
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

    def signed_bytes(self) -> bytes:
        return canonical_encode(
            self.requestor,
            self.amount,
            self.account_nonce,
            self.expiry,
            self.quote_ppm,
            self.signer_id,
        )


class SignerRegistry:
    """Authorized rating entities and their verification keys."""

    def __init__(self) -> None:
        self.scheme = HashSignatureScheme()
        self._signers: dict[str, tuple[bytes, bool]] = {}

    def register(self, signer_id: str, public_key: bytes, authorized: bool = True) -> None:
        self._signers[signer_id] = (public_key, authorized)

    def is_registered(self, signer_id: str) -> bool:
        return signer_id in self._signers

    def is_authorized(self, signer_id: str) -> bool:
        entry = self._signers.get(signer_id)
        return entry is not None and entry[1]

    def public_key(self, signer_id: str) -> bytes:
        return self._signers[signer_id][0]


class RiskModel(Protocol):
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


class TaintAwareRiskModel:
    """Quotes zero (maximal risk) for holders of tainted funds.

    A requestor still holding unsettled value of a record whose origin
    transfer is in the tainted set (not yet due at ``now``, or in part
    frozen) is rated unswappable; everyone else gets ``clean_rate_ppm``.
    The tainted set is shared with the scenario driver, which marks transfer
    ids as thefts are scripted.  A quote looks up each tainted transfer's
    record, so it costs the size of the tainted set, not the requestor's
    record count.
    """

    __slots__ = ("tainted_transfer_ids", "clean_rate_ppm")

    def __init__(self, tainted_transfer_ids: set[int], clean_rate_ppm: int) -> None:
        self.tainted_transfer_ids = tainted_transfer_ids
        self.clean_rate_ppm = clean_rate_ppm

    def quote(self, ledger: WrapperLedger, requestor: str, amount: int, now: int) -> int:
        for transfer_id in self.tainted_transfer_ids:
            if ledger.holds_record_from(requestor, transfer_id, now):
                return 0
        return self.clean_rate_ppm


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
    """Produce a signed report for the requestor's current account state."""
    if not registry.is_registered(entity.signer_id):
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
    """Median rate; even cardinality takes the floored mean of the middle pair."""
    if not quotes:
        raise EmptyQuoteSet("median of zero quotes")
    ordered = sorted(quotes)
    n = len(ordered)
    if n % 2:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) // 2


def validate_reports(
    pool,
    requestor: str,
    amount: int,
    reports: list[RiskReport],
    now: int,
) -> int:
    """Run the pool's swap-validation checks and return the median quote.

    Checks run in a fixed order over the whole report set, so the outcome is
    invariant under permutation of ``reports``:

      1. quorum size        6. expiry (strict: now < expiry)
      2. unique signers     7. requestor/amount match the request
      3. signers are LPs    8. signatures verify
      4. signers authorized 9. median inside the pool's risk bounds
      5. nonces current
    """
    if len(reports) < pool.min_quorum:
        raise QuorumTooSmall(f"{len(reports)} reports, quorum is {pool.min_quorum}")
    signer_ids = [r.signer_id for r in reports]
    if len(set(signer_ids)) != len(signer_ids):
        raise DuplicateSigner("reports share a signer")
    for report in reports:
        holding = pool.lp_holdings.get(report.signer_id, 0)
        if holding <= 0 or holding < pool.min_lp_deposit:
            raise SignerNotLp(
                f"{report.signer_id} holds {holding} LP tokens, "
                f"minimum deposit is {pool.min_lp_deposit}"
            )
    registry: SignerRegistry = pool.registry
    for report in reports:
        if not registry.is_authorized(report.signer_id):
            raise SignerNotAuthorized(f"{report.signer_id} is not authorized")
    current_nonce = pool.ledger.nonce(requestor)
    for report in reports:
        if report.account_nonce != current_nonce:
            raise StaleNonce(
                f"report nonce {report.account_nonce} != current {current_nonce}"
            )
    for report in reports:
        if not now < report.expiry:
            raise ReportExpired(f"report expired at {report.expiry}, now {now}")
    for report in reports:
        if report.requestor != requestor or report.amount != amount:
            raise RequestMismatch(
                f"report is for ({report.requestor}, {report.amount}), "
                f"request is ({requestor}, {amount})"
            )
    for report in reports:
        try:
            message = report.signed_bytes()
        except ValueError:
            # an integer outside its field: no signature can cover the report
            raise BadSignature(f"report by {report.signer_id} is not encodable") from None
        if not registry.scheme.verify(
            registry.public_key(report.signer_id), message, report.signature
        ):
            raise BadSignature(f"signature by {report.signer_id} does not verify")
    median = median_quote([r.quote_ppm for r in reports])
    lo, hi = pool.risk_bounds
    if not lo <= median <= hi:
        raise OutOfRiskBounds(f"median {median} ppm outside [{lo}, {hi}]")
    return median
