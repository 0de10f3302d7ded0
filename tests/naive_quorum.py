"""The six-pass quorum check, kept as a test oracle for
:func:`rpoolsim.oracle.validate_reports`.

A plain second spelling of the nine checks: each of checks 3-8 walks the
whole report list before the next one starts and raises at the first
report that fails it, so the lowest-numbered failed check wins and its
first failing report in list order names the message.  This is the
one-pass check's earlier six-pass form, unchanged but for the check-4
loop: the registry has no ``is_authorized`` method any more, so
:func:`_is_authorized` reads the same registry entry.
"""

from __future__ import annotations

from rpoolsim.errors import (
    BadSignature,
    DuplicateSigner,
    OutOfRiskBounds,
    QuorumTooSmall,
    ReportExpired,
    RequestMismatch,
    SignerNotAuthorized,
    SignerNotLp,
    StaleNonce,
)
from rpoolsim.oracle import RiskReport, SignerRegistry, canonical_encode, median_quote


def _is_authorized(registry, signer_id: str) -> bool:
    entry = registry._signers.get(signer_id)
    return entry is not None and entry[1]


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
    lp_holdings = pool.lp_holdings
    min_lp_deposit = pool.min_lp_deposit
    for signer_id in signer_ids:
        holding = lp_holdings.get(signer_id, 0)
        if holding <= 0 or holding < min_lp_deposit:
            raise SignerNotLp(
                f"{signer_id} holds {holding} LP tokens, "
                f"minimum deposit is {min_lp_deposit}"
            )
    registry: SignerRegistry = pool.registry
    for signer_id in signer_ids:
        if not _is_authorized(registry, signer_id):
            raise SignerNotAuthorized(f"{signer_id} is not authorized")
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
    # every signer is registered: check 4 passed
    signers = registry._signers
    verify = registry.scheme.verify
    for report in reports:
        signer_id = report.signer_id
        try:
            message = canonical_encode(
                report.requestor,
                report.amount,
                report.account_nonce,
                report.expiry,
                report.quote_ppm,
                signer_id,
            )
        except ValueError:
            # an integer outside its field: no signature can cover the report
            raise BadSignature(f"report by {signer_id} is not encodable") from None
        if not verify(signers[signer_id][0], message, report.signature):
            raise BadSignature(f"signature by {signer_id} does not verify")
    median = median_quote([r.quote_ppm for r in reports])
    lo, hi = pool.risk_bounds
    if not lo <= median <= hi:
        raise OutOfRiskBounds(f"median {median} ppm outside [{lo}, {hi}]")
    return median
