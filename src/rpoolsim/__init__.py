"""Deterministic simulator for recoverable wrapped tokens and R-Pools.

The package models a recoverable token wrapper (settled/unsettled balances,
freezes, clawbacks), an automated-market pool priced by a risk-oracle
quorum and bonding curve, an order-book pool, and the analysis of the
LP-shorting attack against the automated design.  Everything is integer- or
rational-exact and driven by an explicit clock, so runs replay bit-for-bit.

The namespace is lazy (PEP 562): ``import rpoolsim`` loads no submodule,
and each public name imports its defining module on first access, so a
command pays only for the modules it runs.
"""

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "AmmPool": "amm",
    "PoolState": "amm",
    "SwapReceipt": "amm",
    "settled_multiplier": "amm",
    "AttackScenario": "attack",
    "ProfitBreakdown": "attack",
    "end_to_end_attack_replay": "attack",
    "exact_profit": "attack",
    "exact_threshold": "attack",
    "is_cap_safe": "attack",
    "profitability_threshold": "attack",
    "simulate_attack": "attack",
    "ERRORS_BY_NAME": "errors",
    "RPoolError": "errors",
    "Account": "ledger",
    "BaseLedger": "ledger",
    "UnsettledRecord": "ledger",
    "WrapperLedger": "ledger",
    "ConstantRiskModel": "oracle",
    "HashSignatureScheme": "oracle",
    "RatingEntity": "oracle",
    "RiskReport": "oracle",
    "SignerRegistry": "oracle",
    "TaintAwareRiskModel": "oracle",
    "canonical_encode": "oracle",
    "issue_report": "oracle",
    "median_quote": "oracle",
    "validate_reports": "oracle",
    "Bid": "orderbook",
    "Fill": "orderbook",
    "OrderBook": "orderbook",
    "PPM": "rates",
    "format_rate": "rates",
    "parse_rate": "rates",
    "World": "world",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
