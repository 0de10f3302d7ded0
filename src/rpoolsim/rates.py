"""Parts-per-million rate arithmetic.

Exchange rates live in [0, 1] and are carried as integer parts-per-million
so every computation is exact and reproducible.  Products floor by default.
Where a floor would favour the party that rounding should work against, the
ceiling :func:`ceil_div` is used instead: an order-book bid's asking price
(a floor would undercut the bidder's stated minimum), and the attack lab's
short buy-back cost (integer bookkeeping rounds against the attacker).
"""

from __future__ import annotations

import re

PPM = 1_000_000

#: Default hard cap on a pool's effective exchange rate; at or below one half
#: the LP-shorting attack can never beat the attacker's plain-theft baseline.
DEFAULT_RATE_CAP_PPM = 500_000

_RATE_RE = re.compile(r"([0-9]+)(?:\.([0-9]*))?")


def check_rate(rate_ppm: int, name: str = "rate") -> int:
    """Validate a ppm rate, returning it unchanged; a refusal names it ``name``."""
    if type(rate_ppm) is int and 0 <= rate_ppm <= PPM:
        return rate_ppm
    if not isinstance(rate_ppm, int) or isinstance(rate_ppm, bool):
        raise TypeError(f"{name} must be an integer ppm value, got {rate_ppm!r}")
    if not 0 <= rate_ppm <= PPM:
        raise ValueError(f"{name} {rate_ppm} ppm outside [0, {PPM}]")
    return rate_ppm


def ceil_div(numerator: int, denominator: int) -> int:
    """ceil(numerator / denominator) for a positive denominator, exactly."""
    return -(-numerator // denominator)


def parse_rate(text: str) -> int:
    """Parse a decimal rate string ("0.6", "1", ".25") into ppm.

    Rejects values outside [0, 1] and anything needing more than six
    decimal places, so every accepted rate is exactly representable.
    """
    if text.startswith("."):
        text = "0" + text
    m = _RATE_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rate {text!r}")
    whole, frac = m.group(1), m.group(2) or ""
    if m.group(2) is not None and frac == "":
        raise ValueError(f"malformed rate {text!r}")
    if len(frac) > 6:
        raise ValueError(f"rate {text!r} has more than six decimal places")
    ppm = int(whole) * PPM + int((frac + "000000")[:6])
    if ppm > PPM:
        raise ValueError(f"rate {text!r} exceeds 1")
    return ppm


def format_rate(rate_ppm: int) -> str:
    """Render a ppm rate as the shortest exact decimal ("0.5", "1", "0.909090")."""
    check_rate(rate_ppm)
    whole, frac = divmod(rate_ppm, PPM)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:06d}".rstrip("0")
