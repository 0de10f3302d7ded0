"""A fixed reference computation that measures how fast the host runs now.

The benchmark host is shared and its speed drifts: the same work has taken
from 1x to 2x as long in phases lasting seconds.  The harness times this
reference, which imports nothing from ``rpoolsim``, before and after every
stretch of a quarter second or so of timed work, and scales that stretch's
times by ``REFERENCE_S / reference time``.  The reference runs with the
cyclic garbage collector off, so its time does not depend on how many
objects the program keeps alive; program changes then still show in full,
while host phases cancel.  The summary prints the unscaled throughput too.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

#: the reference's duration on the host this constant was taken on, in
#: its fast phase; scaled times read as times on that host
REFERENCE_S = 0.035
ROUNDS = 60


@dataclass
class _Record:
    amount: int
    time: int
    owner: str


def reference() -> int:
    """Interpreter work of the simulator's kind: small objects, dicts,
    lists, JSON, hashing and Fractions."""
    total = 0
    for r in range(ROUNDS):
        accounts: dict[str, list[_Record]] = {}
        for i in range(300):
            name = f"u{(i * 7919 + r) % 257:04d}"
            accounts.setdefault(name, []).append(_Record(i, r, name))
        view = {n: (sum(x.amount for x in recs), len(recs)) for n, recs in accounts.items()}
        blob = json.dumps(sorted(view.items()), separators=(",", ":")).encode()
        total += hashlib.sha256(blob).digest()[0]
        total += int(Fraction(r + 1, 7) * Fraction(3, r + 2) * 100)
    return total


def reference_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        reference()
        return (perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns times taken between two reference runs into
    times on the reference host."""
    return REFERENCE_S / ((before + after) / 2)


class Host:
    """Cuts a run of timed samples into stretches of about ``STRETCH_S``
    bracketed by reference runs.  The host's phases last seconds, so a
    stretch this short sits inside one phase and both brackets see it."""

    STRETCH_S = 0.25

    def __init__(self) -> None:
        self.refs = [reference_s()]
        self.marks = [0]  # sample count at each reference
        self.last = perf_counter_ns()

    def checkpoint(self, samples: int) -> None:
        """Call between samples; runs the reference once a stretch is full."""
        if perf_counter_ns() - self.last >= self.STRETCH_S * 1e9:
            self._reference(samples)

    def scales(self, samples: int) -> list[float]:
        """Close the last stretch; one scale factor per sample."""
        if samples > self.marks[-1]:
            self._reference(samples)
        out: list[float] = []
        for i in range(1, len(self.marks)):
            out += [scale(self.refs[i - 1], self.refs[i])] * (self.marks[i] - self.marks[i - 1])
        return out

    def _reference(self, samples: int) -> None:
        self.refs.append(reference_s())
        self.marks.append(samples)
        self.last = perf_counter_ns()
