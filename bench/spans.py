"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the ``rpoolsim`` modules at their
lookup sites in this process: class attributes for methods, and every
module attribute that names a wrapped function (``rpoolsim.amm`` imports
``validate_reports`` from ``rpoolsim.oracle``, so both names are replaced).
Each call records one span (name, start, end, parent) in flat arrays kept
in memory; the spans of one request share the root span that caused them.
Exceptions are counted per span name and error name, then re-raised.
Calls the harness makes inside :func:`untraced` (its output checks between
timed calls) pass straight through, so the spans hold the program's calls
alone.

A layer's self time is its spans' duration minus the part covered by their
direct children.  Spans nest strictly on one thread, so the children of a
span cover disjoint sub-intervals of it and their durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

#: (layer, owner, attribute): owner is a class path or a module whose
#: function is replaced wherever a ``rpoolsim`` module names it.  Thin
#: helpers (``wrapped_total``, ``balance_of``, ``nonce``) stay unwrapped, so
#: their time counts toward the caller, e.g. the full recount toward
#: ``check_invariants``.
TRACED = [
    ("cli", "rpoolsim.cli", "main"),
    ("scenario", "rpoolsim.scenario", "parse_scenario"),
    ("runner", "rpoolsim.runner", "run_scenario"),
    ("runner", "rpoolsim.runner.ScenarioRunner", "state_digest"),
    ("oracle", "rpoolsim.oracle", "issue_report"),
    ("oracle", "rpoolsim.oracle", "validate_reports"),
    ("amm", "rpoolsim.amm.AmmPool", "swap"),
    ("amm", "rpoolsim.amm.AmmPool", "deposit"),
    ("amm", "rpoolsim.amm.AmmPool", "withdraw"),
    ("amm", "rpoolsim.amm.AmmPool", "pool_state"),
    ("orderbook", "rpoolsim.orderbook.OrderBook", "post_bid"),
    ("orderbook", "rpoolsim.orderbook.OrderBook", "match_bid"),
    ("orderbook", "rpoolsim.orderbook.OrderBook", "cancel_bid"),
    ("attack", "rpoolsim.attack", "exact_profit"),
    ("attack", "rpoolsim.attack", "simulate_attack"),
    ("attack", "rpoolsim.attack", "end_to_end_attack_replay"),
] + [
    ("ledger", "rpoolsim.ledger.WrapperLedger", name)
    for name in (
        "settle_view", "available_unsettled", "wrap", "unwrap", "unwrap_to",
        "disable_unwrap", "transfer",
        "transfer_unsettled", "freeze", "recover", "release", "plan_recovery",
        "genesis_settled", "check_invariants",
    )
] + [
    ("ledger", "rpoolsim.ledger.BaseLedger", name) for name in ("mint", "transfer")
]

#: spans written to the span file; self times cover all spans
WRITE_LIMIT = 200_000

#: short span names used in metric names
ALIASES = {
    "scenario.parse_scenario": "scenario.parse",
    "runner.run_scenario": "runner.run",
    "attack.end_to_end_attack_replay": "attack.replay",
    "attack.simulate_attack": "attack.simulate",
}


def span_name(layer: str, owner: str, attr: str) -> str:
    if owner.endswith("BaseLedger"):
        attr = "base_" + attr
    name = f"{layer}.{attr}"
    return ALIASES.get(name, name)


_quiet = False


@contextlib.contextmanager
def untraced():
    """Wrapped calls made inside this block record no span and no rejection."""
    global _quiet
    was, _quiet = _quiet, True
    try:
        yield
    finally:
        _quiet = was


def self_times(names, starts, ends, parents) -> dict:
    """Self time per name, in ns, from parallel span columns; ``parents``
    holds the index of each span's parent span, or -1."""
    child = array("q", bytes(8 * len(starts)))
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for name, start, end, covered in zip(names, starts, ends, child):
        out[name] += end - start - covered
    return dict(out)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.rejected: Counter[tuple[str, str]] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr in TRACED:
            name = span_name(layer, owner, attr)
            self.layer_of[name] = layer
            module_name, class_name = _split(owner)
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "rpoolsim" or mod_name.startswith("rpoolsim."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, target: object, attr: str, value: object) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack)
        rejected = self.rejected

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if _quiet:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rejected[name, type(exc).__name__] += 1
                raise
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return traced

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def spans(self):
        names = self.names
        for i in range(len(self.starts)):
            yield names[self.name_ids[i]], self.starts[i], self.ends[i], self.parents[i]

    def self_times(self) -> dict[str, int]:
        by_id = self_times(self.name_ids, self.starts, self.ends, self.parents)
        return {self.names[i]: ns for i, ns in by_id.items()}

    def calls(self) -> Counter[str]:
        counts = Counter(self.name_ids)
        return Counter({self.names[i]: n for i, n in counts.items()})

    def write(self, path: Path) -> None:
        """JSON lines: a header, then the first ``WRITE_LIMIT`` spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({
                "spans": len(self),
                "written": min(WRITE_LIMIT, len(self)),
                "calls": self.calls(),
                "rejected": {f"{n}:{e}": c for (n, e), c in sorted(self.rejected.items())},
            }, sort_keys=True) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                if i >= WRITE_LIMIT:
                    break
                out.write(f'["{name}",{start},{end},{parent}]\n')


def _split(owner: str) -> tuple[str, str]:
    """'rpoolsim.amm.AmmPool' -> ('rpoolsim.amm', 'AmmPool');
    'rpoolsim.oracle' -> ('rpoolsim.oracle', '')."""
    head, _, last = owner.rpartition(".")
    return (head, last) if last[:1].isupper() else (owner, "")
