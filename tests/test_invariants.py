"""Every explicit invariant failure of the library, in one table.

``python -O`` strips ``assert`` statements and ``__debug__`` blocks, so the
library raises :class:`AssertionError` itself.  Each row of ``ROWS`` is a
statement that corrupts a copy of one world that passes
:meth:`World.check_invariants`, run against this module's names and those
``_names`` binds, and the exact message of the check that must catch it.  A
new ``raise AssertionError`` in ``src/`` fails
``test_every_explicit_invariant_failure_has_a_row`` until it has a row.

pytest rewrites the asserts of this module and of conftest, so they run
under ``-O`` too, and one ``python -O`` child runs the table again.  This
module imports no helper whose own asserts ``-O`` would strip."""

import ast
import dataclasses
import os
import re
import subprocess
import sys

import pytest

from astgates import ROOT, walk
from conftest import assert_unchanged
from rpoolsim import AmmPool, AttackScenario, World, end_to_end_attack_replay
from rpoolsim.ledger import _take


def _short_take(world):
    # a is asked for one more than its records hold, and they stay as they were
    before = world.snapshot()
    try:
        _take(world.ledger.accounts["a"], 91)
    finally:
        assert_unchanged(world, before)


def _replay_with_a_receipt_one_unit_off(monkeypatch):
    swap = AmmPool.swap

    def one_unit_off(*args):
        receipt = swap(*args)
        return dataclasses.replace(receipt, amount_out=receipt.amount_out + 1)

    monkeypatch.setattr(AmmPool, "swap", one_unit_off)
    end_to_end_attack_replay(AttackScenario(1000, 1000, 100, 100, 1000, 950_000))


#: row id -> (the corruption, the exact message of the check that catches it)
ROWS = {
    # the ledger recount: a holds records of 50 (10 more frozen in case c1)
    # and 40, and idle, with unwrapping disabled, holds nothing
    "settled-negative": ("a.settled = -3", "a settled negative"),
    "unsettled-sum-drifted": ("a.unsettled_sum += 7", "a unsettled_sum 97 != recount 90"),
    "idle-frozen-sum": ("idle.frozen_sum = 2", "idle frozen_sum 2 != 0 marked"),
    # an account without records: one test, and the message of the first
    # check that fails, settled before the cached sums
    "idle-settled-negative": ("idle.settled = -1", "idle settled negative"),
    "idle-unsettled-sum": ("idle.unsettled_sum = 4", "idle unsettled_sum 4 != recount 0"),
    "idle-settled-first": ("idle.settled = -1; idle.frozen_sum = 2", "idle settled negative"),
    # records that are empty or out of key order, the cached sums kept equal
    # to their recount
    "empty-record": (
        "a.unsettled[0] = first._replace(amount=0); a.unsettled_sum -= 50",
        "a holds an empty record",
    ),
    "repeated-key": ("a.unsettled[1] = second._replace(transfer_id=1)", "a records out of order"),
    "earlier-time": (
        "a.unsettled[1] = second._replace(settlement_time=9)", "a records out of order"
    ),
    # frozen value that the open case's marks do not explain
    "frozen-sum-drifted": ("a.frozen_sum += 5", "a frozen_sum 15 != 10 marked"),
    "frozen-sum-zero": ("a.frozen_sum = 0", "a: 10 marked, frozen_sum 0"),
    "mark-on-idle": (
        "ledger.cases['c2'] = ledger.cases['c1']._replace(marks=(('idle', (10, 1), 3),))",
        "idle: 3 marked, frozen_sum 0",
    ),
    # the base ledger's own total, and the backing of the wrapper: a's 100
    # and pool p's 200
    "base-supply": ("base.total_supply += 1", "base supply out of balance"),
    "unbacked": ("a.settled += 1", "locked base 300 != wrapped total 301"),
    # the world's pools and books
    "lp-supply": ("pool.lp_holdings.update(lp=199)", "pool p lp_supply 200 != 199 held"),
    "lp-holding-zero": (
        "pool.lp_holdings.update(lp=200, bob=0)", "pool p keeps an LP holding that is not positive"
    ),
    "bid-ids": ("book.bids[2] = book.bids.pop(1)", "book ob bid ids are not 1..1"),
    "bid-status": (
        "bids[1] = bid._replace(status='expired')", "book ob holds a bid of unknown status"
    ),
    "filled-bid": ("bids[1] = bid._replace(status='filled')", "book ob has 1 filled bids, 0 fills"),
    # the two guards outside the recount
    "short-take": ("_short_take(world)", "take called without sufficient validated funds"),
    "replay-receipt": (
        "_replay_with_a_receipt_one_unit_off(monkeypatch)", "thief holds 950 base, receipt pays 951"
    ),
}


@pytest.fixture(scope="module")
def template():
    """a gets records of 60 and 40, and c1 freezes 10 of the first; idle
    has unwrapping disabled; lp holds pool p's 200, and a bids on book ob."""
    world = World(recovery_window=10, arbitrator="arb")
    base, ledger = world.base, world.ledger
    base.mint("f", 100)
    ledger.wrap("f", 100, 0)
    ledger.transfer("f", "a", 60, False, 0)
    ledger.transfer("f", "a", 40, False, 0)
    ledger.freeze("arb", [("a", 10)], "c1", 0)
    ledger.disable_unwrap("idle")
    base.mint("lp", 200)
    pool = world.add_pool("p", kappa_ppm=500_000, risk_bounds=(0, 10**6), min_quorum=1,
                          min_lp_deposit=1)
    pool.deposit("lp", 200, 0)
    world.add_book("ob").post_bid("a", 40, 500_000, 9, 0)
    return world


def _names(world, monkeypatch):
    accounts, book = world.ledger.accounts, world.books["ob"]
    first, second = accounts["a"].unsettled
    return {
        "world": world, "base": world.base, "ledger": world.ledger, "a": accounts["a"],
        "idle": accounts["idle"], "first": first, "second": second, "pool": world.pools["p"],
        "book": book, "bids": book.bids, "bid": book.bids[1], "monkeypatch": monkeypatch,
    }


@pytest.mark.parametrize("corrupt, message", ROWS.values(), ids=ROWS)
def test_a_corrupted_world_fails_with_the_exact_message(template, monkeypatch, corrupt, message):
    world = template.copy()
    world.check_invariants()
    with pytest.raises(AssertionError) as info:
        exec(corrupt, globals(), _names(world, monkeypatch))
        world.check_invariants()
    assert str(info.value) == message


def _pattern(message: ast.expr) -> str:
    """A regular expression for the messages a string or f-string can make."""
    if isinstance(message, ast.Constant):
        return re.escape(message.value)
    assert isinstance(message, ast.JoinedStr), ast.unparse(message)
    parts = message.values
    return "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)


#: the message of each explicit ``raise AssertionError`` in ``src/``, as
#: written there -> a regular expression for the messages it can make
SITES = {
    ast.unparse(node.exc.args[0]): _pattern(node.exc.args[0])
    for _, _, node in walk("src")
    if isinstance(node, ast.Raise)
    and isinstance(node.exc, ast.Call)
    and ast.unparse(node.exc.func) == "AssertionError"
}


def test_the_library_raises_assertion_errors_itself():
    assert SITES, "no raise AssertionError found in src/"


@pytest.mark.parametrize("regex", SITES.values(), ids=SITES)
def test_every_explicit_invariant_failure_has_a_row(regex):
    messages = [message for _, message in ROWS.values()]
    assert any(map(re.compile(regex).fullmatch, messages)), f"add a row to ROWS for {regex}"


def test_the_table_holds_under_python_O():
    # -O makes pytest warn that asserts outside test modules do not run, and
    # the project's filterwarnings = error would make that a startup error;
    # this module uses no hypothesis, whose plugin doubles the child's time
    this = "tests/test_invariants.py"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", this, "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", "--deselect", f"{this}::test_the_table_holds_under_python_O",
         "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True, text=True, check=False,
    )
    # every row and every coverage test pass, and none is skipped
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"\n{len(ROWS) + len(SITES) + 1} passed, 1 deselected in " in proc.stdout, proc.stdout
