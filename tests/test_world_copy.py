"""``World.copy()``: an equal world that shares no mutable object with its
source, checked on every shipped scenario's final world and on a rich one
(a pool with a swap, a book with a filled bid, a recovered case and an
active case marking the same record), and on the signers' models, the
taint set and the ledger's clock, which a copy changes on its own; and
``World.snapshot()``, which on the same worlds holds no live container."""

import dataclasses
from pathlib import Path

import pytest

from rpoolsim import ConstantRiskModel
from rpoolsim.errors import ClockWentBack, RPoolError
from rpoolsim.ledger import UnsettledRecord
from rpoolsim.oracle import issue_report
from rpoolsim.orderbook import OPEN
from rpoolsim.rates import PPM
from rpoolsim.runner import ScenarioRunner
from rpoolsim.scenario import parse_scenario

from conftest import full_state
from naive_ledger import assert_indexes_match, assert_matches, replay
from test_runner import _RICH_WORLD

CORPUS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

#: _RICH_WORLD, then a swap, a filled bid, the recovery of case c1 and a
#: second case on the record c1 marked, which bob still holds
_RICHER_WORLD = _RICH_WORLD + (
    "at 1 issue_report signer=lp requestor=bob amount=10 ttl=60 as=r1\n"
    "at 1 swap pool=p requestor=bob amount=10 reports=r1\n"
    "at 2 match_bid book=ob bid=b1 lp=lp offer=20\n"
    "at 3 recover case=c1 victim=whale\n"
    "at 4 freeze case=c2 targets=bob:5\n"
)

#: a taint-aware and a constant signer, and bob holding an untainted record
_RATED_WORLD = (
    "config window=100 arbitrator=arb\n"
    "account whale settled=100\n"
    "signer t model=taint rate=0.8\nsigner c model=constant rate=0.6\n"
    "at 0 transfer from=whale to=bob amount=10 as=t1\n"
)

SOURCES = {path.stem: path.read_text() for path in CORPUS}
SOURCES["rich"] = _RICHER_WORLD

_ATOMS = (int, str, bytes, float, type(None))


def may_share(obj):
    """Whether two worlds may hold the same non-atom ``obj``: a tuple
    (records, cases, bids, journal entries) or a frozen dataclass (receipts,
    fills).  Anything else, including a class added later, is mutable until
    this list says otherwise."""
    return isinstance(obj, tuple) or (
        dataclasses.is_dataclass(obj) and type(obj).__dataclass_params__.frozen
    )


def final_world(text):
    """The world a script leaves, and the time of its last step."""
    script = parse_scenario(text)
    runner = ScenarioRunner(script)
    result = runner.run()
    assert result.passed, [a for a in result.assertions if not a.passed]
    return runner.world, max((step.time for step in script.steps), default=0)


def reachable(root):
    """id -> object for everything reachable from ``root`` through each
    ``__slots__`` field, instance ``__dict__`` (the dict object itself, so
    two objects sharing one ``vars()`` share it here), and list, dict, set
    and tuple member.  A slot left unset raises ``AttributeError``."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS) or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    stack.append(getattr(obj, slot))
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
    return seen


def further_operations(world, now):
    """The same fixed operations on any world, each one's result or error
    name: cases closed, freezes and spends on every account's records, a
    deposit, swap and withdrawal on every pool, every open bid matched,
    then a spend after every record is due."""
    ledger, base = world.ledger, world.base
    outcomes = []

    def attempt(operation, *args):
        try:
            outcomes.append(operation(*args))
        except RPoolError as exc:
            outcomes.append(type(exc).__name__)

    for n, (case_id, case) in enumerate(sorted(ledger.cases.items())):
        if case.status == "active":
            if n % 2:
                attempt(ledger.release, ledger.arbitrator, case_id, now)
            else:
                attempt(ledger.recover, ledger.arbitrator, case_id, "copy-victim", now)
    names = sorted(ledger.accounts)
    for name in names:
        attempt(ledger.freeze, ledger.arbitrator, [(name, 1)], f"copy-{name}", now)
        attempt(ledger.transfer, name, "copy-sink", 2, True, now)
    rater = world.add_signer("copy-rater", ConstantRiskModel(PPM))
    base.mint("copy-lp", 10_000)
    base.mint("copy-rater", 10_000)
    for _, pool in sorted(world.pools.items()):
        attempt(pool.deposit, "copy-lp", 1_000, now)
        attempt(pool.deposit, "copy-rater", 1_000, now)
        report = issue_report(rater, world.registry, "copy-sink", 2, now, 60, ledger)
        attempt(pool.swap, "copy-sink", 2, [report], now)
        attempt(pool.withdraw, "copy-lp", 1, now)
    for _, book in sorted(world.books.items()):
        for bid in list(book.bids.values()):
            if bid.status == OPEN:
                attempt(book.match_bid, "copy-lp", bid.bid_id, bid.amount, now)
    later = now + ledger.recovery_window + 1
    for name in names:
        attempt(ledger.transfer, name, "copy-sink", 1, True, later)
    ledger.disable_unwrap("copy-sink")
    return outcomes, later


@pytest.mark.parametrize("source", SOURCES)
def test_copy_equals_its_source(source):
    world, now = final_world(SOURCES[source])
    copy = world.copy()
    assert full_state(copy) == full_state(world)
    copy.check_invariants()
    assert_matches(replay(copy.base.journal, copy.ledger.recovery_window), copy.ledger, now)
    assert_indexes_match(copy.ledger)


@pytest.mark.parametrize("source", SOURCES)
def test_copy_shares_no_mutable_object(source):
    world, _ = final_world(SOURCES[source])
    copy = world.copy()
    theirs, ours = reachable(world), reachable(copy)
    shared = [obj for key, obj in ours.items() if key in theirs and not may_share(obj)]
    assert not shared, shared


@pytest.mark.parametrize("source", SOURCES)
def test_a_snapshot_holds_no_live_container(source):
    # every list, dict and set a snapshot lists is its own copy, so no
    # later write into the world can reach it
    world, _ = final_world(SOURCES[source])
    live = {key for key, obj in reachable(world).items() if isinstance(obj, (list, dict, set))}
    held = [obj for key, obj in reachable(world.snapshot()).items() if key in live]
    assert not held, held


@pytest.mark.parametrize("source", SOURCES)
def test_no_case_holds_a_record(source):
    # marks name records by key, so each record is held by its account alone
    world, _ = final_world(SOURCES[source])
    for ledger in (world.ledger, world.copy().ledger):
        held = [obj for obj in reachable(ledger.cases).values() if isinstance(obj, UnsettledRecord)]
        assert not held, held


@pytest.mark.parametrize("source", SOURCES)
def test_copy_acts_like_a_fresh_rebuild(source):
    world, now = final_world(SOURCES[source])
    before = full_state(world)
    copy = world.copy()
    rebuilt, _ = final_world(SOURCES[source])

    outcomes, later = further_operations(copy, now)
    assert (outcomes, later) == further_operations(rebuilt, now)
    assert full_state(copy) == full_state(rebuilt)
    assert full_state(world) == before
    copy.check_invariants()
    world.check_invariants()
    assert_matches(replay(copy.base.journal, copy.ledger.recovery_window), copy.ledger, later)
    assert_indexes_match(copy.ledger)


def test_a_copy_moves_its_clock_on_its_own():
    runner = ScenarioRunner(parse_scenario(_RICHER_WORLD))
    assert runner.run().passed
    world = runner.world
    before = world.snapshot()
    assert before["clock"] == 4
    copy = world.copy()
    copy.ledger.transfer("whale", "carol", 1, False, 10)
    assert (copy.ledger.clock, world.ledger.clock) == (10, 4)
    assert world.snapshot() == before
    with pytest.raises(ClockWentBack):
        copy.ledger.transfer("whale", "carol", 1, False, 9)
    world.ledger.transfer("whale", "carol", 1, False, 9)
    assert (copy.ledger.clock, world.ledger.clock) == (10, 9)


def test_a_copy_taints_and_rerates_on_its_own():
    runner = ScenarioRunner(parse_scenario(_RATED_WORLD))
    assert runner.run().passed
    world = runner.world
    before, digest = world.snapshot(), runner.state_digest()
    copy = world.copy()
    copy.ledger.tainted.add(runner.labels["t1"])
    copy.signers["c"].model.rate_ppm = PPM

    def quotes(w):
        return [
            issue_report(w.signers[name], w.registry, "bob", 10, 0, 60, w.ledger).quote_ppm
            for name in ("t", "c")
        ]

    assert quotes(world) == [800_000, 600_000]
    assert quotes(copy) == [0, PPM]
    assert world.snapshot() == before
    assert runner.state_digest() == digest
    assert copy.snapshot() != before
    runner.world = copy
    assert runner.state_digest() != digest
