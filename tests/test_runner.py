"""Runner and CLI behavior: the event log, determinism, error isolation,
and exit codes.  The shipped corpus's output bytes are pinned in
``tests/test_corpus.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rpoolsim.cli import main
from rpoolsim.errors import ZeroAmount
from rpoolsim.ledger import WrapperLedger
from rpoolsim.runner import EXPECTATIONS, EventRecord, ScenarioRunner, run_scenario
from rpoolsim.orderbook import CANCELLED, FILLED, OPEN
from rpoolsim.scenario import (
    ACTION_SPECS,
    ASSERT_KINDS,
    BID_STATUSES,
    PoolSpec,
    ScenarioScript,
    parse_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_event_log_shape():
    script = parse_scenario((SCENARIO_DIR / "recovery_L0.scn").read_text())
    lines = run_scenario(script).log_lines()
    assert len(lines) == 9
    for seq, line in enumerate(lines, start=1):
        record = json.loads(line)
        assert record["seq"] == seq
        assert set(record) == {
            "scenario", "seq", "time", "action", "params", "outcome", "result", "deltas",
        }
    swap = json.loads(lines[5])
    assert swap["action"] == "swap"
    assert swap["result"]["out"] == 50
    assert swap["deltas"]["mallory"]["base"] == 50


def test_format_doc_names_every_log_key():
    doc = (SCENARIO_DIR.parent / "docs" / "scenario-format.md").read_text()
    section = doc.partition("## Event log")[2].partition("\n## ")[0]
    keys = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
    assert keys == sorted(EventRecord._fields)


def test_expected_error_leaves_state_untouched():
    script = parse_scenario(
        "account alice base=100\n"
        "at 0 wrap account=alice amount=60\n"
        "at 0 transfer from=alice to=bob amount=99 expect_error=InsufficientBalance\n"
        "at 0 assert kind=balance account=alice settled=60\n"
        "at 0 assert kind=base account=alice amount=40\n"
    )
    result = run_scenario(script)
    assert result.passed


def test_unexpected_error_reported_not_raised():
    script = parse_scenario(
        "account alice base=10\nat 0 wrap account=alice amount=60\n"
    )
    result = run_scenario(script)
    assert not result.passed
    assert result.events[0].outcome == "InsufficientBase"


def test_wrong_error_reported():
    script = parse_scenario(
        "account alice base=10\n"
        "at 0 wrap account=alice amount=60 expect_error=ZeroAmount\n"
    )
    result = run_scenario(script)
    assert not result.passed
    (failure,) = [a for a in result.assertions if not a.passed]
    assert failure.observed == "InsufficientBase"


# Step forms that no shipped scenario runs: an LP-holding assertion, an
# unwrap paying another account, and bids referenced by integer id.
UNCOVERED_FORMS = """\
config window=100 arbitrator=arb
account lp base=500
account whale settled=300
pool main kappa_ppm=500000
book ob
at 0 deposit pool=main lp=lp amount=200
at 0 assert kind=lp pool=main account=lp amount=200
at 0 unwrap account=whale amount=50 to=carol
at 0 transfer from=whale to=alice amount=100
at 0 post_bid book=ob bidder=alice amount=100 min_rate=0.5 expiry=900
at 5 assert kind=bid book=ob bid=1 status=open
at 5 match_bid book=ob bid=1 lp=lp offer=50
at 5 cancel_bid book=ob bid=1 by=alice expect_error=BidNotOpen
at 5 assert kind=bid book=ob bid=1 status=filled
"""


def test_uncovered_step_forms_event_log():
    result = run_scenario(parse_scenario(UNCOVERED_FORMS))
    assert result.log_lines() == [
        '{"action":"deposit","deltas":{"lp":{"base":-200},"main":{"nonce":1,"settled":200}},'
        '"outcome":"ok","params":{"amount":200,"lp":"lp","pool":"main"},"result":{"minted":200},'
        '"scenario":"scenario","seq":1,"time":0}',
        '{"action":"assert","deltas":{},"outcome":"ok","params":{"account":"lp","amount":200,'
        '"kind":"lp","pool":"main"},"result":null,"scenario":"scenario","seq":2,"time":0}',
        '{"action":"unwrap","deltas":{"carol":{"base":50},"whale":{"nonce":1,"settled":-50}},'
        '"outcome":"ok","params":{"account":"whale","amount":50,"to":"carol"},"result":null,'
        '"scenario":"scenario","seq":3,"time":0}',
        '{"action":"transfer","deltas":{"alice":{"nonce":1,"unsettled":100},'
        '"whale":{"nonce":1,"settled":-100}},"outcome":"ok",'
        '"params":{"amount":100,"from":"whale","to":"alice"},"result":{"transfer_id":1},'
        '"scenario":"scenario","seq":4,"time":0}',
        '{"action":"post_bid","deltas":{},"outcome":"ok","params":{"amount":100,"bidder":"alice",'
        '"book":"ob","expiry":900,"min_rate":500000},"result":{"bid_id":1},'
        '"scenario":"scenario","seq":5,"time":0}',
        '{"action":"assert","deltas":{},"outcome":"ok","params":{"bid":1,"book":"ob","kind":"bid",'
        '"status":"open"},"result":null,"scenario":"scenario","seq":6,"time":5}',
        '{"action":"match_bid","deltas":{"alice":{"base":50,"nonce":1,"unsettled":-100},'
        '"lp":{"base":-50,"nonce":1,"unsettled":100}},"outcome":"ok",'
        '"params":{"bid":1,"book":"ob","lp":"lp","offer":50},'
        '"result":{"base":50,"transfer_id":2,"unsettled":100},'
        '"scenario":"scenario","seq":7,"time":5}',
        '{"action":"cancel_bid","deltas":{},"outcome":"BidNotOpen","params":{"bid":1,"book":"ob",'
        '"by":"alice"},"result":null,"scenario":"scenario","seq":8,"time":5}',
        '{"action":"assert","deltas":{},"outcome":"ok","params":{"bid":1,"book":"ob","kind":"bid",'
        '"status":"filled"},"result":null,"scenario":"scenario","seq":9,"time":5}',
    ]
    assert [(a.description, a.passed) for a in result.assertions] == [
        ("step 2: lp LP tokens in main", True),
        ("step 6: bid 1 status", True),
        ("step 8 (cancel_bid) fails with BidNotOpen", True),
        ("step 9: bid 1 status", True),
    ]


def test_runner_tables_cover_the_scenario_schema():
    assert ScenarioRunner.ACTIONS.keys() == ACTION_SPECS.keys()
    assert ScenarioRunner.ASSERTS.keys() == ASSERT_KINDS.keys()
    expect_keys = {
        key
        for spec in ACTION_SPECS.values()
        for key in spec
        if key.startswith("expect")
    }
    assert EXPECTATIONS.keys() == expect_keys


#: what an assert step's selector fields name in _RICH_WORLD; every other
#: field of an assert kind is a value to compare
_ASSERT_SELECTORS = {"kind": None, "account": "alice", "pool": "p", "book": "ob", "bid": "b1"}


def test_every_assert_value_field_is_compared():
    # a value field that its kind's handler does not observe would be parsed
    # and never compared, so its step would pass without a check
    value_of_type = {"int": 7, "status": "cancelled"}
    steps = []
    for kind, (required, optional) in ASSERT_KINDS.items():
        chosen = sorted(required & _ASSERT_SELECTORS.keys())
        selectors = "".join(f" {key}={_ASSERT_SELECTORS[key]}" for key in chosen)
        for field in sorted((required | optional) - _ASSERT_SELECTORS.keys()):
            value = value_of_type[ACTION_SPECS["assert"][field][0]]
            steps.append((f"at 2 assert kind={kind}{selectors} {field}={value}\n", value))
    first = len(parse_scenario(_RICH_WORLD).steps) + 1
    result = run_scenario(parse_scenario(_RICH_WORLD + "".join(line for line, _ in steps)))
    assert len(steps) == 10
    assert [(a.seq, a.expected) for a in result.assertions] == [
        (seq, value) for seq, (_, value) in enumerate(steps, start=first)
    ]
    # the parser may not import the order book, so it spells the statuses too
    assert BID_STATUSES == (OPEN, CANCELLED, FILLED)


def test_state_digest_is_stable_over_noops():
    script = parse_scenario("account alice base=5\nat 0 advance\nat 10 advance\n")
    runner = ScenarioRunner(script)
    digest = runner.state_digest()
    runner.run()
    assert runner.state_digest() == digest


def test_genesis_refusal_of_a_script_built_in_code_is_the_constructors_error():
    script = ScenarioScript()
    script.pools.append(PoolSpec("p", kappa_ppm=0))
    with pytest.raises(ValueError, match="kappa_ppm must be strictly between 0 and 1000000"):
        ScenarioRunner(script)


def test_rejected_match_bid_leaves_state_digest_unchanged():
    # The runner compares World.snapshot() before and after every step
    # with expect_error= and fails the run if a rejected step changed it.
    script = parse_scenario(
        "config window=100 arbitrator=arb\n"
        "account lp base=500\naccount poor base=10\naccount whale settled=300\n"
        "book ob\n"
        "at 0 transfer from=whale to=alice amount=100\n"
        "at 0 post_bid book=ob bidder=alice amount=100 min_rate=0.5 expiry=140 as=b1\n"
        "at 5 match_bid book=ob bid=b1 lp=lp offer=49 expect_error=QuoteTooLow\n"
        "at 5 match_bid book=ob bid=b1 lp=poor offer=50 expect_error=InsufficientBase\n"
        "at 120 match_bid book=ob bid=b1 lp=lp offer=50 expect_error=InsufficientUnsettled\n"
        "at 150 match_bid book=ob bid=b1 lp=lp offer=50 expect_error=BidExpired\n"
        "at 150 transfer from=whale to=bob amount=10\n"
        "at 150 post_bid book=ob bidder=bob amount=10 min_rate=0.5 expiry=900 as=b2\n"
        "at 150 transfer from=whale to=bob amount=1\n"
        "at 160 match_bid book=ob bid=b2 lp=lp offer=5 expect_error=StaleNonce\n"
        "at 160 cancel_bid book=ob bid=b1 by=alice\n"
        "at 160 match_bid book=ob bid=b1 lp=lp offer=50 expect_error=BidNotOpen\n"
    )
    result = run_scenario(script)
    assert [(a.description, a.passed) for a in result.assertions] == [
        (f"step {seq} (match_bid) fails with {error}", True)
        for seq, error in (
            (3, "QuoteTooLow"),
            (4, "InsufficientBase"),
            (5, "InsufficientUnsettled"),
            (6, "BidExpired"),
            (10, "StaleNonce"),
            (12, "BidNotOpen"),
        )
    ]


_RICH_WORLD = (
    "config window=100 arbitrator=arb\n"
    "account lp base=500\naccount whale settled=300\naccount idle settled=5\n"
    "signer lp model=constant rate=0.9\npool p kappa_ppm=500000\nbook ob\n"
    "at 0 deposit pool=p lp=lp amount=200\n"
    "at 0 transfer from=whale to=alice amount=100\n"
    "at 0 transfer from=whale to=bob amount=50\n"
    "at 0 post_bid book=ob bidder=alice amount=40 min_rate=0.5 expiry=90 as=b1\n"
    "at 1 freeze case=c1 targets=bob:30\n"
)


def _freeze_one_more(runner):
    # the mark takes one more from its record, and both cached sums follow,
    # so the recount still passes
    ledger = runner.world.ledger
    case = ledger.cases["c1"]
    (account, key, amount), *rest = case.marks
    ledger.cases["c1"] = case._replace(marks=((account, key, amount + 1), *rest))
    acct = ledger.accounts[account]
    record = acct.unsettled[0]
    acct.unsettled[0] = record._replace(amount=record.amount - 1)
    acct.unsettled_sum -= 1
    acct.frozen_sum += 1


def _release_in_place(runner):
    # the case closes and each mark's value goes back to its record
    ledger = runner.world.ledger
    case = ledger.cases["c1"] = ledger.cases["c1"]._replace(status="released")
    for account, _, amount in case.marks:
        acct = ledger.accounts[account]
        record = acct.unsettled[0]
        acct.unsettled[0] = record._replace(amount=record.amount + amount)
        acct.unsettled_sum += amount
        acct.frozen_sum -= amount


def _split_a_mark(runner):
    # two marks of 29 and 1 freeze what one mark of 30 froze
    cases = runner.world.ledger.cases
    (account, key, amount), *rest = cases["c1"].marks
    marks = ((account, key, amount - 1), *rest, (account, key, 1))
    cases["c1"] = cases["c1"]._replace(marks=marks)


def _settle_one_later(runner):
    records = runner.world.ledger.accounts["alice"].unsettled
    records[0] = records[0]._replace(settlement_time=records[0].settlement_time + 1)


def _cancel_bid_in_place(runner):
    bids = runner.world.books["ob"].bids
    bids[1] = bids[1]._replace(status="cancelled")


#: a write to one part of the world, made by a step that then fails: a new
#: value put in a list or dict the world holds.  Each keeps the invariants,
#: so only the state comparison sees it
_IN_PLACE_WRITES = {
    "mark and record amounts": _freeze_one_more,
    "record settlement_time": _settle_one_later,
    "unwrap flag": lambda r: setattr(r.world.ledger.accounts["idle"], "unwrap_disabled", True),
    "case status": _release_in_place,
    "case entries": _split_a_mark,
    "lp holdings": lambda r: r.world.pools["p"].lp_holdings.update(lp=199, bob=1),
    "receipt count": lambda r: r.world.pools["p"].receipts.append(None),
    "bid status": _cancel_bid_in_place,
    "base balance": lambda r: r.world.base.balances.update(lp=299, whale=1),
    "zero base balance": lambda r: r.world.base.balances.update(ghost=0),
}


@pytest.mark.parametrize("part", [None, *_IN_PLACE_WRITES])
def test_rejected_step_writing_in_place_is_caught(monkeypatch, part):
    # The snapshot before a rejected step must hold values, not the live
    # lists and dicts, or a write into one would change both sides.
    def writing_mint(runner, p, now):
        if part is not None:
            _IN_PLACE_WRITES[part](runner)
        raise ZeroAmount("rejected")

    monkeypatch.setitem(ScenarioRunner.ACTIONS, "mint_base", writing_mint)
    script = _RICH_WORLD + "at 2 mint_base account=lp amount=1 expect_error=ZeroAmount\n"
    result = ScenarioRunner(parse_scenario(script)).run()
    expected = [("step 6 (mint_base) fails with ZeroAmount", True)]
    if part is not None:
        expected.append(("step 6 (mint_base) leaves state unchanged on error", False))
    assert [(a.description, a.passed) for a in result.assertions] == expected


@pytest.mark.parametrize("expect_error", ["", " expect_error=ZeroAmount"])
def test_rejected_step_that_journals_is_caught(monkeypatch, expect_error):
    # any rejected step, expected or not, must append no journal entry
    def journalling_mint(runner, p, now):
        runner.world.base.mint(p["account"], p["amount"])
        raise ZeroAmount("rejected")

    monkeypatch.setitem(ScenarioRunner.ACTIONS, "mint_base", journalling_mint)
    step = "at 2 mint_base account=lp amount=1" + expect_error + "\n"
    runner = ScenarioRunner(parse_scenario(_RICH_WORLD + step))
    result = runner.run()
    journal = len(runner.world.base.journal)
    described = [(a.description, a.passed, a.expected, a.observed) for a in result.assertions]
    where = "step 6 (mint_base)"
    if expect_error:
        first = [
            (f"{where} fails with ZeroAmount", True, "ZeroAmount", "ZeroAmount"),
            (f"{where} leaves state unchanged on error", False, "unchanged state", "state changed"),
        ]
    else:
        first = [(f"{where} succeeds", False, "ok", "ZeroAmount")]
    journalled = (f"{where} journals nothing on error", False, journal - 1, journal)
    assert described == [*first, journalled]
    assert result.events[-1].deltas == {"lp": {"base": 1}}


def test_label_of_a_failed_step_is_unbound():
    # Each labelled step fails, so its label names nothing; the steps that
    # name it fail with a modelled error and leave the state unchanged.
    script = parse_scenario(
        "config window=100 arbitrator=arb\n"
        "account a base=5 settled=5\nsigner s model=constant rate=0.5\n"
        "pool p kappa_ppm=500000\nbook ob\n"
        "at 0 transfer from=a to=b amount=50 as=t1 expect_error=InsufficientBalance\n"
        "at 0 plan_recovery transfer=t1 amount=5 expect_error=UnboundLabel\n"
        "at 0 freeze case=c1 transfer=t1 amount=5 expect_error=UnboundLabel\n"
        "at 0 issue_report signer=s requestor=a amount=5 ttl=0 as=r1 expect_error=BadExpiry\n"
        "at 0 swap pool=p requestor=a amount=5 reports=r1 expect_error=UnboundLabel\n"
        "at 0 post_bid book=ob bidder=a amount=5 min_rate=0.5 expiry=9 as=b1"
        " expect_error=InsufficientUnsettled\n"
        "at 0 match_bid book=ob bid=b1 lp=a offer=3 expect_error=UnboundLabel\n"
        "at 0 cancel_bid book=ob bid=b1 by=a expect_error=UnboundLabel\n"
    )
    result = run_scenario(script)
    assert result.passed, [a for a in result.assertions if not a.passed]
    assert len(result.assertions) == 8


def _wide_world(accounts):
    """The same dozen steps among a few accounts of a world of any size."""
    return "\n".join([
        "config window=100 arbitrator=arb",
        "account lp base=1000",
        "signer lp model=constant rate=0.9",
        "pool p kappa_ppm=500000",
        "book ob",
        *(f"account u{i} base=10 settled=100" for i in range(accounts)),
        "at 0 deposit pool=p lp=lp amount=500",
        "at 0 wrap account=u0 amount=10",
        "at 0 transfer from=u0 to=u1 amount=50",
        "at 0 unwrap account=u2 amount=10 to=u3",
        "at 1 issue_report signer=lp requestor=u1 amount=20 ttl=60 as=r1",
        "at 1 swap pool=p requestor=u1 amount=20 reports=r1",
        "at 2 freeze case=c1 targets=u1:10",
        "at 3 recover case=c1 victim=u0",
        "at 4 post_bid book=ob bidder=u1 amount=10 min_rate=0.5 expiry=90 as=b1",
        "at 5 match_bid book=ob bid=b1 lp=u3 offer=5",
        "at 6 swap pool=p requestor=u1 amount=20 reports=r1 expect_error=StaleNonce",
        "at 7 withdraw pool=p lp=lp tokens=100",
    ]) + "\n"


def test_step_work_does_not_grow_with_the_account_count(monkeypatch):
    """A step's deltas come from the journal entries it appended: outside
    the full check_invariants recount, a run reads as many balances in a
    world of 2000 accounts as in one of 250."""
    count = {"calls": 0, "checking": False}
    settle_view = WrapperLedger.settle_view
    check_invariants = WrapperLedger.check_invariants

    def counting_settle_view(self, account, now):
        count["calls"] += not count["checking"]
        return settle_view(self, account, now)

    def marked_check_invariants(self):
        count["checking"] = True
        try:
            check_invariants(self)
        finally:
            count["checking"] = False

    monkeypatch.setattr(WrapperLedger, "settle_view", counting_settle_view)
    monkeypatch.setattr(WrapperLedger, "check_invariants", marked_check_invariants)
    calls = []
    for accounts in (250, 2000):
        runner = ScenarioRunner(parse_scenario(_wide_world(accounts)))
        count["calls"] = 0
        result = runner.run()
        assert result.passed, [a for a in result.assertions if not a.passed]
        calls.append(count["calls"])
    assert calls[0] == calls[1] > 0


class TestCli:
    def test_run_pass_and_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code = main(
            ["run", str(SCENARIO_DIR / "recovery_L0.scn"), "--log", str(log)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery_L0: PASS" in out
        lines = log.read_text().splitlines()
        assert len(lines) == 9
        assert all(json.loads(line)["scenario"] == "recovery_L0" for line in lines)

    def test_run_json_format(self, capsys):
        code = main(["run", str(SCENARIO_DIR / "rate_cap.scn"), "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["scenario"] == "rate_cap"

    def test_run_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("account a base=1\nat 0 assert kind=base account=a amount=2\n")
        assert main(["run", str(bad)]) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.scn")]) == 2

    @pytest.mark.parametrize("command", ["run", "fmt"])
    def test_file_that_is_not_utf8_is_a_read_error(self, tmp_path, capsys, command):
        binary = tmp_path / "bin.scn"
        binary.write_bytes(b"\xff\xfe")
        assert main([command, str(binary)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{binary}: ") and "decode" in captured.err
        assert captured.out == ""

    def test_unwritable_log_path_is_a_clean_error(self, tmp_path, capsys):
        log = tmp_path / "missing_dir" / "events.jsonl"
        assert main(["run", str(SCENARIO_DIR / "rate_cap.scn"), "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert "rate_cap: PASS" in captured.out  # every file ran first
        assert captured.err.startswith(f"{log}: ") and "No such file" in captured.err

    def test_reserved_name_in_a_step_is_its_outcome(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "config arbitrator=arb\naccount a settled=5\n"
            "at 0 transfer from=a to=arb amount=1\n"
        )
        argv = ["run", str(bad), str(SCENARIO_DIR / "rate_cap.scn"), "--format", "json"]
        assert main(argv) == 1
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["scenario"], r["passed"]) for r in reports] == [
            ("bad", False),
            ("rate_cap", True),
        ]
        assert reports[0]["assertions"][0]["observed"] == "ReservedName"

    @pytest.mark.parametrize(
        "step, error",
        [
            ("at 1 plan_recovery transfer=t1 amount=11", "Uncoverable"),
            ("at 1 issue_report signer=s1 requestor=b amount=5 ttl=0 as=r1", "BadExpiry"),
        ],
    )
    def test_rejected_step_is_its_outcome_and_later_files_run(
        self, tmp_path, capsys, step, error
    ):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "account s1 base=100\naccount a settled=10\n"
            "signer s1 model=constant rate=0.5\n"
            "at 0 transfer from=a to=b amount=10 as=t1\n" + step + "\n"
        )
        argv = ["run", str(bad), str(SCENARIO_DIR / "rate_cap.scn"), "--format", "json"]
        assert main(argv) == 1
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["scenario"], r["passed"]) for r in reports] == [
            ("bad", False),
            ("rate_cap", True),
        ]
        assert reports[0]["assertions"][0]["observed"] == error

    def test_exception_escaping_a_run_is_an_internal_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken_wrap(runner, p, now):
            raise ValueError("wrap is broken")

        monkeypatch.setitem(ScenarioRunner.ACTIONS, "wrap", broken_wrap)
        bad = tmp_path / "bad.scn"
        bad.write_text("account a base=5\nat 0 wrap account=a amount=1\n")
        assert main(["run", str(bad), str(SCENARIO_DIR / "rate_cap.scn")]) == 3
        captured = capsys.readouterr()
        assert f"{bad}: internal error" in captured.err
        assert "ValueError: wrap is broken" in captured.err
        assert "rate_cap" not in captured.out

    @pytest.mark.parametrize(
        "cached, message",
        [
            ("unsettled_sum", "idle unsettled_sum 1 != recount 0"),
            ("frozen_sum", "idle frozen_sum 1 != 0 marked"),
        ],
        ids=["unsettled_sum", "frozen_sum"],
    )
    def test_drifted_sum_on_an_untouched_account_is_an_internal_error(
        self, tmp_path, capsys, monkeypatch, cached, message
    ):
        # The recount after every step covers accounts the step never
        # touched, record-less ones included.
        unwrap = ScenarioRunner.ACTIONS["unwrap"]

        def drifting_unwrap(runner, p, now):
            setattr(runner.world.ledger.accounts["idle"], cached, 1)
            return unwrap(runner, p, now)

        monkeypatch.setitem(ScenarioRunner.ACTIONS, "unwrap", drifting_unwrap)
        bad = tmp_path / "bad.scn"
        bad.write_text(_RICH_WORLD + "at 2 unwrap account=whale amount=10\n")
        assert main(["run", str(bad)]) == 3
        captured = capsys.readouterr()
        assert f"{bad}: internal error" in captured.err
        assert message in captured.err

    def test_fmt_round_trip(self, capsys):
        assert main(["fmt", str(SCENARIO_DIR / "recovery_L1.scn")]) == 0
        out = capsys.readouterr().out
        reparsed = parse_scenario(out)
        assert len(reparsed.steps) == 14

    def test_check_attack_defaults_print_half_threshold(self, capsys):
        assert main(["check-attack"]) == 0
        out = capsys.readouterr().out
        assert "threshold (L/(L+l)):   0.5 " in out
        assert "UNSAFE" in out  # default rate 0.95 exceeds 0.5

    def test_check_attack_short_fraction(self, capsys):
        assert main(["check-attack", "--short-fraction", "0.1", "--rate", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "0.90909" in out
        assert "SAFE" in out

    def test_check_attack_rates_may_leave_out_the_whole_part(self, capsys):
        assert main(["check-attack", "--short-fraction", ".1", "--rate", ".5"]) == 0
        dotted = capsys.readouterr().out
        assert "shorted (l):           100\n" in dotted
        assert "rate (x/p):            0.5\n" in dotted
        assert main(["check-attack", "--short-fraction", "0.1", "--rate", "0.5"]) == 0
        assert capsys.readouterr().out == dotted

    def test_check_attack_assert_safe_fails_on_hot_rate(self, capsys):
        assert main(["check-attack", "--rate", "0.95", "--assert-safe"]) == 1
        assert main(["check-attack", "--rate", "0.5", "--assert-safe"]) == 0

    def test_check_attack_verdict_at_an_inexact_threshold(self, capsys):
        # L/(L+l) = 10/11 = 0.909090...: 909090 ppm is at or below it, and
        # 909091 ppm above
        pool = ["--pool-total", "10000", "--lp-supply", "10000",
                "--collateral", "10000", "--short", "1000"]
        assert main(["check-attack", *pool, "--rate", "0.90909", "--assert-safe"]) == 0
        assert "verdict:               SAFE" in capsys.readouterr().out
        assert main(["check-attack", *pool, "--rate", "0.909091", "--assert-safe"]) == 1
        assert "verdict:               UNSAFE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, message",
        [
            # a leading point is read as "0.", and the message quotes the rate as read
            (["--rate", "."], "--rate: malformed rate '0.'"),
            (["--rate", "1."], "--rate: malformed rate '1.'"),
            (["--rate", ".1234567"], "--rate: rate '0.1234567' has more than six decimal places"),
            (["--rate", "1.5"], "--rate: rate '1.5' exceeds 1"),
            # RATE digits are ASCII only, as INT's are
            (["--rate", "\u0660.\u0669"], "--rate: malformed rate '\u0660.\u0669'"),
            # nor does RATE admit surrounding whitespace
            (["--rate", "  0.5\n"], "--rate: malformed rate '  0.5\\n'"),
            (["--short-fraction", "x"], "--short-fraction: malformed rate 'x'"),
            (["--short-fraction", "1.5"], "--short-fraction: rate '1.5' exceeds 1"),
            # the attack lab's own refusals, by the error's name
            (["--short", "0"], "ZeroShort: threshold undefined for a zero short"),
            (["--stolen", "0"], "InvalidScenario: stolen amount must be positive"),
        ],
    )
    def test_check_attack_refuses_a_bad_point_with_one_line(self, capsys, args, message):
        assert main(["check-attack", *args]) == 2
        assert capsys.readouterr() == ("", f"{message}\n")

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rpoolsim.cli", "check-attack", "--rate", "0.4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "SAFE" in proc.stdout


CORE_BEHAVIOR_COVERAGE = {
    # each core behavior maps to the scenario file that pins it exactly
    "recovery_L0.scn": ["expect_base=5", "expect_unsettled=10"],
    "recovery_L1.scn": ["expect_base=25", "expect_unsettled=100", "expect=main:100"],
    "recovery_L2.scn": ["expect_base=30", "expect_unsettled=120", "expect=main:80,l2:20"],
    "flashloan_reject.scn": ["expect_error=StaleNonce", "expect_rate=0.6"],
    "taint_reject.scn": ["expect_quote=0", "expect_error=OutOfRiskBounds"],
    "rate_cap.scn": ["expect_rate=0.5"],
    "self_replenish.scn": ["unsettled=0"],
    "new_lp_fairness.scn": ["expect_minted=60"],
    "orderbook_loss.scn": ["expect_error=BidNotOpen", "offer=50"],
    "wrap_unwrap_basics.scn": [
        "expect_error=InsufficientSettled",
        "expect_error=UnwrapDisabled",
    ],
    "transfer_chain.scn": ["unsettled=true"],
    "quorum_checks.scn": ["expect_rate=0.6", "expect_error=ReportExpired"],
}


def test_corpus_covers_core_behaviors():
    for name, needles in CORE_BEHAVIOR_COVERAGE.items():
        text = (SCENARIO_DIR / name).read_text()
        for needle in needles:
            assert needle in text, f"{name} must exercise {needle}"
