"""Scenario grammar: parsing, located errors, and canonical formatting."""

from pathlib import Path

import pytest

from rpoolsim.scenario import ParseError, format_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

HEADER = """\
config window=86400 arbitrator=arb
account alice base=100
signer rater model=constant rate=0.5
pool main kappa_ppm=500000
book ob
"""


def test_shipped_recovery_scenario_has_nine_steps():
    script = parse_scenario((SCENARIO_DIR / "recovery_L0.scn").read_text())
    assert len(script.steps) == 9


def test_minimal_header_defaults():
    script = parse_scenario("at 0 advance\n")
    assert script.window == 86400
    assert script.arbitrator == "arbiter"
    assert len(script.steps) == 1


def test_decreasing_time_rejected():
    text = HEADER + "at 10 advance\nat 5 advance\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == 7
    assert "decreases" in err.value.reason


def test_unknown_action_named_in_error():
    with pytest.raises(ParseError) as err:
        parse_scenario("at 0 frobnicate account=alice\n")
    assert "frobnicate" in err.value.reason


def test_unknown_field_rejected():
    with pytest.raises(ParseError) as err:
        parse_scenario("at 0 wrap account=alice amount=5 color=red\n")
    assert "color" in err.value.reason


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_scenario("widget foo\n")


def test_rate_precision_limit():
    ok = HEADER + "at 0 post_bid book=ob bidder=alice amount=5 min_rate=0.123456 expiry=60\n"
    parse_scenario(ok)
    bad = HEADER + "at 0 post_bid book=ob bidder=alice amount=5 min_rate=0.1234567 expiry=60\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert "decimal" in err.value.reason


def test_rate_above_one_rejected():
    bad = HEADER + "at 0 post_bid book=ob bidder=alice amount=5 min_rate=1.5 expiry=60\n"
    with pytest.raises(ParseError):
        parse_scenario(bad)


@pytest.mark.parametrize(
    "step",
    [
        "at 9223372036854775808 advance",
        "at 0 issue_report signer=rater requestor=alice amount=5 "
        "ttl=100000000000000000000000 as=r1",
        "at 0 freeze case=c1 targets=alice:9223372036854775808",
        "at 0 cancel_bid book=ob bid=9223372036854775808 by=alice",
        "at ² advance",
    ],
)
def test_ints_outside_the_encodable_range_rejected(step):
    with pytest.raises(ParseError) as err:
        parse_scenario(HEADER + step + "\n")
    assert err.value.line == 6
    parse_scenario(HEADER + "at 9223372036854775807 advance\n")


def test_undefined_report_label():
    bad = HEADER + "at 0 swap pool=main requestor=alice amount=5 reports=ghost\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert "ghost" in err.value.reason


def test_undeclared_pool():
    with pytest.raises(ParseError):
        parse_scenario("at 0 deposit pool=nope lp=alice amount=5\n")


def test_duplicate_label():
    bad = (
        HEADER
        + "at 0 transfer from=alice to=bob amount=1 as=t1\n"
        + "at 0 transfer from=alice to=bob amount=1 as=t1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert "t1" in err.value.reason


def test_freeze_takes_exactly_one_form():
    for tail in (
        "at 0 freeze case=c1\n",
        "at 0 freeze case=c1 targets=alice:5 transfer=t1 amount=5\n",
        "at 0 freeze case=c1 transfer=t1\n",
    ):
        with pytest.raises(ParseError):
            parse_scenario(HEADER + "at 0 transfer from=alice to=bob amount=1 as=t1\n" + tail)


def test_unknown_expect_error_name():
    with pytest.raises(ParseError) as err:
        parse_scenario("at 0 wrap account=alice amount=5 expect_error=Nonsense\n")
    assert "Nonsense" in err.value.reason


def test_expect_error_not_allowed_on_assert():
    with pytest.raises(ParseError):
        parse_scenario("at 0 assert kind=nonce account=a value=0 expect_error=ZeroAmount\n")


def test_assert_requires_comparison():
    with pytest.raises(ParseError):
        parse_scenario("at 0 assert kind=balance account=alice\n")


def test_directives_must_precede_steps():
    with pytest.raises(ParseError):
        parse_scenario("at 0 advance\nconfig window=5 arbitrator=a\n")


def test_comments_and_blanks_ignored():
    script = parse_scenario("# header\n\n  # indented comment\nat 0 advance  # trailing\n")
    assert len(script.steps) == 1


def test_hash_inside_a_token_starts_a_comment():
    script = parse_scenario("account b base=5#x\nat 0 advance#now\n")
    assert script.accounts[0].base == 5
    assert len(script.steps) == 1


def test_bad_token_before_a_comment_keeps_its_column():
    with pytest.raises(ParseError) as err:
        parse_scenario("account b base=x5#note\n")
    assert (err.value.line, err.value.column) == (1, 11)
    assert err.value.reason == "base must be a non-negative integer, got 'x5'"


def test_fmt_drops_comments():
    commented = HEADER + "# steps\nat 0 wrap account=alice amount=5#inline\n"
    plain = HEADER + "at 0 wrap account=alice amount=5\n"
    canonical = format_scenario(parse_scenario(commented))
    assert "#" not in canonical
    assert canonical == format_scenario(parse_scenario(plain))


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_fmt_idempotent_and_lossless(path):
    original = parse_scenario(path.read_text())
    canonical = format_scenario(original)
    reparsed = parse_scenario(canonical)
    assert reparsed == original
    assert format_scenario(reparsed) == canonical
