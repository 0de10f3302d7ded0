"""Scenario grammar: parsing, located errors, and canonical formatting."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpoolsim.cli import main
from rpoolsim.errors import ERRORS_BY_NAME
from rpoolsim.rates import PPM, format_rate
from rpoolsim.scenario import (
    ACTION_SPECS,
    ASSERT_KINDS,
    BID_STATUSES,
    DIRECTIVE_FIELDS,
    INT_LIMIT,
    NO_EXPECT_ERROR,
    SIGNER_MODELS,
    GenesisAccount,
    ParseError,
    ScenarioScript,
    format_scenario,
    parse_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

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


@pytest.mark.parametrize(
    "first, second",
    [
        ("signer p model=constant", "pool p kappa_ppm=5"),
        ("pool p kappa_ppm=5", "signer p model=constant"),
        ("signer q model=constant", "book q"),
        ("book q", "signer q model=constant"),
    ],
)
def test_pool_or_book_never_shares_a_signers_name(first, second):
    with pytest.raises(ParseError) as err:
        parse_scenario(f"{first}\n{second}\n")
    name_col = second.index(" ") + 2
    assert (err.value.line, err.value.column) == (2, name_col)
    assert "already declared as" in err.value.reason


@pytest.mark.parametrize(
    "text",
    ["account x base=5\nsigner x model=constant\n", "signer x model=taint\naccount x\n"],
)
def test_signer_may_share_an_accounts_name_in_either_order(text):
    script = parse_scenario(text)
    assert script.accounts[0].name == script.signers[0].name == "x"


def test_rate_digits_are_ascii_only():
    bad = HEADER + "at 0 post_bid book=ob bidder=alice amount=5 min_rate=\u0660.\u0665 expiry=60\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert (err.value.line, err.value.column) == (6, 45)
    assert "malformed rate" in err.value.reason


@pytest.mark.parametrize(
    "step, field",
    [
        ("at 0 deposit pool=nope lp=alice amount=5", "pool=nope"),
        ("at 0 assert kind=pool pool=ob total=1", "pool=ob"),
        ("at 0 post_bid book=main bidder=alice amount=5 min_rate=0.5 expiry=60", "book=main"),
        ("at 0 issue_report signer=alice requestor=alice amount=5 ttl=9 as=r1", "signer=alice"),
        ("at 0 swap pool=main requestor=alice amount=5 reports=ghost", "reports=ghost"),
        ("at 0 cancel_bid book=ob bid=ghost by=alice", "bid=ghost"),
        ("at 0 plan_recovery transfer=ghost amount=1", "transfer=ghost"),
    ],
)
def test_undeclared_names_and_unknown_labels_point_at_the_field(step, field):
    with pytest.raises(ParseError) as err:
        parse_scenario(HEADER + step + "\n")
    assert (err.value.line, err.value.column) == (6, step.index(field) + 1)
    assert field.partition("=")[2] in err.value.reason


# -- grammar round trip ---------------------------------------------------------

NAMES = ["a", "bob", "c_1", "D.e", "_f", "g-2", "lp9", "x.y-z"]
LABELS = NAMES + [f"l{i}" for i in range(24)]
INTS = (
    st.integers(0, 10**6).map(str)
    | st.integers(0, INT_LIMIT - 1).map(str)
    | st.integers(0, 99).map(lambda n: f"0{n}")
)
#: field types whose valid values need no declarations or labels
PLAIN_VALUES = {
    "int": INTS,
    "name": st.sampled_from(NAMES),
    "rate": st.integers(0, PPM).flatmap(
        lambda ppm: st.sampled_from([format_rate(ppm), f"{ppm // PPM}.{ppm % PPM:06d}"])
    ),
    "bool": st.sampled_from(["true", "false"]),
    "targets": st.lists(st.tuples(st.sampled_from(NAMES), INTS), min_size=1, max_size=3).map(
        lambda pairs: ",".join(f"{name}:{amount}" for name, amount in pairs)
    ),
    "status": st.sampled_from(BID_STATUSES),
    "model": st.sampled_from(SIGNER_MODELS),
    "error": st.sampled_from(sorted(ERRORS_BY_NAME)),
}
#: the action that binds a label of each kind that a required field names
BINDS = {"transfer": "transfer", "report": "issue_report"}
#: values without a letter, digit or underscore, which no field type accepts
JUNK = st.text(alphabet="!$%&*+,./:;<>?@[]^`{|}~-=", max_size=3)


@st.composite
def scenario_lines(draw):
    """Token lines of a valid script: declared pools, books and signers,
    fresh as= labels, and references to earlier labels."""
    fresh = iter(draw(st.permutations(NAMES)))
    accounts = [next(fresh) for _ in range(draw(st.integers(0, 2)))]
    signers = [a for a in accounts if draw(st.booleans())]
    declared = {
        "signer": signers + [next(fresh) for _ in range(draw(st.integers(not signers, 1)))],
        "pool": [next(fresh) for _ in range(draw(st.integers(1, 2)))],
        "book": [next(fresh)],
    }
    labels: dict[str, list[str]] = {"transfer": [], "report": [], "bid": []}

    def value(field_type):
        """Text of a valid value of the field type."""
        kind, _, of = field_type.partition(":")
        if kind in PLAIN_VALUES:
            return draw(PLAIN_VALUES[kind])
        if kind == "as":
            used = {label for bound in labels.values() for label in bound}
            return draw(st.sampled_from([x for x in LABELS if x not in used]))
        if kind == "ref" and (not labels[of] or draw(st.booleans())):
            return draw(INTS)
        choices = st.sampled_from(declared[kind] if kind in declared else labels[of])
        if kind == "labels":
            return ",".join(draw(st.lists(choices, min_size=1, max_size=3)))
        return draw(choices)

    header = []
    if draw(st.booleans()):
        header.append(["config"] + [
            f"{key}={value(kind)}"
            for key, (kind, _) in DIRECTIVE_FIELDS["config"].items()
            if draw(st.booleans())
        ])
    for directive, names in [("account", accounts), *declared.items()]:
        for name in names:
            line = [directive, name]
            for key, (kind, required) in DIRECTIVE_FIELDS.get(directive, {}).items():
                if required or draw(st.booleans()):
                    text = str(draw(st.integers(1, PPM - 1))) if key == "kappa_ppm" else value(kind)
                    line.append(f"{key}={text}")
            header.append(line)
    lines = draw(st.permutations(header))

    def step(time, action, bind=False):
        """Append a step of the action, after one binding each label kind
        it requires that no earlier step bound; ``bind`` forces ``as=``."""
        spec = ACTION_SPECS[action]
        for kind, required in spec.values():
            label_kind = kind.partition(":")[2]
            if required and kind.startswith("label") and not labels[label_kind]:
                step(time, BINDS[label_kind], bind=True)
        if action == "assert":
            kind = draw(st.sampled_from(list(ASSERT_KINDS)))
            required, comparisons = ASSERT_KINDS[kind]
            keys = set(required)
            if comparisons:
                keys |= set(draw(st.lists(st.sampled_from(sorted(comparisons)), min_size=1)))
        elif action == "freeze":
            by_plan = bool(labels["transfer"]) and draw(st.booleans())
            keys = {"case", *(("transfer", "amount") if by_plan else ("targets",))}
            keys |= {"by"} if draw(st.booleans()) else set()
        else:
            keys = {key for key, (_, required) in spec.items() if required or draw(st.booleans())}
            keys |= {"as"} if bind else set()
        fields = {key: value(spec[key][0]) for key in keys}
        if action == "assert":
            fields["kind"] = kind
        if action not in NO_EXPECT_ERROR and draw(st.booleans()):
            fields["expect_error"] = value("error")
        tokens = draw(st.permutations([f"{key}={text}" for key, text in fields.items()]))
        lines.append(["at", str(time), action, *tokens])
        if "as" in fields:
            labels[spec["as"][0].partition(":")[2]].append(fields["as"])

    times = sorted(draw(st.lists(st.integers(0, 10**9), min_size=4, max_size=12)))
    for time, action in zip(times, draw(st.permutations(list(ACTION_SPECS)))):
        step(time, action)
    return lines


def _text(lines):
    return "\n".join(" ".join(line) for line in lines)


#: one edit per ScenarioScript field, each changing only that field
ONE_FIELD_EDITS = {
    "window": lambda script: setattr(script, "window", 1),
    "arbitrator": lambda script: setattr(script, "arbitrator", "other"),
    "accounts": lambda script: script.accounts.append(GenesisAccount("bob")),
    "signers": lambda script: script.signers.clear(),
    "pools": lambda script: script.pools.append(script.pools[0]._replace(name="side")),
    "books": lambda script: script.books.append("ob2"),
    "steps": lambda script: script.steps[0].params.update(amount=2),
}


@pytest.mark.parametrize("field", ScenarioScript.__slots__)
def test_scripts_differing_in_one_field_compare_unequal(field):
    text = HEADER + "at 0 wrap account=alice amount=1\n"
    script, edited = parse_scenario(text), parse_scenario(text)
    assert script == edited
    ONE_FIELD_EDITS[field](edited)
    assert script != edited
    assert edited != script


@settings(max_examples=40, deadline=None)
@given(lines=scenario_lines(), junk=JUNK)
def test_grammar_round_trip(lines, junk):
    script = parse_scenario(_text(lines))
    canonical = format_scenario(script)
    assert parse_scenario(canonical) == script
    assert format_scenario(parse_scenario(canonical)) == canonical

    for i, line in enumerate(lines):
        for j, token in enumerate(line):
            if "=" in token:
                broken = line[:j] + [token.partition("=")[0] + "=" + junk] + line[j + 1 :]
                with pytest.raises(ParseError):
                    parse_scenario(_text(lines[:i] + [broken] + lines[i + 1 :]))


@settings(max_examples=40, deadline=None)
@given(lines=scenario_lines())
def test_generated_scripts_never_reach_an_internal_error(lines):
    """A script the grammar accepts runs to exit 0 or 1, or its world is
    refused with exit 2 and one ``path: reason`` line; exit 3, the
    internal-error path, is never taken.  Each example writes its own file
    and captures its own output: function-scoped fixtures are shared
    across Hypothesis examples."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.scn"
        path.write_text(_text(lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        message = err.getvalue()
        assert message.startswith(f"{path}: ")
        assert message.count("\n") == 1, message
        assert "Traceback" not in message


def _table_rows(text):
    """First-column name -> row, for each ``| `name` | ...`` table row."""
    return {row.split("`")[1]: row for row in text.splitlines() if row.startswith("| `")}


def test_format_doc_names_every_schema_entry():
    doc = (ROOT / "docs" / "scenario-format.md").read_text()
    actions, _, asserts = doc.partition("## Assertions")
    action_rows, assert_rows = _table_rows(actions), _table_rows(asserts)
    # the assert row defers its fields to the assertion table
    action_rows["assert"] += "".join(assert_rows.values())
    for action, spec in ACTION_SPECS.items():
        for key in spec:
            assert f"`{key}`" in action_rows[action], (action, key)
    for kind, (required, comparisons) in ASSERT_KINDS.items():
        for key in required | comparisons:
            assert f"`{key}`" in assert_rows[kind], (kind, key)
    for directive, schema in DIRECTIVE_FIELDS.items():
        assert f'"{directive}"' in doc, directive
        for key in schema:
            assert f'"{key}="' in doc, (directive, key)
