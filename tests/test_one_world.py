"""Tests, demos and the README build every world through
:class:`rpoolsim.World`.  A ledger, signer registry, pool, book, signer key or
rating entity built by hand anywhere else fails here, named by file,
function and line.  So does a test that expects a modelled error with a bare
``pytest.raises`` where ``conftest.refused`` would check the world too, and
one that expects a ``ParseError``, which belongs in
``tests/test_scenario.py``'s ``PARSE_REFUSALS``."""

import ast
import builtins
import dataclasses
import re

import pytest

from astgates import ROOT, check_allowed, walk
from rpoolsim.errors import ERRORS_BY_NAME, RPoolError
from rpoolsim.scenario import ParseError

#: the calls that ``World``, ``World.add_pool``, ``World.add_book`` and
#: ``World.add_signer`` make
HAND_BUILT = re.compile(
    r"\b(scheme\.keygen|SignerRegistry|BaseLedger|WrapperLedger|AmmPool|OrderBook|RatingEntity)\("
)

#: every site that still builds by hand, by (file, enclosing function), and why
ALLOWED_SITES = {
    ("tests/test_oracle.py", "TestCanonicalEncode.test_sign_verify_round_trip"):
        "tests the signature scheme itself, with no world around it",
    ("tests/test_oracle.py", "TestCanonicalEncode.test_tamper_evidence"):
        "tests the signature scheme itself, with no world around it",
    ("tests/test_oracle.py", "_signer"):
        "builds the unregistered signer whose reports no registry can verify",
    ("tests/test_rejections.py", None):
        "the UnknownSigner row signs with an entity no registry holds",
    ("tests/test_package.py", None):
        "the slotted-record list checks the entity class itself, with no world around it",
}
# tests/naive_ledger.py needs no entry: the replay oracle imports nothing
# from the library, by design.


def hand_built_sites():
    """{(file, enclosing function or None): [line, ...]} for every hand-built
    call in the tests and demos, and every match in the README's text."""
    sites = {}
    for file, function, node in walk("tests", "demos"):
        if isinstance(node, ast.Call) and HAND_BUILT.search(f"{ast.unparse(node.func)}("):
            sites.setdefault((file, function), []).append(node.lineno)
    for number, line in enumerate((ROOT / "README.md").read_text().splitlines(), 1):
        if HAND_BUILT.search(line):
            sites.setdefault(("README.md", None), []).append(number)
    return sites


def test_worlds_are_built_only_through_world():
    check_allowed(hand_built_sites(), ALLOWED_SITES, "build these through rpoolsim.World")


#: every exception class a test names in ``pytest.raises``, as it is written
NAMED_ERRORS = {
    **{
        name: value
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    },
    "ParseError": ParseError,
    "dataclasses.FrozenInstanceError": dataclasses.FrozenInstanceError,
    "RPoolError": RPoolError,
    **ERRORS_BY_NAME,
}

#: every function that expects a modelled error without ``conftest.refused``,
#: or a ParseError outside the parse refusal table, and why
RAISES_ALLOWED = {
    ("tests/conftest.py", "refused"): "the helper itself",
    **dict.fromkeys(
        [
            ("tests/test_attack.py", f"TestScenarioValidation.{name}")
            for name in (
                "test_short_cannot_exceed_supply", "test_rate_bounds",
                "test_collateral_cannot_be_negative", "test_a_replaced_copy_is_checked_too",
            )
        ],
        "the attack lab takes no world, and the test also checks an accepted scenario",
    ),
    ("tests/test_attack.py", "TestScenarioValidation.test_rules_run_in_order"):
        "the attack lab takes no world, and the test checks which rule reports first",
    ("tests/test_attack.py", "TestEndToEndReplay.test_bounds_and_cap_are_checked_before_any_work"):
        "its errors are ValueError and TypeError, raised before the replay builds a world",
    ("tests/test_attack.py", "TestEndToEndReplay.test_taint_aware_oracle_rejects_the_swap"):
        "the replay refuses inside a world it builds and drops",
    ("tests/test_attack.py", "TestEndToEndReplay.test_cached_template_is_never_written_to"):
        "the replay refuses inside a copy it drops; the template's full state is compared after",
    ("tests/test_ledger.py", "TestCheckRate.test_rejections"):
        "check_rate takes no world, and its errors are ValueError and TypeError",
    ("tests/test_scenario.py", "test_a_line_ends_at_lf_only"):
        "also checks that the line parses with a space where the separator is",
    ("tests/test_scenario.py", "test_grammar_round_trip"):
        "breaks each field of a generated script that it first checks the grammar accepts",
}


def bare_raises_sites():
    """{(file, enclosing function or None): [line, ...]} for every
    ``pytest.raises`` whose expected type is a modelled error or a
    ParseError, or is written as anything but a class's name, since that
    may hold one."""
    sites = {}
    for file, function, node in walk("tests"):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises":
            expected = NAMED_ERRORS.get(ast.unparse(node.args[0]))
            if expected is None or issubclass(expected, (RPoolError, ParseError)):
                sites.setdefault((file, function), []).append(node.lineno)
    return sites


def test_refusals_are_checked_through_refused_or_the_parse_table():
    check_allowed(
        bare_raises_sites(), RAISES_ALLOWED,
        "check these through conftest.refused, or a ParseError as a row of PARSE_REFUSALS",
    )


@pytest.mark.parametrize(
    "found, allowed",
    [({"new": [1]}, {}), ({}, {"gone": "why"}), ({"site": [1]}, {"site": " "})],
    ids=["unexpected", "stale", "no-reason"],
)
def test_an_allow_list_fails_on_each_of_its_three_faults(found, allowed):
    check_allowed({"site": [1]}, {"site": "why"}, "advice")
    with pytest.raises(AssertionError):
        check_allowed(found, allowed, "advice")
