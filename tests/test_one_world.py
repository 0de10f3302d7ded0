"""Tests, demos and the README build every world through
:class:`rpoolsim.World`.  A ledger, signer registry, pool, signer key or
rating entity built by hand anywhere else fails here, named by file,
function and line."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the calls that ``World``, ``World.add_pool`` and ``World.add_signer`` make
HAND_BUILT = re.compile(
    r"\b(scheme\.keygen|SignerRegistry|BaseLedger|WrapperLedger|AmmPool|RatingEntity)\("
)

#: every site that still builds by hand, by (file, enclosing function), and why
ALLOWED_SITES = {
    ("tests/test_amm.py", "test_reserved_address_rejected_at_construction"):
        "checks the pool constructor's own refusal of a reserved address",
    ("tests/test_oracle.py", "test_sign_verify_round_trip"):
        "tests the signature scheme itself, with no world around it",
    ("tests/test_oracle.py", "test_tamper_evidence"):
        "tests the signature scheme itself, with no world around it",
    ("tests/test_oracle.py", "test_unknown_signer"):
        "its entity must stay unregistered, and add_signer registers",
    ("tests/test_oracle.py", "_signer"):
        "builds the unregistered signer whose reports no registry can verify",
    ("tests/test_rejections.py", None):
        "the UnknownSigner row signs with an entity no registry holds",
    ("tests/test_package.py", None):
        "the slotted-record list checks the entity class itself, with no world around it",
}
# tests/naive_ledger.py needs no entry: the replay oracle imports nothing
# from the library, by design.


def _enclosing_function(tree, line):
    """The name of the innermost function around ``line``, or ``None``."""
    names = [  # ast.walk is breadth first, so inner functions come later
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno
    ]
    return names[-1] if names else None


def hand_built_sites():
    """{(file, enclosing function or None): [line, ...]} for every match."""
    paths = [*sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("demos/*.py")), ROOT / "README.md"]
    sites = {}
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        tree = ast.parse(text) if path.suffix == ".py" else None
        for number, line in enumerate(text.splitlines(), 1):
            if HAND_BUILT.search(line):
                function = tree and _enclosing_function(tree, number)
                sites.setdefault((rel, function), []).append(number)
    return sites


def test_worlds_are_built_only_through_world():
    sites = hand_built_sites()
    unexpected = {site: lines for site, lines in sites.items() if site not in ALLOWED_SITES}
    assert not unexpected, f"build these through rpoolsim.World: {unexpected}"
    stale = set(ALLOWED_SITES) - set(sites)
    assert not stale, f"allowed sites that no longer build by hand: {stale}"
