"""The package surface: which modules an import loads, the lazy public
namespace, the immutability of the value records, the names the benchmark
harness reaches into, and the source gates over the library: no assert, no
float, every function named, every import used, one owner each for the
records and the clock.  The gates walk the sources through ``astgates``."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import rpoolsim
from astgates import ROOT, check_allowed, files, nodes, walk
from rpoolsim.amm import SwapReceipt
from rpoolsim.attack import AttackScenario, ProfitBreakdown
from rpoolsim.ledger import Account, Case, UnsettledRecord, _new_case
from rpoolsim.oracle import ConstantRiskModel, RatingEntity, RiskReport, TaintAwareRiskModel
from rpoolsim.orderbook import Bid, Fill, _new_bid
from rpoolsim.rates import PPM
from rpoolsim.runner import AssertionResult, EventRecord
from rpoolsim.scenario import GenesisAccount, PoolSpec, ScenarioScript, SignerSpec, Step


#: each import a fresh interpreter runs -> the exact ``rpoolsim`` modules it
#: loads, and the stdlib modules it must leave unloaded: the CLI and the
#: record modules stay off the attack lab's Fraction math and dataclasses
IMPORTS = {
    "rpoolsim": ("", ""),
    "rpoolsim.cli": (
        "amm cli errors ledger oracle orderbook rates runner scenario world", "fractions decimal"
    ),
    "rpoolsim.attack": ("amm attack errors ledger oracle orderbook rates world", ""),
    "rpoolsim.scenario": ("errors rates scenario", "dataclasses"),
    "rpoolsim.ledger": ("errors ledger", "dataclasses"),
    "rpoolsim.oracle": ("errors ledger oracle rates", "dataclasses"),
}


@pytest.mark.parametrize("module", IMPORTS)
def test_an_import_loads_exactly_what_it_uses(module):
    # a fresh interpreter, so nothing this test process imported counts
    program = f"import sys; before = set(sys.modules); import {module}; "
    program += "print(*set(sys.modules) - before)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    ours, unloaded = IMPORTS[module]
    assert {name for name in loaded if name.startswith("rpoolsim")} == {
        "rpoolsim", *(f"rpoolsim.{name}" for name in ours.split())
    }
    assert not loaded & set(unloaded.split())


@pytest.mark.parametrize("name", rpoolsim.__all__)
def test_public_name_resolves_to_its_defining_module(name):
    value = getattr(rpoolsim, name)
    home = importlib.import_module(f"rpoolsim.{rpoolsim._EXPORTS[name]}")
    assert value is getattr(home, name)
    # a class or function maps to the module that defines it, not one that
    # re-imports it (constants carry no __module__)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_dir_lists_every_public_name():
    assert set(rpoolsim.__all__) <= set(dir(rpoolsim))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rpoolsim, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rpoolsim import *", namespace)
    assert {name: namespace[name] for name in rpoolsim.__all__} == {
        name: getattr(rpoolsim, name) for name in rpoolsim.__all__
    }


_RECEIPT = SwapReceipt(
    requestor="alice", amount_in=10, median_ppm=500_000, multiplier_ppm=PPM,
    rate_ppm=500_000, amount_out=5, time=0, transfer_in_id=1,
)
_FILL = Fill(
    bid_id=1, lp="lp", bidder="alice", amount_unsettled=10, base_paid=5, time=0, transfer_id=1
)


@pytest.mark.parametrize(
    "record, field",
    [
        (
            EventRecord(
                scenario="s", seq=1, time=0, action="advance", params={}, outcome="ok",
                result=None, deltas={},
            ),
            "outcome",
        ),
        (AssertionResult(seq=1, description="d", passed=True, expected=1, observed=1), "passed"),
        (
            ProfitBreakdown(
                swap_out=1, sale_proceeds=2, buyback_cost=3, profit=0, stolen=1,
                meets_collateral_bound=None,
            ),
            "profit",
        ),
        (GenesisAccount(name="alice", base=5), "base"),
        (SignerSpec(name="rater", model="constant", rate=500_000), "rate"),
        (PoolSpec(name="main", kappa_ppm=500_000), "rate_cap_ppm"),
        (Step(time=0, action="advance", params={}), "expect_error"),
        (
            AttackScenario(
                pool_total=1, lp_supply=1, collateral=0, shorted=0, stolen=1, rate_ppm=0
            ),
            "stolen",
        ),
        (UnsettledRecord(settlement_time=10, transfer_id=1, amount=5), "amount"),
        (
            Bid(bid_id=1, bidder="alice", amount=5, min_rate_ppm=0, expiry=10, nonce_at_post=0),
            "status",
        ),
        (Case(marks=()), "status"),
        (_RECEIPT, "amount_out"),
        (_FILL, "base_paid"),
        (RiskReport("alice", 5, 0, 10, 500_000, "rater", b""), "quote_ppm"),
        (RiskReport("alice", 5, 0, 10, 500_000, "rater", b""), "signed"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_value_records_reject_field_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


@pytest.mark.parametrize(
    "record",
    [
        UnsettledRecord(settlement_time=10, transfer_id=1, amount=5),
        Account(),
        Case(marks=()),
        RiskReport("alice", 5, 0, 10, 500_000, "rater", b""),
        ConstantRiskModel(500_000),
        TaintAwareRiskModel(500_000),
        RatingEntity("rater", b"", ConstantRiskModel(500_000)),
        Bid(bid_id=1, bidder="alice", amount=5, min_rate_ppm=0, expiry=10, nonce_at_post=0),
        ScenarioScript(),
        _RECEIPT,
        _FILL,
    ],
    ids=lambda value: type(value).__name__,
)
def test_slotted_records_reject_unknown_attributes(record):
    # a misspelt field name raises instead of adding an attribute nobody reads
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_only_the_bench_hashed_records_are_dataclasses():
    # bench/workloads.py hashes pool receipts and book fills with
    # dataclasses.astuple for the pool_deep output digest
    found = set()
    for info in pkgutil.iter_modules(rpoolsim.__path__):
        module = importlib.import_module(f"rpoolsim.{info.name}")
        found |= {
            value
            for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
        }
    assert found == {SwapReceipt, Fill}


#: each hashed record's field names, in the order the bench's pool_deep
#: digest reads them through ``dataclasses.astuple``
_HASHED_FIELDS = {
    SwapReceipt: (
        "requestor", "amount_in", "median_ppm", "multiplier_ppm", "rate_ppm", "amount_out",
        "time", "transfer_in_id",
    ),
    Fill: ("bid_id", "lp", "bidder", "amount_unsettled", "base_paid", "time", "transfer_id"),
}


@pytest.mark.parametrize("record", [_RECEIPT, _FILL], ids=lambda value: type(value).__name__)
def test_hashed_records_keep_their_fields_and_tuples(record):
    cls = type(record)
    names = _HASHED_FIELDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    values = tuple(getattr(record, name) for name in names)
    assert dataclasses.astuple(record) == values
    positional = cls(*values)
    assert type(positional) is cls
    assert positional == record == cls(**dict(zip(names, values)))
    assert hash(positional) == hash(record)


@pytest.mark.parametrize("record", [_RECEIPT, _FILL], ids=lambda value: type(value).__name__)
def test_hashed_records_refuse_every_field_assignment(record):
    # an unknown name is test_slotted_records_reject_unknown_attributes's
    for name in _HASHED_FIELDS[type(record)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("record", [_RECEIPT, _FILL], ids=lambda value: type(value).__name__)
def test_replace_changes_one_field_of_a_hashed_record(record):
    # dataclasses.replace passes every field to __init__ by keyword
    cls = type(record)
    for n, name in enumerate(_HASHED_FIELDS[cls]):
        values = list(dataclasses.astuple(record))
        values[n] = "carol" if isinstance(values[n], str) else values[n] + 7
        replaced = dataclasses.replace(record, **{name: values[n]})
        assert type(replaced) is cls
        assert replaced == cls(*values)
        assert dataclasses.astuple(replaced) == tuple(values)


@pytest.mark.parametrize(
    "build, construct, fields",
    [
        (_new_case, Case, ((("alice", (5, 1), 3),), "active")),
        (_new_case, Case, ((), "released")),
        (_new_bid, Bid, (1, "alice", 5, 250_000, 10, 2, "open")),
        (_new_bid, Bid, (1, "alice", 5, 250_000, 10, 2, "filled")),
    ],
    ids=["Case", "Case-released", "Bid", "Bid-filled"],
)
def test_builders_match_their_constructors(build, construct, fields):
    built = build(fields)
    assert type(built) is construct
    assert built == construct(*fields)


def _load_bench_spans():
    """``bench/spans.py``, loaded by path: the harness is not a package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_harness_names_still_resolve():
    # the tracer reads a method from its class __dict__ and a function from
    # its module, and raises on a missing one: ``bench/run.py --trace 1`` dies
    spans = _load_bench_spans()
    for _, owner, attr in spans.TRACED:
        module_name, class_name = spans._split(owner)
        module = importlib.import_module(module_name)
        if class_name:
            assert attr in vars(getattr(module, class_name)), f"{owner}.{attr}"
        else:
            assert hasattr(module, attr), f"{owner}.{attr}"


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so a check the library relies on
    # raises AssertionError explicitly instead
    found = [f"{file}:{node.lineno}" for file, _, node in walk("src") if isinstance(node, ast.Assert)]
    assert found == []


def test_the_library_has_no_float():
    # amounts, rates and times are ints and the attack lab's ratios are
    # Fractions, so the library has no true division, no float constant and
    # no float() or round() call
    found = [
        f"{file}:{node.lineno}"
        for file, _, node in walk("src")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and ast.unparse(node.func) in ("float", "round")
    ]
    assert found == []


#: the library's functions and methods that no module of the library names,
#: by (file, qualified name), with who calls them; each one but the NamedTuple
#: methods in ``_CALLED_BY_NAME`` stays named in the tests, demos or bench
_CALLED_BY_NAME = {"AttackScenario._make", "RiskReport._make"}
NAMED_OUTSIDE_SRC = {
    ("src/rpoolsim/attack.py", "AttackScenario._make"): "NamedTuple._replace calls it",
    ("src/rpoolsim/oracle.py", "RiskReport._make"): "NamedTuple._replace calls it",
    ("src/rpoolsim/ledger.py", "WrapperLedger.wrapped_total"):
        "bench pool_deep's gate checks base_locked() against it; see its docstring",
    ("src/rpoolsim/ledger.py", "WrapperLedger.balance_of"):
        "a public ledger read that the tests and demos/orderbook_session.py call",
    ("src/rpoolsim/runner.py", "run_scenario"):
        "runs a parsed script in one call for the tests; bench/spans.py traces it",
    ("src/rpoolsim/runner.py", "ScenarioRunner.state_digest"):
        "test_world_copy compares runs by it; bench/spans.py traces it",
}


def test_every_function_in_src_is_referenced():
    # dead code: a function or method no code names, outside dunders, which
    # the interpreter calls by protocol.  A name is a name, an attribute, an
    # import alias or a string constant (a ``getattr`` or a table of names)
    named, outside = set(), set()
    for file, _, node in walk("src", "tests", "bench", "demos"):
        names = named if file.startswith("src/") else outside
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."), [node.asname])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    found = {
        (file, qualname): [node.lineno]
        for file, qualname, node in walk("src")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    }
    check_allowed(found, NAMED_OUTSIDE_SRC, "name these in src or list them")
    unnamed = {site for site in found if site[1].rsplit(".", 1)[-1] not in outside}
    assert {site for site in unnamed if site[1] not in _CALLED_BY_NAME} == set()


def test_every_import_is_used():
    # a name a module imports and never reads, outside __future__ imports
    unused = []
    for file in files("src", "tests", "demos", "bench"):
        read = {node.id for _, node in nodes(file) if isinstance(node, ast.Name)}
        for _, node in nodes(file):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{file}:{node.lineno}: {name}")
    assert unused == []


#: list methods that change a list in place
_LIST_EDITS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _record_owners(file: str) -> tuple[set, set, set]:
    """The functions of a ledger module that edit a record list, that
    assign ``unsettled_sum`` and that call ``_new_record``, by qualified
    name.  A record list is an ``.unsettled`` attribute or a local name
    bound to one; an edit is a list method from ``_LIST_EDITS``, a
    ``bisect.insort``, an item or slice store or ``del``, an augmented
    assignment or a new list.  ``Account.__init__`` starting a list at
    ``[]`` or a sum at ``0`` is not counted."""
    aliases = {}  # function -> the local names bound to a record list
    for where, node in nodes(file):
        if isinstance(node, ast.Assign) and ast.unparse(node.value).endswith(".unsettled"):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            aliases.setdefault(where, set()).update(names)

    def is_records(expr, where):
        if isinstance(expr, ast.Name):
            return expr.id in aliases.get(where, ())
        return isinstance(expr, ast.Attribute) and expr.attr == "unsettled"

    editors, sum_writers, record_builders = set(), set(), set()
    for where, node in nodes(file):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            if where == "Account.__init__" and ast.unparse(node.value) in ("0", "[]"):
                continue
            if isinstance(node, ast.AugAssign) and is_records(node.target, where):
                editors.add(where)
            for target in (inner for top in targets for inner in ast.walk(top)):
                if not isinstance(getattr(target, "ctx", None), (ast.Store, ast.Del)):
                    continue
                if isinstance(target, ast.Attribute) and target.attr == "unsettled_sum":
                    sum_writers.add(where)
                elif isinstance(target, ast.Attribute) and target.attr == "unsettled":
                    editors.add(where)
                elif isinstance(target, ast.Subscript) and is_records(target.value, where):
                    editors.add(where)
        elif isinstance(node, ast.Call):
            func = node.func
            if ast.unparse(func) == "_new_record":
                record_builders.add(where)
            elif isinstance(func, ast.Attribute) and func.attr in _LIST_EDITS:
                if is_records(func.value, where):
                    editors.add(where)
            elif ast.unparse(func).startswith("bisect.insort") and node.args:
                if is_records(node.args[0], where):
                    editors.add(where)
    return editors, sum_writers, record_builders


def test_only_three_primitives_edit_an_accounts_records():
    # one owner for the records and their cached total: in the ledger only
    # _fold, _put and _take edit a record list or assign unsettled_sum, and
    # only _put and _take build a record
    editors, sum_writers, record_builders = _record_owners("src/rpoolsim/ledger.py")
    assert editors == {"_fold", "_put", "_take"}
    assert sum_writers == {"_fold", "_put", "_take"}
    assert record_builders == {"_put", "_take"}


def test_the_naive_quorum_check_encodes_every_report_itself():
    # the differential oracle re-encodes each report from its fields, so it
    # never relies on the bytes a report carries, which the one-pass check
    # verifies
    found = [node for _, node in nodes("tests/naive_quorum.py")]
    reads = {node.attr for node in found if isinstance(node, ast.Attribute)}
    strings = {node.value for node in found if isinstance(node, ast.Constant)}
    assert "signed" not in reads | strings
    assert "canonical_encode" in {node.id for node in found if isinstance(node, ast.Name)}


def test_one_function_refuses_a_time_before_the_clock():
    # ClockWentBack is built and raised in one function of the library, and
    # each of its calls is a ledger method's ``if now < self.clock:`` body,
    # so a call at or after the clock pays that one comparison
    raisers, calls, guarded = set(), set(), set()
    for file, qualname, node in walk("src"):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(raised) == "ClockWentBack":
                raisers.add(f"{file}:{qualname}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_went_back"):
            calls.add((file, node.lineno))
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "now < self.clock":
            body = [ast.unparse(stmt) for stmt in node.body]
            if body == ["self._went_back(now)"] and not node.orelse:
                guarded.add((file, node.body[0].lineno))
    assert raisers == {"src/rpoolsim/ledger.py:WrapperLedger._went_back"}
    assert calls and calls == guarded
    assert {file for file, _ in calls} == {"src/rpoolsim/ledger.py"}
