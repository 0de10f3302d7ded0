"""The package surface: which modules an import loads, the lazy public
namespace, the immutability of the value records, the names the benchmark
harness reaches into, that every function in the library is named
somewhere and that every import is used."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rpoolsim
from rpoolsim.amm import SwapReceipt
from rpoolsim.attack import AttackScenario, ProfitBreakdown
from rpoolsim.ledger import Account, Case, UnsettledRecord, _new_case
from rpoolsim.oracle import ConstantRiskModel, RatingEntity, RiskReport, TaintAwareRiskModel
from rpoolsim.orderbook import Bid, Fill, _new_bid
from rpoolsim.rates import PPM
from rpoolsim.runner import AssertionResult, EventRecord
from rpoolsim.scenario import GenesisAccount, PoolSpec, ScenarioScript, SignerSpec, Step

ROOT = Path(__file__).resolve().parent.parent


def modules_loaded_by(statement: str) -> set[str]:
    """Names a fresh interpreter adds to ``sys.modules`` by running the
    statement, so nothing this test process already imported counts."""
    program = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_submodule():
    loaded = modules_loaded_by("import rpoolsim")
    assert {name for name in loaded if name.startswith("rpoolsim.")} == set()


def test_importing_the_cli_leaves_the_attack_lab_unloaded():
    loaded = modules_loaded_by("import rpoolsim.cli")
    assert "rpoolsim.runner" in loaded
    assert not loaded & {"rpoolsim.attack", "fractions", "decimal"}


def test_importing_the_attack_lab_leaves_the_parser_unloaded():
    # the attack replay builds a World, which must not pull in the runner
    loaded = modules_loaded_by("import rpoolsim.attack")
    assert "rpoolsim.world" in loaded
    assert not loaded & {"rpoolsim.scenario", "rpoolsim.runner"}


@pytest.mark.parametrize("module", ["rpoolsim.scenario", "rpoolsim.ledger", "rpoolsim.oracle"])
def test_the_record_modules_load_no_dataclasses(module):
    assert "dataclasses" not in modules_loaded_by(f"import {module}")


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so a check the library relies on
    # raises AssertionError explicitly instead
    found = []
    for path in sorted((ROOT / "src" / "rpoolsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_the_library_has_no_float():
    # amounts, rates and times are ints and the attack lab's ratios are
    # Fractions, so the library has no true division, no float constant and
    # no float() or round() call
    found = []
    for path in sorted((ROOT / "src" / "rpoolsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call) and ast.unparse(node.func) in ("float", "round")
        ]
    assert found == []


def test_importing_the_parser_loads_only_what_it_uses():
    loaded = modules_loaded_by("import rpoolsim.scenario")
    assert {name for name in loaded if name.startswith("rpoolsim.")} == {
        "rpoolsim.errors",
        "rpoolsim.rates",
        "rpoolsim.scenario",
    }


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


#: functions and methods that nothing names but that run all the same,
#: by qualified name, with the reason
_CALLED_UNNAMED = {
    "AttackScenario._make": "NamedTuple._replace calls it",
}


def _defined_functions(tree: ast.Module):
    """(qualified name, node) of every function and method in a module,
    nested ones included, with their classes' and functions' names."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield qualname, node
            stack.extend((child, qualname + ".") for child in node.body)
        else:
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node))


def _named(tree: ast.Module) -> set[str]:
    """Every name a module uses: a name, an attribute, an import alias or a
    string constant that could be an identifier (a ``getattr`` or a
    traced-name table)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_function_in_src_is_referenced():
    # dead code: a function or method no code names, outside dunders,
    # which the interpreter calls by protocol
    named = set()
    for folder in ("src", "tests", "bench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named |= _named(ast.parse(path.read_text(), filename=str(path)))
    unreferenced = []
    for path in sorted((ROOT / "src" / "rpoolsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in _defined_functions(tree):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in named and qualname not in _CALLED_UNNAMED:
                unreferenced.append(f"{path.name}:{qualname}")
    assert unreferenced == []


def test_every_import_is_used():
    # a name a module imports and never reads, outside __future__ imports
    unused = []
    for folder in (ROOT / "src" / "rpoolsim", ROOT / "tests"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []


#: list methods that change a list in place
_LIST_EDITS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _record_owners(source: str) -> tuple[set[str], set[str], set[str]]:
    """The functions of a ledger module that edit a record list, that
    assign ``unsettled_sum`` and that call ``_new_record``, by qualified
    name.  A record list is an ``.unsettled`` attribute or a local name
    bound to one; an edit is a list method from ``_LIST_EDITS``, a
    ``bisect.insort``, an item or slice store or ``del``, an augmented
    assignment or a new list.  ``Account.__init__`` starting a list at
    ``[]`` or a sum at ``0`` is not counted."""
    tree = ast.parse(source)
    owner = {}  # node -> the innermost function around it
    for qualname, function in sorted(_defined_functions(tree), key=lambda pair: len(pair[0])):
        owner.update((node, qualname) for node in ast.walk(function))
    aliases = {}  # function -> the local names bound to a record list
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.value).endswith(".unsettled"):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            aliases.setdefault(owner.get(node), set()).update(names)

    def is_records(expr, where):
        if isinstance(expr, ast.Name):
            return expr.id in aliases.get(where, ())
        return isinstance(expr, ast.Attribute) and expr.attr == "unsettled"

    editors, sum_writers, record_builders = set(), set(), set()
    for node in ast.walk(tree):
        where = owner.get(node, "<module>")
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
    source = (ROOT / "src" / "rpoolsim" / "ledger.py").read_text()
    editors, sum_writers, record_builders = _record_owners(source)
    assert editors == {"_fold", "_put", "_take"}
    assert sum_writers == {"_fold", "_put", "_take"}
    assert record_builders == {"_put", "_take"}


def test_one_function_refuses_a_time_before_the_clock():
    # ClockWentBack is built and raised in one function of the library, and
    # each of its calls is a ledger method's ``if now < self.clock:`` body,
    # so a call at or after the clock pays that one comparison
    raisers, calls, guarded = set(), set(), set()
    for path in sorted((ROOT / "src" / "rpoolsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, function in _defined_functions(tree):
            for node in ast.walk(function):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if ast.unparse(raised) == "ClockWentBack":
                        raisers.add(f"{path.name}:{qualname}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_went_back"):
                calls.add((path.name, node.lineno))
            if isinstance(node, ast.If) and ast.unparse(node.test) == "now < self.clock":
                body = [ast.unparse(stmt) for stmt in node.body]
                if body == ["self._went_back(now)"] and not node.orelse:
                    guarded.add((path.name, node.body[0].lineno))
    assert raisers == {"ledger.py:WrapperLedger._went_back"}
    assert calls and calls == guarded
    assert {name for name, _ in calls} == {"ledger.py"}
