"""The package surface: which modules an import loads, the lazy public
namespace, the immutability of the value records, and the names the
benchmark harness reaches into."""

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
from rpoolsim.ledger import Account, Case, UnsettledRecord
from rpoolsim.oracle import ConstantRiskModel, RatingEntity, RiskReport, TaintAwareRiskModel
from rpoolsim.orderbook import Bid, Fill
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
        (UnsettledRecord(settlement_time=10, transfer_id=1, amount=5), "frozen_amount"),
        (
            Bid(bid_id=1, bidder="alice", amount=5, min_rate_ppm=0, expiry=10, nonce_at_post=0),
            "status",
        ),
        (Case(marks=()), "status"),
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
        TaintAwareRiskModel(set(), 500_000),
        RatingEntity("rater", b"", ConstantRiskModel(500_000)),
        Bid(bid_id=1, bidder="alice", amount=5, min_rate_ppm=0, expiry=10, nonce_at_post=0),
        ScenarioScript(),
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
