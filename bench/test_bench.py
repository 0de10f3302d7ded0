"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
sys.path.append(str(HERE.parent / "tests"))

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_wide(seed: int = 3) -> gen.WideScenario:
    return gen.scenario_wide(seed, accounts=30, scale=10)


def small_pool(seed: int = 3) -> gen.PoolDeepPlan:
    return gen.pool_deep(seed, users=20, warmup=200, swaps=200, bids=10, lp_ops=5,
                         chains=5, window=2_000)


@pytest.mark.parametrize("make", [small_wide, small_pool,
                                  lambda seed=3: gen.attack_sweep(seed, supplies=[7, 1000])])
def test_same_seed_same_bytes(make):
    assert gen.serialize(make(5)) == gen.serialize(make(5))
    assert gen.serialize(make(5)) != gen.serialize(make(6))


def test_full_size_inputs_have_their_stated_shape():
    wide = gen.scenario_wide(0)
    assert wide.accounts == 500
    assert 1400 <= wide.steps * workloads.ScenarioWide.CALLS <= 1600
    assert wide.rejects == gen.WIDE_MIX["stale_swap"] and 0.04 < wide.rejects / wide.steps < 0.06
    assert len(gen.attack_sweep(0)) == 12_600


def run_rep(work, tally):
    work.setup()
    return work.rep(tally)


def test_clean_runs_pass_and_repeat(tmp_path):
    for work in (workloads.ScenarioWide(small_wide(), tmp_path), workloads.PoolDeep(small_pool())):
        tally = workloads.Tally()
        first, second = run_rep(work, tally), run_rep(work, tally)
        assert tally.failed == 0, tally.notes
        run.check_digests([first, second], None, tally)
        assert tally.failed == 0


def test_planted_digest_mismatch_fails_the_run(tmp_path):
    tally = workloads.Tally()
    rep = run_rep(workloads.ScenarioWide(small_wide(), tmp_path), tally)
    assert tally.failed == 0
    assert "MISMATCH" in run.check_digests([rep], "0" * 64, tally)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0


def test_planted_unexpected_rejection_fails_the_run(tmp_path):
    wide = small_wide()
    wide.text += "at 999999 unwrap account=u0000 amount=999999999999\n"
    tally = workloads.Tally()
    run_rep(workloads.ScenarioWide(wide, tmp_path), tally)
    assert tally.failed >= 1
    assert any("InsufficientSettled" in note for note in tally.notes)

    plan = small_pool()
    stale = next(i for i, op in enumerate(plan.ops) if op[1] == "swap" and op[4] != "ok")
    plan.ops[stale] = plan.ops[stale][:4] + ("ok",)
    tally = workloads.Tally()
    run_rep(workloads.PoolDeep(plan), tally)
    assert tally.failed == 1 and "StaleNonce, expected ok" in tally.notes[0]


def test_self_time_on_a_synthetic_span_tree():
    #   a [0, 100]
    #     b [10, 40]
    #       c [15, 25]
    #     b [50, 90]
    #   c [200, 210]
    tree = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 15, 25, 1),
            ("b", 50, 90, 0), ("c", 200, 210, -1)]
    assert spans.self_times(*zip(*tree)) == {"a": 30, "b": 60, "c": 20}


def traced_rep(work):
    """Set up untraced, then trace one repetition, as ``run.py --trace 1`` does."""
    tally = workloads.Tally()
    work.setup()
    tracer = spans.Tracer()
    with tracer:
        rep = work.rep(tally)
    assert tally.failed == 0, tally.notes
    return tracer, rep


def test_tracer_records_nested_spans_and_restores_the_program():
    import rpoolsim.amm
    import rpoolsim.oracle
    from rpoolsim.ledger import WrapperLedger

    original = WrapperLedger.settle_view
    tracer = spans.Tracer()
    with tracer:
        assert rpoolsim.amm.validate_reports is rpoolsim.oracle.validate_reports
        assert rpoolsim.amm.validate_reports.__wrapped__ is not None
        run_rep(workloads.PoolDeep(small_pool()), workloads.Tally())
    assert WrapperLedger.settle_view is original
    assert not hasattr(rpoolsim.amm.validate_reports, "__wrapped__")
    calls = tracer.calls()
    assert calls["amm.swap"] == calls["oracle.validate_reports"] > 0
    tree = list(tracer.spans())
    nested = [s for s in tree if s[0] == "oracle.validate_reports"]
    assert all(tree[parent][0] == "amm.swap" for _, _, _, parent in nested)
    assert tracer.rejected["oracle.validate_reports", "StaleNonce"] == 10


def test_traced_pool_deep_counts_the_programs_calls_alone():
    # The harness's fingerprints, digest and invariant gate run untraced:
    # every pool_state call comes from an accepted swap or an LP op.
    tracer, _ = traced_rep(workloads.PoolDeep(small_pool()))
    calls = tracer.calls()
    accepted = calls["amm.swap"] - tracer.rejected["amm.swap", "StaleNonce"]
    assert accepted == 190
    assert calls["amm.pool_state"] == accepted + calls["amm.deposit"] + calls["amm.withdraw"]
    assert calls["ledger.check_invariants"] == 0


def test_settle_view_calls_per_step_counts_each_account_twice(tmp_path):
    # The runner snapshots every account before and after each step.
    work = workloads.ScenarioWide(small_wide(), tmp_path)
    tracer, rep = traced_rep(work)
    values, _ = run.per_layer(work, tracer, [rep], [rep])
    accounts = work.inputs.accounts + gen.WIDE_SIGNERS + 1  # users, signers, the pool
    assert 2 * accounts - 2 <= values["ledger.settle_view.calls_per_step"] <= 2 * accounts + 1
