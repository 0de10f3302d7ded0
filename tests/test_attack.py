"""LP-shorting attack lab: the integer model, the exact-rational bounds,
the cap-safety rule, and agreement with the live end-to-end replay."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpoolsim import (
    AttackScenario,
    ConstantRiskModel,
    TaintAwareRiskModel,
    World,
    end_to_end_attack_replay,
    exact_profit,
    exact_threshold,
    is_cap_safe,
    profitability_threshold,
    simulate_attack,
)
from rpoolsim.attack import _pre_swap_world
from rpoolsim.errors import InvalidScenario, OutOfRiskBounds
from rpoolsim.rates import PPM

from conftest import criterion6_grid, full_state


def scn(pool_total=1000, lp_supply=1000, collateral=100, shorted=100, stolen=1000, rate_ppm=950000):
    return AttackScenario(pool_total, lp_supply, collateral, shorted, stolen, rate_ppm)


class TestScenarioValidation:
    def test_short_cannot_exceed_supply(self):
        with pytest.raises(InvalidScenario, match="short must be between 0 and the LP supply"):
            scn(shorted=1001)
        with pytest.raises(InvalidScenario, match="short must be between 0 and the LP supply"):
            scn(shorted=-1)
        scn(shorted=0)  # no short at all is legal

    def test_rate_bounds(self):
        with pytest.raises(InvalidScenario, match=r"rate must lie in \[0, 1\]"):
            scn(rate_ppm=PPM + 1)
        with pytest.raises(InvalidScenario, match=r"rate must lie in \[0, 1\]"):
            scn(rate_ppm=-1)
        scn(rate_ppm=0)  # an oracle quoting zero is legal
        scn(rate_ppm=PPM)

    def test_collateral_cannot_be_negative(self):
        with pytest.raises(InvalidScenario, match="collateral cannot be negative"):
            scn(collateral=-1)
        scn(collateral=0)

    def test_rules_run_in_order(self):
        # every field is out of range: the first rule in the list reports it
        with pytest.raises(InvalidScenario, match="pool total and LP supply must be positive"):
            scn(pool_total=0, lp_supply=-1, collateral=-1, shorted=-1, stolen=0, rate_ppm=-1)
        with pytest.raises(InvalidScenario, match="pool total cannot exceed LP supply"):
            scn(pool_total=2, lp_supply=1, collateral=-1, shorted=-1, stolen=0, rate_ppm=-1)
        with pytest.raises(InvalidScenario, match="short must be between"):
            scn(collateral=-1, shorted=-1, stolen=0, rate_ppm=-1)
        with pytest.raises(InvalidScenario, match="collateral cannot be negative"):
            scn(collateral=-1, stolen=0, rate_ppm=-1)
        with pytest.raises(InvalidScenario, match="stolen amount must be positive"):
            scn(stolen=0, rate_ppm=-1)

    def test_keyword_construction(self):
        scenario = AttackScenario(
            rate_ppm=950000, stolen=1000, shorted=100, collateral=100, lp_supply=1000,
            pool_total=900,
        )
        assert scenario == scn(pool_total=900)
        assert (scenario.pool_total, scenario.lp_supply, scenario.rate_ppm) == (900, 1000, 950000)
        with pytest.raises(TypeError):
            AttackScenario(pool_total=900, lp_supply=1000)

    def test_a_replaced_copy_is_checked_too(self):
        assert scn()._replace(stolen=7).stolen == 7
        with pytest.raises(InvalidScenario, match="stolen amount must be positive"):
            scn()._replace(stolen=0)

    def test_borrow_limit_flag(self):
        assert scn(collateral=100, shorted=100).borrow_limit_respected
        assert not scn(collateral=100, shorted=101).borrow_limit_respected


class TestSimulateAttack:
    def test_high_rate_beats_plain_theft(self):
        out = simulate_attack(scn(rate_ppm=950000))
        assert (out.swap_out, out.sale_proceeds, out.buyback_cost) == (950, 100, 5)
        assert out.profit == 1045
        assert out.exceeds_stolen
        # consistent with the threshold: 0.95 > 1000/1100
        assert Fraction(950000, PPM) > exact_threshold(1000, 100)

    def test_capped_rate_does_not(self):
        out = simulate_attack(scn(rate_ppm=500000))
        assert (out.swap_out, out.sale_proceeds, out.buyback_cost) == (500, 100, 50)
        assert out.profit == 550
        assert not out.exceeds_stolen

    def test_zero_rate_zero_profit(self):
        out = simulate_attack(scn(collateral=1000, shorted=1000, rate_ppm=0))
        assert out.swap_out == 0
        assert out.sale_proceeds == out.buyback_cost  # spot price unmoved
        assert out.profit == 0

    def test_collateral_bound_holds_at_borrow_limit(self):
        out = simulate_attack(scn())
        assert out.meets_collateral_bound is True


class TestThreshold:
    def test_short_everything_is_one_half(self):
        for supply in (1, 10, 1000, 10**6):
            assert profitability_threshold(supply, supply) == 500000

    def test_short_tenth_is_ninety_one_percent(self):
        assert profitability_threshold(10**6, 10**5) == 909090
        assert profitability_threshold(10, 1) == 909090

    def test_tiny_short_approaches_one(self):
        assert profitability_threshold(10**6, 1) == 999999


class TestCapSafety:
    def test_half_cap_safe_when_everything_shortable(self):
        assert is_cap_safe(500000, PPM)

    def test_ninety_one_unsafe_for_tenth(self):
        assert not is_cap_safe(910000, 100000)

    def test_ninety_safe_for_tenth(self):
        assert is_cap_safe(900000, 100000)

    def test_equality_is_safe(self):
        # profitability is strict, so a cap exactly at 1/(1+f) is safe
        assert is_cap_safe(500000, PPM)
        assert not is_cap_safe(500001, PPM)

    @pytest.mark.parametrize("fraction_ppm", [0, PPM + 1])
    def test_short_fraction_outside_zero_to_one_rejected(self, fraction_ppm):
        with pytest.raises(ValueError, match=r"short fraction must be in \(0, 1\]"):
            is_cap_safe(500000, fraction_ppm)

    def test_bounded_exhaustive_up_to_eight_lp_tokens(self):
        # every pool total, short and theft with lp_supply <= 8, at rates 0
        # and PPM and one ppm around the threshold's floor and ceiling
        checked = 0
        for lp_supply in range(1, 9):
            for pool_total in range(1, lp_supply + 1):
                for shorted in range(1, lp_supply + 1):
                    threshold = exact_threshold(lp_supply, shorted)
                    floor = threshold.numerator * PPM // threshold.denominator
                    ceil = -(-threshold.numerator * PPM // threshold.denominator)
                    near = (floor - 1, floor, floor + 1, ceil - 1, ceil, ceil + 1)
                    rates = sorted({0, PPM, *(r for r in near if 0 <= r <= PPM)})
                    for stolen in range(1, pool_total + 1):
                        for rate_ppm in rates:
                            s = AttackScenario(pool_total, lp_supply, 0, shorted, stolen, rate_ppm)
                            above = Fraction(rate_ppm, PPM) > threshold
                            assert (exact_profit(s) > stolen) == above, s
                            if not above:
                                assert simulate_attack(s).profit <= stolen, s
                                assert end_to_end_attack_replay(s).profit <= stolen, s
                            checked += 1
        assert checked == 4209


class TestExactBounds:
    def test_soundness_and_tightness_on_a_grid(self):
        supplies = [3, 10, 97, 1000, 4096, 10**6]
        for lp_supply in supplies:
            for shorted in {1, lp_supply // 7 or 1, lp_supply // 2 or 1, lp_supply}:
                threshold = exact_threshold(lp_supply, shorted)
                for pool_total in {1, lp_supply // 3 or 1, lp_supply}:
                    scenario = AttackScenario(
                        pool_total, lp_supply, 10, shorted, 1000, 500000
                    )
                    at = exact_profit(scenario, rate=threshold)
                    below = exact_profit(scenario, rate=threshold * Fraction(9, 10))
                    above = exact_profit(scenario, rate=threshold * Fraction(11, 10))
                    assert at <= scenario.stolen
                    assert below <= scenario.stolen
                    if threshold * Fraction(11, 10) <= 1:
                        assert above > scenario.stolen

    def test_integer_model_never_overstates_the_rationals(self):
        # floor the proceeds, ceil the cost: the integer profit sits within
        # (exact - 4, exact], so safety conclusions transfer
        for rate_ppm in range(0, PPM + 1, 73171):
            scenario = scn(collateral=1000, shorted=317, rate_ppm=rate_ppm)
            integer = simulate_attack(scenario).profit
            rational = exact_profit(scenario)
            assert rational - 4 < integer <= rational

    def test_profit_monotone_in_rate_and_short(self):
        profits = [
            exact_profit(scn(collateral=1000, shorted=500, rate_ppm=r))
            for r in range(0, PPM + 1, 50000)
        ]
        assert profits == sorted(profits)
        by_short = [
            exact_profit(scn(collateral=1000, shorted=s, rate_ppm=400000))
            for s in range(1, 1001, 37)
        ]
        assert by_short == sorted(by_short)


def _stepwise_profit(scenario, rate=None):
    """x + b - m computed leg by leg: the swap payout, the short sale at the
    pre-attack price, and the buy-back at the post-recovery price."""
    if rate is None:
        rate = Fraction(scenario.rate_ppm, PPM)
    total = Fraction(scenario.pool_total)
    swap_out = Fraction(scenario.stolen) * rate
    sale = Fraction(scenario.shorted) * total / scenario.lp_supply
    buyback = Fraction(scenario.shorted) * (total - swap_out) / scenario.lp_supply
    return swap_out + sale - buyback


class TestExactProfitClosedForm:
    """exact_profit builds stolen*rate*(L+shorted)/L as one fraction; the
    leg-by-leg x + b - m is its oracle, in value and in printed form."""

    def test_criterion6_grid(self):
        checked = 0
        for scenario, rate in criterion6_grid():
            for r in (rate, None):
                closed, stepwise = exact_profit(scenario, r), _stepwise_profit(scenario, r)
                assert closed == stepwise and str(closed) == str(stepwise), (scenario, r)
            checked += 1
        assert checked >= 10_000, checked

    @settings(max_examples=400, deadline=None)
    @given(
        lp_supply=st.integers(1, 10**12),
        data=st.data(),
        stolen=st.integers(1, 10**12),
        rate_ppm=st.integers(0, PPM),
        rate=st.none() | st.fractions(min_value=0, max_value=1),
    )
    def test_matches_the_stepwise_profit(self, lp_supply, data, stolen, rate_ppm, rate):
        pool_total = data.draw(st.integers(1, lp_supply))
        shorted = data.draw(st.integers(0, lp_supply))
        scenario = AttackScenario(pool_total, lp_supply, 0, shorted, stolen, rate_ppm)
        closed, stepwise = exact_profit(scenario, rate), _stepwise_profit(scenario, rate)
        assert closed == stepwise
        assert str(closed) == str(stepwise)


class TestEndToEndReplay:
    def test_matches_analytic_exactly_on_the_worked_example(self):
        scenario = scn(rate_ppm=950000)
        assert end_to_end_attack_replay(scenario) == simulate_attack(scenario)

    def test_prior_recovery_pools_replay_too(self):
        scenario = AttackScenario(700, 1000, 100, 100, 500, 800000)
        assert end_to_end_attack_replay(scenario) == simulate_attack(scenario)

    def test_rate_cap_keeps_profit_below_baseline(self):
        scenario = scn(rate_ppm=950000)
        live = end_to_end_attack_replay(scenario, rate_cap_ppm=500000)
        assert live.swap_out == 500
        assert live.profit < scenario.stolen

    def test_taint_aware_oracle_rejects_the_swap(self):
        scenario = scn(rate_ppm=950000)
        # the replay marks its theft tainted, so the thief is quoted 0
        model = TaintAwareRiskModel(950000)
        with pytest.raises(OutOfRiskBounds):
            end_to_end_attack_replay(
                scenario, risk_bounds=(100000, PPM), model=model
            )
        # model-side: with no swap the short legs cancel at unmoved spot
        no_swap = simulate_attack(scn(collateral=1000, shorted=1000, rate_ppm=0))
        assert no_swap.profit == 0

    def test_prior_recovery_runs_under_bounds_that_exclude_one(self):
        # the set-up swap quotes 1; the bounds bind only the attack's 0.8
        scenario = AttackScenario(700, 1000, 100, 100, 500, 800000)
        live = end_to_end_attack_replay(scenario, risk_bounds=(0, 900000))
        assert live == end_to_end_attack_replay(scenario)
        assert live == simulate_attack(scenario)

    @pytest.mark.parametrize(
        "options, error, message",
        [
            ({"risk_bounds": (0, PPM + 1)}, ValueError, "outside"),
            ({"risk_bounds": (-1, PPM)}, ValueError, "outside"),
            ({"risk_bounds": (600000, 500000)}, ValueError, "risk bounds out of order"),
            ({"rate_cap_ppm": PPM + 1}, ValueError, "outside"),
            ({"rate_cap_ppm": 0.5}, TypeError, "integer ppm"),
        ],
    )
    def test_bounds_and_cap_are_checked_before_any_work(self, options, error, message):
        calls = _pre_swap_world.cache_info()
        with pytest.raises(error, match=message):
            end_to_end_attack_replay(AttackScenario(3, 5, 1, 1, 1, 0), **options)
        assert _pre_swap_world.cache_info() == calls  # the cache was not consulted

    @pytest.mark.parametrize(
        "scenario", [scn(rate_ppm=950000), AttackScenario(700, 1000, 100, 100, 500, 800000)]
    )
    def test_cached_template_is_never_written_to(self, scenario):
        # the taint-aware replay raises part-way, at the swap after the cached
        # theft; then two replays on the same key succeed, and the second
        # sees what the first saw
        model = TaintAwareRiskModel(950000)
        with pytest.raises(OutOfRiskBounds):
            end_to_end_attack_replay(scenario, risk_bounds=(100000, PPM), model=model)
        assert end_to_end_attack_replay(scenario) == end_to_end_attack_replay(scenario)
        # a capped and a bounded replay set only their own copy's pool
        capped = scenario._replace(rate_ppm=min(scenario.rate_ppm, 500_000))
        assert end_to_end_attack_replay(scenario, rate_cap_ppm=500_000) == simulate_attack(capped)
        if scenario.rate_ppm > 900_000:
            with pytest.raises(OutOfRiskBounds):
                end_to_end_attack_replay(scenario, risk_bounds=(0, 900_000))
        else:
            bounded = end_to_end_attack_replay(scenario, risk_bounds=(0, 900_000))
            assert bounded == simulate_attack(scenario)
        key = scenario.pool_total, scenario.lp_supply, scenario.stolen
        template = _pre_swap_world(*key)
        pool = template.pools["pool"]
        assert (pool.rate_cap_ppm, pool.risk_bounds) == (PPM, (0, PPM))
        assert end_to_end_attack_replay(scenario) == simulate_attack(scenario)
        fresh = _pre_swap_world.__wrapped__(*key)
        assert full_state(template) == full_state(fresh)
        worked = scn(rate_ppm=950000)
        assert end_to_end_attack_replay(worked) == simulate_attack(worked)

    def test_one_criterion6_cell_builds_its_template_once(self, monkeypatch):
        # the 25 rates of one cell share a key; each replay's copy journals
        # only the swap (transfer in, unwrap out), the freeze and the recovery
        cell = [
            s for s, _ in criterion6_grid()
            if (s.lp_supply, s.shorted, s.pool_total) == (999, 333, 499)
        ]
        assert len(cell) == 25
        copies = []
        copy = World.copy

        def recording_copy(world):
            new = copy(world)
            copies.append((new, new.ledger.mark()))
            return new

        monkeypatch.setattr(World, "copy", recording_copy)
        _pre_swap_world.cache_clear()
        for scenario in cell:
            assert end_to_end_attack_replay(scenario) == simulate_attack(scenario)
        assert _pre_swap_world.cache_info()[:2] == (24, 1)  # (hits, misses)
        assert len(copies) == 25
        for (world, mark), scenario in zip(copies, cell):
            entries = world.base.journal[mark:]
            kinds = [entry[0] for entry in entries]
            paid = ["base_transfer", "unwrap"] if scenario.rate_ppm else []
            assert kinds == ["transfer", *paid, "freeze", "recover"], kinds
            swap_in = entries[0]
            assert (swap_in.sender, swap_in.recipient) == ("marvin", "pool")
            assert swap_in.amount == scenario.stolen

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_both_models_refuse_or_agree_over_the_whole_scenario_space(self, data):
        # the payout may exceed the pool: then both refuse the scenario
        lp_supply = data.draw(st.integers(1, 10**9), label="lp_supply")
        scenario = AttackScenario(
            pool_total=data.draw(st.integers(1, lp_supply), label="pool_total"),
            lp_supply=lp_supply,
            collateral=data.draw(st.integers(0, 10**9), label="collateral"),
            shorted=data.draw(st.integers(0, lp_supply), label="shorted"),
            stolen=data.draw(st.integers(1, 10**9), label="stolen"),
            rate_ppm=data.draw(st.integers(0, PPM), label="rate_ppm"),
        )
        outcomes = []
        for model in (simulate_attack, end_to_end_attack_replay):
            try:
                outcomes.append(model(scenario))
            except InvalidScenario:
                outcomes.append(InvalidScenario)
        assert outcomes[0] == outcomes[1]

    def test_randomized_agreement_is_exact(self):
        import random

        rng = random.Random(20260809)
        for _ in range(40):
            lp_supply = rng.randrange(10, 5000)
            pool_total = rng.randrange(max(1, lp_supply // 2), lp_supply + 1)
            shorted = rng.randrange(1, lp_supply + 1)
            stolen = rng.randrange(1, 2000)
            # keep the payout within pool capacity
            rate_ppm = rng.randrange(0, min(PPM, pool_total * PPM // stolen) + 1)
            scenario = AttackScenario(
                pool_total, lp_supply, rng.randrange(0, 5000), shorted, stolen, rate_ppm
            )
            assert end_to_end_attack_replay(scenario) == simulate_attack(scenario)


class TestReplayUsesConstantModel:
    def test_permissive_model_quote_matches_rate(self):
        model = ConstantRiskModel(123456)
        assert model.quote(None, "anyone", 1, 0) == 123456
