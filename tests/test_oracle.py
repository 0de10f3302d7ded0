"""Report encoding, signatures, the median, and the nine-check validation."""

import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpoolsim import (
    ConstantRiskModel,
    RatingEntity,
    SignerRegistry,
    TaintAwareRiskModel,
    World,
    canonical_encode,
    issue_report,
    median_quote,
    validate_reports,
)
from rpoolsim.errors import (
    BadExpiry,
    BadSignature,
    DuplicateSigner,
    EmptyQuoteSet,
    RPoolError,
    OutOfRiskBounds,
    QuorumTooSmall,
    ReportExpired,
    RequestMismatch,
    SignerNotAuthorized,
    SignerNotLp,
    StaleNonce,
    UnknownSigner,
)
from rpoolsim.oracle import RiskReport

from conftest import give_unsettled, make_pool


class TestCanonicalEncode:
    def test_deterministic(self):
        a = canonical_encode("alice", 100, 5, 900, 600000, "s1")
        b = canonical_encode("alice", 100, 5, 900, 600000, "s1")
        assert a == b

    def test_quote_sits_at_its_offset(self):
        a = canonical_encode("alice", 100, 5, 900, 600000, "s1")
        b = canonical_encode("alice", 100, 5, 900, 600001, "s1")
        offset = 4 + 16 + 8 + 8  # requestor length, amount, nonce, expiry
        assert a[:offset] == b[:offset]
        assert a[offset : offset + 4] != b[offset : offset + 4]
        assert a[offset + 4 :] == b[offset + 4 :]

    def test_sign_verify_round_trip(self):
        registry = SignerRegistry()
        secret, public = registry.scheme.keygen("s1")
        message = canonical_encode("alice", 100, 5, 900, 600000, "s1")
        signature = registry.scheme.sign(secret, message)
        assert registry.scheme.verify(public, message, signature)

    def test_tamper_evidence(self):
        registry = SignerRegistry()
        secret, public = registry.scheme.keygen("s1")
        message = canonical_encode("al", 7, 1, 44, 123456, "s2")
        signature = registry.scheme.sign(secret, message)
        for i in range(len(message)):
            tampered = bytearray(message)
            tampered[i] ^= 0x01
            assert not registry.scheme.verify(public, bytes(tampered), signature)


    @pytest.mark.parametrize(
        "first, second",
        [
            (("a", 10, 3, 60, 900000, "sig1"), ("a\x00", 2560, 768, 15360, 230400115, "ig1")),
            (("a\x00", 5, 7, 9, 0x41, "zz"), ("a", 0, 5 << 56, 7 << 56, 9 << 24, "Azz")),
        ],
    )
    def test_reports_sharing_bytes_without_length_prefixes_differ(self, first, second):
        # joined without lengths, the requestor's tail and the signer's
        # head slid into the integer fields and both encoded alike
        unprefixed = [
            f[0].encode()
            + f[1].to_bytes(16, "big")
            + f[2].to_bytes(8, "big")
            + f[3].to_bytes(8, "big")
            + f[4].to_bytes(4, "big")
            + f[5].encode()
            for f in (first, second)
        ]
        assert unprefixed[0] == unprefixed[1]
        assert canonical_encode(*first) != canonical_encode(*second)

    @settings(max_examples=300, deadline=None)
    @given(
        requestor=st.text(),
        amount=st.integers(0, 2**128 - 1),
        account_nonce=st.integers(0, 2**64 - 1),
        expiry=st.integers(0, 2**64 - 1),
        quote_ppm=st.integers(0, 2**32 - 1),
        signer_id=st.text(),
    )
    def test_bytes_decode_to_exactly_one_report(
        self, requestor, amount, account_nonce, expiry, quote_ppm, signer_id
    ):
        fields = (requestor, amount, account_nonce, expiry, quote_ppm, signer_id)
        assert _decode(canonical_encode(*fields)) == fields

    @pytest.mark.parametrize(
        "field, value",
        [
            ("amount", -1),
            ("amount", 2**128),
            ("account_nonce", 2**64),
            ("expiry", -1),
            ("quote_ppm", 2**32),
            ("requestor", "\ud800"),
        ],
    )
    def test_field_outside_its_width_is_a_value_error(self, field, value):
        fields = dict(
            requestor="alice", amount=1, account_nonce=0, expiry=1, quote_ppm=0, signer_id="s"
        )
        fields[field] = value
        with pytest.raises(ValueError):
            canonical_encode(**fields)


def _decode(encoded: bytes) -> tuple:
    """Split canonical bytes back into the six signed fields."""
    head = struct.Struct(">IQQQQII")
    r_len, hi, lo, nonce, expiry, quote, s_len = head.unpack_from(encoded)
    rest = encoded[head.size :]
    assert len(rest) == r_len + s_len
    return (
        rest[:r_len].decode(), (hi << 64) | lo, nonce, expiry, quote, rest[r_len:].decode()
    )


class TestMedian:
    def test_odd(self):
        assert median_quote([500000, 900000, 600000]) == 600000

    def test_even_floored_mean(self):
        assert median_quote([400000, 800000]) == 600000
        assert median_quote([1, 2]) == 1

    def test_singleton(self):
        assert median_quote([700000]) == 700000

    def test_empty(self):
        with pytest.raises(EmptyQuoteSet):
            median_quote([])


class TestIssueReport:
    def test_constant_model_quote(self, world):
        make_pool(world)
        entity = world.add_signer("e", ConstantRiskModel(600000))
        report = issue_report(entity, world.registry, "alice", 100, 0, 60, world.ledger)
        assert report.quote_ppm == 600000
        assert report.expiry == 60

    def test_taint_aware_quotes_zero(self, world):
        base, ledger = world.base, world.ledger
        tainted_id = give_unsettled(base, ledger, "mallory", 100, now=0)
        registry = world.registry
        entity = world.add_signer("e", TaintAwareRiskModel({tainted_id}, 800000))
        report = issue_report(entity, registry, "mallory", 100, 0, 60, ledger)
        assert report.quote_ppm == 0
        clean = issue_report(entity, registry, "saint", 100, 0, 60, ledger)
        assert clean.quote_ppm == 800000

    def test_nonce_binds_issue_time_state(self, world):
        base, ledger = world.base, world.ledger
        entity = world.add_signer("e", ConstantRiskModel(500000))
        for _ in range(3):
            report = issue_report(entity, world.registry, "alice", 10, 0, 60, ledger)
            assert report.account_nonce == ledger.nonce("alice")
            give_unsettled(base, ledger, "alice", 10, now=0)

    def test_unknown_signer(self, world):
        # an entity whose key was never registered: add_signer would register it
        secret, _ = world.registry.scheme.keygen("ghost")
        entity = RatingEntity("ghost", secret, ConstantRiskModel(1))
        with pytest.raises(UnknownSigner):
            issue_report(entity, world.registry, "alice", 1, 0, 60, world.ledger)

    @pytest.mark.parametrize("ttl", [0, -1])
    def test_non_positive_ttl_is_a_modelled_rejection(self, world, ttl):
        entity = world.add_signer("e", ConstantRiskModel(1))
        with pytest.raises(BadExpiry):
            issue_report(entity, world.registry, "alice", 1, 0, ttl, world.ledger)


def _reports(pool, rater, ledger, requestor="alice", amount=100, now=0, n=1, ttl=600):
    return [
        issue_report(rater, pool.registry, requestor, amount, now, ttl, ledger)
        for _ in range(n)
    ]


class TestValidateReports:
    def test_happy_path_returns_median(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world, min_quorum=1)
        reports = _reports(pool, rater, ledger)
        assert validate_reports(pool, "alice", 100, reports, 0) == 500000

    def test_three_signer_median(self, world):
        ledger = world.ledger
        pool, _ = make_pool(
            world,
            lp_deposits=(("s1", 100), ("s2", 100), ("s3", 100)),
            min_quorum=3,
            risk_bounds=(400000, 1000000),
        )
        reports = []
        for name, rate in (("s1", 500000), ("s2", 600000), ("s3", 900000)):
            entity = world.add_signer(name, ConstantRiskModel(rate))
            reports.append(issue_report(entity, world.registry, "alice", 100, 0, 60, ledger))
        assert validate_reports(pool, "alice", 100, reports, 0) == 600000

    def test_order_independence(self, world):
        ledger = world.ledger
        pool, _ = make_pool(
            world,
            lp_deposits=(("s1", 100), ("s2", 100), ("s3", 100)),
            min_quorum=3,
        )
        reports = []
        for name, rate in (("s1", 100000), ("s2", 700000), ("s3", 400000)):
            entity = world.add_signer(name, ConstantRiskModel(rate))
            reports.append(issue_report(entity, world.registry, "alice", 100, 0, 60, ledger))
        medians = {
            validate_reports(pool, "alice", 100, list(perm), 0)
            for perm in itertools.permutations(reports)
        }
        assert medians == {400000}

    @pytest.mark.parametrize("checks", ["stale nonce before expiry", "authorization before signature"])
    def test_earlier_check_wins_in_every_order(self, world, checks):
        # two reports each fail a different check, a third is valid: every
        # order of the three raises the earlier check's error
        ledger = world.ledger
        pool, s1 = make_pool(
            world, lp_deposits=(("s1", 100), ("s2", 100), ("s3", 100)), min_quorum=2
        )
        if checks == "stale nonce before expiry":
            s2 = world.add_signer("s2", ConstantRiskModel(500000))
            s3 = world.add_signer("s3", ConstantRiskModel(500000))
            stale = issue_report(s1, world.registry, "alice", 100, 0, 600, ledger)
            give_unsettled(world.base, ledger, "alice", 1, now=0)  # nonce moves
            expired = issue_report(s2, world.registry, "alice", 100, 0, 5, ledger)
            valid = issue_report(s3, world.registry, "alice", 100, 0, 600, ledger)
            first, second = stale, expired
            errors = StaleNonce, ReportExpired
        else:
            s2 = world.add_signer("s2", ConstantRiskModel(500000), authorized=False)
            s3 = world.add_signer("s3", ConstantRiskModel(500000))
            unauthorized = issue_report(s2, world.registry, "alice", 100, 0, 600, ledger)
            signed = issue_report(s3, world.registry, "alice", 100, 0, 600, ledger)
            values = {name: getattr(signed, name) for name in RiskReport.__slots__}
            forged = RiskReport(**{**values, "quote_ppm": signed.quote_ppm + 1})
            valid = issue_report(s1, world.registry, "alice", 100, 0, 600, ledger)
            first, second = unauthorized, forged
            errors = SignerNotAuthorized, BadSignature
        for failing, error in zip((first, second), errors):  # each fails alone
            with pytest.raises(error):
                validate_reports(pool, "alice", 100, [failing, valid], 5)
        raised = set()
        for perm in itertools.permutations([first, second, valid]):
            with pytest.raises(RPoolError) as info:
                validate_reports(pool, "alice", 100, list(perm), 5)
            raised.add(type(info.value))
        assert raised == {errors[0]}

    def test_quorum_too_small(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world, min_quorum=3)
        reports = _reports(pool, rater, ledger)
        with pytest.raises(QuorumTooSmall):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_duplicate_signer(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, n=2)
        with pytest.raises(DuplicateSigner):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_signer_not_lp(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world, min_lp_deposit=500)
        reports = _reports(pool, rater, ledger)
        with pytest.raises(SignerNotLp):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_signer_not_authorized(self, world):
        # lp2 holds a full deposit but its key is registered unauthorized
        pool, _ = make_pool(world)
        lp2 = world.add_signer("lp2", ConstantRiskModel(500000), authorized=False)
        reports = _reports(pool, lp2, world.ledger)
        with pytest.raises(SignerNotAuthorized):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_stale_nonce_after_any_touch(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger)
        give_unsettled(base, ledger, "alice", 1, now=0)  # nonce moves
        with pytest.raises(StaleNonce):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_expiry_is_strict(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, ttl=60)
        assert validate_reports(pool, "alice", 100, reports, 59) == 500000
        with pytest.raises(ReportExpired):
            validate_reports(pool, "alice", 100, reports, 60)

    def test_request_mismatch(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, amount=100)
        with pytest.raises(RequestMismatch):
            validate_reports(pool, "alice", 999, reports, 0)
        with pytest.raises(RequestMismatch):
            validate_reports(pool, "bob", 100, reports, 0)

    def test_bad_signature(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        (report,) = _reports(pool, rater, ledger)
        forged = RiskReport(
            report.requestor,
            report.amount,
            report.account_nonce,
            report.expiry,
            report.quote_ppm + 1,  # quote inflated after signing
            report.signer_id,
            report.signature,
        )
        with pytest.raises(BadSignature):
            validate_reports(pool, "alice", 100, [forged], 0)

    @pytest.mark.parametrize(
        "field, value",
        [("quote_ppm", -1), ("quote_ppm", 2**32), ("expiry", 2**64)],
    )
    def test_unencodable_field_is_a_bad_signature(self, world, field, value):
        # canonical_encode cannot write the field, so no signature covers it
        ledger = world.ledger
        pool, rater = make_pool(world)
        (report,) = _reports(pool, rater, ledger)
        values = {name: getattr(report, name) for name in RiskReport.__slots__}
        forged = RiskReport(**{**values, field: value})
        with pytest.raises(BadSignature):
            validate_reports(pool, "alice", 100, [forged], 0)

    def test_median_outside_bounds(self, world):
        ledger = world.ledger
        pool, rater = make_pool(
            world, risk_bounds=(600000, 1000000), rater_rate_ppm=500000
        )
        reports = _reports(pool, rater, ledger)
        with pytest.raises(OutOfRiskBounds):
            validate_reports(pool, "alice", 100, reports, 0)


def _full_scan_quote(model, ledger, requestor, now):
    """The taint quote by scanning every record the requestor holds: a
    tainted record counts while it is not yet due or still in part frozen."""
    acct = ledger.accounts.get(requestor)
    if acct is not None:
        for rec in acct.unsettled:
            if rec.transfer_id in model.tainted_transfer_ids and (
                rec.settlement_time > now or rec.frozen_amount
            ):
                return 0
    return model.clean_rate_ppm


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([0, 1, 50]))
def test_taint_quote_matches_a_full_scan(seed, window):
    """Looking up each tainted transfer's record rates every holder as the
    full scan does, through spends, settlement, freezes, recovery, a clock
    that moves backwards, and tainted ids outside the transfer log."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    world = World(recovery_window=window, arbitrator="arb")
    base, ledger = world.base, world.ledger
    for name in names:
        base.mint(name, 300)
        ledger.wrap(name, 100, 0)
    for step in range(40):
        now = rng.randrange(-20, 120)
        who, other = rng.sample(names, 2)
        amount = rng.randrange(1, 40)
        kind = rng.randrange(5)
        try:
            if kind == 0:
                ledger.transfer(who, other, amount, rng.random() < 0.7, now)
            elif kind == 1:
                ledger.transfer_unsettled(who, other, amount, now)
            elif kind == 2:
                ledger.freeze("arb", [(who, amount)], f"case{step}", now)
            elif kind == 3:
                active = [c for c, case in ledger.cases.items() if case.status == "active"]
                if active:
                    ledger.recover("arb", rng.choice(active), other, now)
            else:
                active = [c for c, case in ledger.cases.items() if case.status == "active"]
                if active:
                    ledger.release("arb", rng.choice(active), now)
        except RPoolError:
            pass
        ids = range(-1, len(ledger.transfer_log) + 3)
        model = TaintAwareRiskModel(set(rng.sample(ids, rng.randrange(4))), 700000)
        for name in [*names, "nobody"]:
            expected = _full_scan_quote(model, ledger, name, now)
            assert model.quote(ledger, name, 1, now) == expected


def test_a_matured_tainted_record_stops_rating_its_holder_zero():
    # window 100: thief pays req 10 as t1, which is tainted.  Once t1's
    # record is due it is settled value, whether or not an operation has
    # folded req's account yet; a frozen part keeps it tainted until released.
    world = World(recovery_window=100, arbitrator="arb")
    base, ledger = world.base, world.ledger
    base.mint("thief", 10)
    ledger.wrap("thief", 10, 0)
    t1 = ledger.transfer("thief", "req", 10, False, 0)
    model = TaintAwareRiskModel({t1}, 900_000)
    assert model.quote(ledger, "req", 1, 99) == 0
    assert ledger.settle_view("req", 200) == (10, 0)
    assert model.quote(ledger, "req", 1, 200) == 900_000
    ledger.transfer("req", "other", 1, False, 200)  # folds req's account
    assert model.quote(ledger, "req", 1, 200) == 900_000

    t2 = ledger.transfer("other", "req", 1, True, 200)
    ledger.freeze("arb", [("req", 1)], "c1", 250)
    model.tainted_transfer_ids.add(t2)
    assert model.quote(ledger, "req", 1, 400) == 0  # due, but frozen
    ledger.release("arb", "c1", 400)
    assert model.quote(ledger, "req", 1, 400) == 900_000
