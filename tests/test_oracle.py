"""Report encoding, signatures, the median, and the nine-check validation."""

import copy
import itertools
import pickle
import random
import struct

import pytest
from hypothesis import example, given, settings
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
    ClockWentBack,
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
import rpoolsim.oracle
from rpoolsim.oracle import RiskReport
from rpoolsim.rates import PPM

import naive_quorum
from conftest import ARB, WINDOW, assert_unchanged, full_state, give_unsettled, make_pool, refused


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
            ("requestor", None),
            ("signer_id", 5),
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

    def test_a_swap_on_no_reports_fails_the_quorum_first(self, world):
        # a pool's quorum is at least 1, so a swap never reaches EmptyQuoteSet
        pool, _ = make_pool(world)
        give_unsettled(world.base, world.ledger, "alice", 10, now=0)
        with refused(world, QuorumTooSmall, match="0 reports, quorum is 1"):
            pool.swap("alice", 10, [], 0)


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
        ledger.tainted.add(tainted_id)
        entity = world.add_signer("e", TaintAwareRiskModel(800000))
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
        with refused(world, UnknownSigner):
            issue_report(entity, world.registry, "alice", 1, 0, 60, world.ledger)

    @pytest.mark.parametrize("ttl", [0, -1])
    def test_non_positive_ttl_is_a_modelled_rejection(self, world, ttl):
        entity = world.add_signer("e", ConstantRiskModel(1))
        with refused(world, BadExpiry):
            issue_report(entity, world.registry, "alice", 1, 0, ttl, world.ledger)


#: a report's constructor arguments: its six signed fields and the signature
_REPORT_ARGS = (
    "requestor", "amount", "account_nonce", "expiry", "quote_ppm", "signer_id", "signature"
)

#: each signed field's values: inside its width, and outside it or not an
#: integer, as in test_field_outside_its_width_is_a_value_error
_FIELD_VALUES = {
    "requestor": st.text() | st.just("\ud800"),
    "amount": st.integers(0, 2**128 - 1) | st.sampled_from([-1, 2**128, 100.0]),
    "account_nonce": st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64]),
    "expiry": st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64]),
    "quote_ppm": st.integers(0, 2**32 - 1) | st.sampled_from([-1, 2**32]),
    "signer_id": st.text() | st.just("\ud800"),
}


def _encoded(fields) -> bytes | None:
    """The six signed fields' bytes, or None where they cannot be encoded."""
    try:
        return canonical_encode(*fields)
    except ValueError:
        return None


class TestReportBytes:
    """A report carries the bytes of its six signed fields however it is
    built, and the quorum check verifies those bytes without encoding."""

    @given(
        fields=st.tuples(*_FIELD_VALUES.values()),
        replacements=st.tuples(*_FIELD_VALUES.values()),
        signature=st.binary(max_size=32),
    )
    def test_bytes_match_the_fields(self, fields, replacements, signature):
        args = (*fields, signature)
        built = [
            RiskReport(*args),
            RiskReport(**dict(zip(_REPORT_ARGS, args))),
            RiskReport._make(args),
            RiskReport._make((*args, b"passed in")),
        ]
        assert len(set(built)) == 1
        for report in built[:1]:
            built += [
                report._replace(**{name: value})
                for name, value in zip(_FIELD_VALUES, replacements)
            ]
            built += [report._replace(signed=b"passed in"), report._replace(signature=b"")]
            built += [copy.copy(report), pickle.loads(pickle.dumps(report))]
        for report in built:
            assert report.signed == _encoded(report[:6])
        assert built[-3].signed == built[-2].signed == built[0].signed

    @given(
        requestor=_FIELD_VALUES["requestor"],
        amount=_FIELD_VALUES["amount"],
        now=st.integers(0, 2**64),
        quote=st.integers(0, PPM),
    )
    def test_an_issued_report_carries_the_bytes_it_signed(self, requestor, amount, now, quote):
        world = World(recovery_window=WINDOW, arbitrator=ARB)
        rater = world.add_signer("rater", ConstantRiskModel(quote))
        fields = (requestor, amount, world.ledger.nonce(requestor), now + 60, quote, "rater")
        signed = _encoded(fields)
        if signed is None:
            with refused(world, ValueError):
                issue_report(rater, world.registry, requestor, amount, now, 60, world.ledger)
            return
        report = issue_report(rater, world.registry, requestor, amount, now, 60, world.ledger)
        assert (report[:6], report.signed) == (fields, signed)
        assert report == RiskReport(*report[:7])
        public_key, _ = world.registry._signers["rater"]
        assert world.registry.scheme.verify(public_key, signed, report.signature)

    def test_a_report_changed_after_signing_is_refused(self, world):
        pool, rater = make_pool(world)
        give_unsettled(world.base, world.ledger, "alice", 100, now=0)
        (issued,) = _reports(pool, rater, world.ledger)
        stale = issued._replace(quote_ppm=issued.quote_ppm + 1)
        assert stale.signature == issued.signature and stale.signed != issued.signed
        with refused(world, BadSignature, state=full_state):
            pool.swap("alice", 100, [stale], 0)
        assert pool.swap("alice", 100, [issued], 0).median_ppm == issued.quote_ppm

    def test_each_report_is_encoded_once(self, world, monkeypatch):
        lps = [(f"lp{n}", 100) for n in range(5)]
        pool, rater = make_pool(world, lp_deposits=lps, min_quorum=5)
        raters = [rater] + [world.add_signer(lp, ConstantRiskModel(500_000)) for lp, _ in lps[1:]]
        give_unsettled(world.base, world.ledger, "alice", 100, now=0)
        calls = []

        def counting(*fields):
            calls.append(fields)
            return canonical_encode(*fields)

        monkeypatch.setattr(rpoolsim.oracle, "canonical_encode", counting)
        reports = [
            issue_report(entity, world.registry, "alice", 100, 0, 600, world.ledger)
            for entity in raters
        ]
        assert calls == [report[:6] for report in reports]
        receipt = pool.swap("alice", 100, reports, 0)
        assert (receipt.median_ppm, len(calls)) == (500_000, 5)


def _reports(pool, rater, ledger, requestor="alice", amount=100, now=0, n=1, ttl=600):
    return [
        issue_report(rater, pool.registry, requestor, amount, now, ttl, ledger)
        for _ in range(n)
    ]


_NOW = 10

#: the error of each check after the quorum size, by number
_CHECK_ERRORS = {
    2: DuplicateSigner,
    3: SignerNotLp,
    4: SignerNotAuthorized,
    5: StaleNonce,
    6: ReportExpired,
    7: RequestMismatch,
    8: BadSignature,
    9: OutOfRiskBounds,
}


def _signer(world, pool, name, *, deposit=100, registered=True, authorized=True):
    """A rating entity quoting 0.5 that holds ``deposit`` of the pool's LP
    tokens; an unregistered one signs with a secret the registry never saw."""
    if registered:
        entity = world.add_signer(name, ConstantRiskModel(500_000), authorized=authorized)
    else:
        entity = RatingEntity(name, name.encode(), ConstantRiskModel(500_000))
    if deposit:
        world.base.mint(name, deposit)
        pool.deposit(name, deposit, 0)
    return entity


def _signed(world, entity, **fields):
    """``entity``'s signed report on the request (alice, 100) at alice's
    current nonce, expiring at 600 with a 0.5 quote, but for ``fields``."""
    values = dict(
        requestor="alice",
        amount=100,
        account_nonce=world.ledger.nonce("alice"),
        expiry=600,
        quote_ppm=500_000,
        signer_id=entity.signer_id,
    )
    values.update(fields)
    signature = world.registry.scheme.sign(entity.secret, canonical_encode(**values))
    return RiskReport(**values, signature=signature)


def _tampered(report, **fields):
    """``report`` with ``fields`` replaced after it was signed."""
    values = {name: getattr(report, name) for name in _REPORT_ARGS}
    return RiskReport(**{**values, **fields})


def _report_failing(world, pool, check, valid):
    """A report that fails ``check`` (2-9) and passes every earlier one,
    next to the report ``valid`` at time ``_NOW`` in a pool whose risk
    bounds hold 0.5 but not 0.75."""
    if check == 2:
        return valid  # its signer twice
    entity = _signer(
        world, pool, f"fails{check}", deposit=0 if check == 3 else 100, authorized=check != 4
    )
    if check == 5:
        return _signed(world, entity, account_nonce=world.ledger.nonce("alice") + 1)
    if check == 6:
        return _signed(world, entity, expiry=_NOW)
    if check == 7:
        return _signed(world, entity, requestor="bob")
    if check == 8:
        return _tampered(_signed(world, entity), signature=bytes(32))
    return _signed(world, entity, quote_ppm=1_000_000 if check == 9 else 500_000)


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

    @pytest.mark.parametrize("first", range(2, 9), ids=lambda check: f"{check}-{check + 1}")
    def test_earlier_check_wins_in_every_order(self, world, first):
        # one report fails check ``first``, another the check after it, a
        # third is valid: every order of the three raises the earlier error
        pool, _ = make_pool(world, min_quorum=2, risk_bounds=(0, 600_000))
        valid = _signed(world, _signer(world, pool, "valid"))
        reports = [_report_failing(world, pool, check, valid) for check in (first, first + 1)]
        for report, check in zip(reports, (first, first + 1)):  # each fails alone
            with refused(world, _CHECK_ERRORS[check]):
                validate_reports(pool, "alice", 100, [report, valid], _NOW)
        for perm in itertools.permutations([*reports, valid]):
            with refused(world, _CHECK_ERRORS[first]):
                validate_reports(pool, "alice", 100, list(perm), _NOW)

    def test_quorum_too_small(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world, min_quorum=3)
        reports = _reports(pool, rater, ledger)
        with refused(world, QuorumTooSmall):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_duplicate_signer(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, n=2)
        with refused(world, DuplicateSigner):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_signer_not_lp(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world, min_lp_deposit=500)
        reports = _reports(pool, rater, ledger)
        with refused(world, SignerNotLp):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_signer_not_authorized(self, world):
        # lp2 holds a full deposit but its key is registered unauthorized
        pool, _ = make_pool(world)
        lp2 = world.add_signer("lp2", ConstantRiskModel(500000), authorized=False)
        reports = _reports(pool, lp2, world.ledger)
        with refused(world, SignerNotAuthorized):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_stale_nonce_after_any_touch(self, world):
        base, ledger = world.base, world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger)
        give_unsettled(base, ledger, "alice", 1, now=0)  # nonce moves
        with refused(world, StaleNonce):
            validate_reports(pool, "alice", 100, reports, 0)

    def test_expiry_is_strict(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, ttl=60)
        assert validate_reports(pool, "alice", 100, reports, 59) == 500000
        with refused(world, ReportExpired):
            validate_reports(pool, "alice", 100, reports, 60)

    def test_request_mismatch(self, world):
        ledger = world.ledger
        pool, rater = make_pool(world)
        reports = _reports(pool, rater, ledger, amount=100)
        with refused(world, RequestMismatch):
            validate_reports(pool, "alice", 999, reports, 0)
        with refused(world, RequestMismatch):
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
        with refused(world, BadSignature):
            validate_reports(pool, "alice", 100, [forged], 0)

    @pytest.mark.parametrize(
        "field, value",
        [("quote_ppm", -1), ("quote_ppm", 2**32), ("expiry", 2**64), ("amount", 100.0)],
    )
    def test_unencodable_field_is_a_bad_signature(self, world, field, value):
        # canonical_encode cannot write the field, so no signature covers it
        ledger = world.ledger
        pool, rater = make_pool(world)
        (report,) = _reports(pool, rater, ledger)
        values = {name: getattr(report, name) for name in _REPORT_ARGS}
        forged = RiskReport(**{**values, field: value})
        with refused(world, BadSignature):
            validate_reports(pool, "alice", 100, [forged], 0)

    def test_a_name_that_is_not_a_string_is_a_modelled_refusal(self, world):
        # canonical_encode refuses it with a ValueError, so the report is
        # built without bytes, and the quorum check refuses it like any other
        pool, rater = make_pool(world)
        report = RiskReport(None, 5, 0, 10, 1, "s", b"")
        assert report.signed is None
        with refused(world, SignerNotLp):
            validate_reports(pool, "alice", 5, [report], 0)
        (issued,) = _reports(pool, rater, world.ledger)
        forged = issued._replace(requestor=None)
        assert forged.signed is None
        with refused(world, BadSignature, match="report by lp1 is not encodable"):
            validate_reports(pool, None, 100, [forged], 0)

    def test_median_outside_bounds(self, world):
        ledger = world.ledger
        pool, rater = make_pool(
            world, risk_bounds=(600000, 1000000), rater_rate_ppm=500000
        )
        reports = _reports(pool, rater, ledger)
        with refused(world, OutOfRiskBounds):
            validate_reports(pool, "alice", 100, reports, 0)


#: a report's fault -> (its signer's kind, fields signed into it, fields
#: replaced after signing), the fields as a function of the report's index
#: so that two reports failing one check give different messages;
#: "duplicate" reuses an earlier report's signer
_FAULTS = {
    "none": ("lp", {}, {}),
    "duplicate": ("lp", {}, {}),
    "not an LP": ("outsider", {}, {}),
    "under the minimum deposit": ("small", {}, {}),
    "unregistered": ("unregistered", {}, {}),
    "unauthorized": ("unauthorized", {}, {}),
    "nonce behind": ("lp", {"account_nonce": lambda i: 0}, {}),
    "nonce ahead": ("lp", {"account_nonce": lambda i: 2 + i}, {}),
    "now == expiry": ("lp", {"expiry": lambda i: _NOW}, {}),
    "expired before now": ("lp", {"expiry": lambda i: _NOW - 1 - i}, {}),
    "requestor mismatch": ("lp", {"requestor": lambda i: f"bob{i}"}, {}),
    "amount mismatch": ("lp", {"amount": lambda i: 99 - i}, {}),
    "tampered quote": ("lp", {}, {"quote_ppm": lambda i: 123_456 + i}),
    "tampered signature": ("lp", {}, {"signature": lambda i: bytes([i]) * 32}),
    # each unencodable field of test_unencodable_field_is_a_bad_signature
    "quote -1": ("lp", {}, {"quote_ppm": lambda i: -1}),
    "quote 2**32": ("lp", {}, {"quote_ppm": lambda i: 2**32}),
    "expiry 2**64": ("lp", {}, {"expiry": lambda i: 2**64}),
    "amount 100.0": ("lp", {}, {"amount": lambda i: 100.0}),
}

#: signer kind -> (LP deposit, registered, authorized); the pool's
#: minimum deposit is 50
_SIGNER_KINDS = {
    "lp": (100, True, True),
    "outsider": (0, True, True),
    "small": (10, True, True),
    "unregistered": (100, False, True),
    "unauthorized": (100, True, False),
}


def _outcome(validate, pool, reports):
    try:
        return validate(pool, "alice", 100, reports, _NOW)
    except RPoolError as exc:
        return type(exc), str(exc)


@st.composite
def _drawn_reports(draw):
    """Up to 7 (fault, quote, earlier report index) triples.  Each list
    draws its faults from a palette of one to three, and half its reports
    are sound, so a check often fails on several reports and later checks
    are reached."""
    palette = draw(st.lists(st.sampled_from(sorted(_FAULTS)), min_size=1, max_size=3))
    fault = st.one_of(st.just("none"), st.sampled_from(palette))
    quote = st.sampled_from([0, 300_000, 500_000, 900_000, 1_000_000])
    return draw(st.lists(st.tuples(fault, quote, st.integers(0, 6)), max_size=7))


def _each_fault_twice(test):
    """An explicit example per fault: two reports with it around a sound
    one, so every check meets a second failing report after its first."""
    for fault in sorted(_FAULTS):
        test = example(
            drawn=[(fault, 500_000, 0), ("none", 500_000, 0), (fault, 500_000, 1)],
            quorum_short=False,
            risk_bounds=(0, 1_000_000),
            rng=random.Random(0),
        )(test)
    return test


@_each_fault_twice
@settings(max_examples=150, deadline=None)
@given(
    drawn=_drawn_reports(),
    quorum_short=st.integers(0, 4).map(lambda n: n == 0),
    risk_bounds=st.sampled_from([(0, 1_000_000), (400_000, 600_000), (600_000, 1_000_000)]),
    rng=st.randoms(use_true_random=False),
)
def test_one_pass_check_matches_the_six_pass_check(drawn, quorum_short, risk_bounds, rng):
    """The one-pass quorum check raises the same error with the same
    message, or returns the same median, as the six-pass check it
    replaced, in every order of up to 4 reports and in sampled orders of
    more."""
    world = World(recovery_window=100, arbitrator="arb")
    min_quorum = len(drawn) + 1 if quorum_short else max(1, len(drawn) - 2)
    pool = world.add_pool(
        "pool", kappa_ppm=500_000, risk_bounds=risk_bounds, min_quorum=min_quorum,
        min_lp_deposit=50,
    )
    give_unsettled(world.base, world.ledger, "alice", 10, now=0)  # alice's nonce is 1
    reports, entities = [], []
    for index, (fault, quote, earlier) in enumerate(drawn):
        kind, signed_fields, tampered_fields = _FAULTS[fault]
        if fault == "duplicate" and entities:
            entity = entities[earlier % len(entities)]
        else:
            deposit, registered, authorized = _SIGNER_KINDS[kind]
            entity = _signer(
                world, pool, f"s{index}", deposit=deposit, registered=registered,
                authorized=authorized,
            )
        entities.append(entity)
        signed = {name: value(index) for name, value in signed_fields.items()}
        report = _signed(world, entity, **{"quote_ppm": quote, **signed})
        reports.append(
            _tampered(report, **{name: value(index) for name, value in tampered_fields.items()})
        )
    if len(reports) <= 4:
        orders = itertools.permutations(reports)
    else:
        orders = (rng.sample(reports, len(reports)) for _ in range(24))
    for order in orders:
        order = list(order)
        assert _outcome(validate_reports, pool, order) == _outcome(
            naive_quorum.validate_reports, pool, order
        )


def _full_scan_quote(model, ledger, requestor, now):
    """The taint quote by scanning every record the requestor holds and
    every open mark: a tainted record counts while it is not yet due, and
    its frozen value while an open case marks it on the requestor."""
    tainted = ledger.tainted
    acct = ledger.accounts.get(requestor)
    if acct is not None:
        for rec in acct.unsettled:
            if rec.transfer_id in tainted and rec.settlement_time > now:
                return 0
    for case in ledger.cases.values():
        if case.status == "active":
            for account, (_, transfer_id), _ in case.marks:
                if account == requestor and transfer_id in tainted:
                    return 0
    return model.rate_ppm


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([0, 1, 50]))
def test_taint_quote_matches_a_full_scan(seed, window):
    """Looking up each tainted transfer's record rates every holder as the
    full scan does, through spends, settlement, freezes, recovery, and
    tainted ids outside the transfer log.  The drawn times are sorted, so
    only a negative one is before the clock, and a quote there is refused."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    world = World(recovery_window=window, arbitrator="arb")
    base, ledger = world.base, world.ledger
    for name in names:
        base.mint(name, 300)
        ledger.wrap(name, 100, 0)
    for step, now in enumerate(sorted(rng.randrange(-20, 120) for _ in range(40))):
        who, other = rng.sample(names, 2)
        amount = rng.randrange(1, 40)
        kind = rng.randrange(5)
        before = world.snapshot()
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
            assert_unchanged(world, before)
        ids = range(-1, len(ledger.transfer_log) + 3)
        ledger.tainted = set(rng.sample(ids, rng.randrange(4)))
        model = TaintAwareRiskModel(700000)
        for name in [*names, "nobody"]:
            if now < ledger.clock and ledger.tainted:
                with refused(world, ClockWentBack):
                    model.quote(ledger, name, 1, now)
            else:
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
    ledger.tainted.add(t1)
    model = TaintAwareRiskModel(900_000)
    assert model.quote(ledger, "req", 1, 99) == 0
    assert ledger.settle_view("req", 200) == (10, 0)
    assert model.quote(ledger, "req", 1, 200) == 900_000
    ledger.transfer("req", "other", 1, False, 200)  # folds req's account
    assert model.quote(ledger, "req", 1, 200) == 900_000

    t2 = ledger.transfer("other", "req", 1, True, 200)
    ledger.freeze("arb", [("req", 1)], "c1", 250)
    ledger.tainted.add(t2)
    assert model.quote(ledger, "req", 1, 400) == 0  # due, but frozen
    ledger.release("arb", "c1", 400)
    assert model.quote(ledger, "req", 1, 400) == 900_000
