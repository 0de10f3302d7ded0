"""Order-book pool: bid lifecycle, the match price, and the LP-borne loss
example.  Each refusal of a post, cancel or match is a row of
``tests/test_rejections.py``."""

import dataclasses

import pytest

from rpoolsim import Bid, Fill
from rpoolsim.errors import QuoteTooLow

from conftest import ARB, give_unsettled, refused


@pytest.fixture
def booked(world):
    base, ledger = world.base, world.ledger
    book = world.add_book("book")
    base.mint("lp", 200)
    give_unsettled(base, ledger, "alice", 100, now=0)
    return base, ledger, book


class TestPostBid:
    def test_posts_open_bid(self, booked):
        base, ledger, book = booked
        bid_id = book.post_bid("alice", 100, 600000, 600, 0)
        bid = book.bids[bid_id]
        assert bid.status == "open"
        assert bid.nonce_at_post == ledger.nonce("alice")


class TestCancelBid:
    def test_owner_cancels(self, booked):
        _, _, book = booked
        bid_id = book.post_bid("alice", 100, 600000, 600, 0)
        book.cancel_bid("alice", bid_id)
        assert book.bids[bid_id].status == "cancelled"


class TestMatchBid:
    def test_threshold_rounds_for_the_bidder(self, world, booked):
        base, ledger, book = booked
        bid_id = book.post_bid("alice", 100, 600000, 600, 0)
        with refused(world, QuoteTooLow):
            book.match_bid("lp", bid_id, 59, 1)
        fill = book.match_bid("lp", bid_id, 60, 1)
        assert fill.base_paid == 60
        assert base.balance("alice") == 60
        assert base.balance("lp") == 140
        assert ledger.settle_view("lp", 1) == (0, 100)

    def test_conserves_supply(self, booked):
        base, ledger, book = booked
        supply = base.total_supply
        bid_id = book.post_bid("alice", 100, 500000, 600, 0)
        book.match_bid("lp", bid_id, 50, 1)
        ledger.check_invariants()
        assert base.total_supply == supply


class TestValues:
    def test_a_post_and_a_match_record_every_field_in_its_place(self, booked):
        # every field of the bid and of the fill distinct
        base, ledger, book = booked
        give_unsettled(base, ledger, "alice", 5, now=0, source="f2")  # nonce 2
        bid_id = book.post_bid("alice", 100, 600000, 600, 1)
        bid = Bid(
            bid_id=1, bidder="alice", amount=100, min_rate_ppm=600000, expiry=600,
            nonce_at_post=2,
        )
        assert len(set(bid)) == len(Bid._fields)
        assert bid_id == 1
        assert type(book.bids[1]) is Bid
        assert book.bids[1] == bid
        fill = book.match_bid("lp", 1, 70, 9)
        expected = Fill(
            bid_id=1, lp="lp", bidder="alice", amount_unsettled=100, base_paid=70, time=9,
            transfer_id=3,
        )
        assert len(set(dataclasses.astuple(expected))) == len(dataclasses.fields(Fill))
        assert type(fill) is Fill
        assert fill == expected
        assert book.fills == [expected]
        assert book.bids[1] == bid._replace(status="filled")


class TestLpBearsRecoveryRisk:
    def test_net_loss_equals_payment(self, booked):
        """Fill 100 unsettled for 50 base; clawback leaves the LP -50 net."""
        base, ledger, book = booked
        lp_base_start = base.balance("lp")
        bid_id = book.post_bid("alice", 100, 500000, 600, 0)
        book.match_bid("lp", bid_id, 50, 1)
        ledger.freeze(ARB, [("lp", 100)], "c1", 2)
        ledger.recover(ARB, "c1", "victim", 2)
        assert base.balance("lp") == lp_base_start - 50
        assert ledger.settle_view("lp", 2) == (0, 0)
        assert ledger.settle_view("victim", 2) == (100, 0)
