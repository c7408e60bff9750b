import re
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arrowq import SizeLimitError
from arrowq.hilbert import BallotSpace, ballot_state
from arrowq.orders import (
    alternative_pairs,
    enumerate_orders,
    order_rank,
    prefers,
    reverse_order,
    validate_order,
)
from arrowq.social_choice import projection_rule

import oracles


def test_enumerate_orders_small():
    assert enumerate_orders(1) == ((0,),)
    assert enumerate_orders(2) == ((0, 1), (1, 0))
    orders = enumerate_orders(3)
    assert len(orders) == 6
    assert orders[0] == (0, 1, 2)
    assert orders[-1] == (2, 1, 0)
    assert len(set(orders)) == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_is_position_in_lexicographic_enumeration(n):
    for i, order in enumerate(enumerate_orders(n)):
        assert order_rank(order) == i
        assert oracles.unrank(i, n) == order


@given(st.integers(min_value=1, max_value=6), st.data())
def test_unrank_rank_roundtrip(n, data):
    rank = data.draw(st.integers(min_value=0, max_value=factorial(n) - 1))
    assert order_rank(oracles.unrank(rank, n)) == rank


def test_prefers_basics():
    assert prefers((0, 1, 2), 0, 2)
    assert not prefers((2, 1, 0), 0, 2)
    with pytest.raises(ValueError):
        prefers((0, 1, 2), 1, 1)
    with pytest.raises(ValueError):
        prefers((0, 1, 2), 0, 3)


def test_prefers_antisymmetric_exhaustive():
    for order in enumerate_orders(3):
        for a, b in alternative_pairs(3):
            assert prefers(order, a, b) != prefers(order, b, a)


def test_reverse_order():
    assert reverse_order((0, 1, 2)) == (2, 1, 0)
    assert reverse_order((1, 0)) == (0, 1)


def test_validate_order_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_order((0, 0, 1))
    with pytest.raises(ValueError):
        validate_order((0, 2))
    with pytest.raises(ValueError):
        validate_order((0, 1), alternatives=3)
    assert validate_order([2, 0, 1]) == (2, 0, 1)


def test_rankings_must_hold_integers():
    cases = [
        (lambda: order_rank((2, 1.9, 0.2)), (2, 1.9, 0.2)),
        (lambda: ballot_state(BallotSpace(3), (0, 2.5, 1)), (0, 2.5, 1)),
        (lambda: projection_rule(2, 3, 0).outcome(((0, 1.9, 2), (2, 1, 0))), (0, 1.9, 2)),
        (lambda: order_rank(("1", "0", "2")), ("1", "0", "2")),
        (lambda: validate_order((0, 1.0, 2), 3), (0, 1.0, 2)),
    ]
    for call, bad in cases:
        message = "^" + re.escape(f"{bad!r} is not a ranking of alternatives 0..2") + "$"
        with pytest.raises(ValueError, match=message):
            call()
    # numpy integers are integers: they pass, and come back as Python ints
    ranking = validate_order(np.array([2, 0, 1], dtype=np.int8))
    assert ranking == (2, 0, 1) and {type(a) for a in ranking} == {int}
    assert order_rank(np.array([2, 1, 0])) == 5


def test_alternative_pairs_lexicographic():
    assert alternative_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert alternative_pairs(1) == []


def test_size_guard(monkeypatch):
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    with pytest.raises(SizeLimitError):
        enumerate_orders(9)
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "2")
    assert len(enumerate_orders(9)) == factorial(9)


def test_guard_override_must_be_positive_int(monkeypatch):
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "0")
    with pytest.raises(ValueError):
        enumerate_orders(3)
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "lots")
    with pytest.raises(ValueError):
        enumerate_orders(3)
