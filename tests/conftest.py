from fractions import Fraction

import pytest
from hypothesis import settings

from ncsolenoid import AngleSequence, NadicInteger

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def five_62():
    """The N=5 example with value cycle (1/62, 25/62, 5/62)."""
    return AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))


@pytest.fixture
def three_half():
    """N=3, constant 1/2: the self-symmetric multiplier example."""
    return AngleSequence.constant(3, Fraction(1, 2))


@pytest.fixture
def thirds_2():
    """The period-2 element of Xi_2 with values (1/3, 2/3, 1/3, ...)."""
    return AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))


@pytest.fixture
def thirds_4():
    """The constant-1/3 element of Xi_4."""
    return AngleSequence.constant(4, Fraction(1, 3))


@pytest.fixture
def fifths_2():
    """The period-4 element of Xi_2 with values (1/5, 3/5, 4/5, 2/5)."""
    return AngleSequence(2, Fraction(1, 5), NadicInteger.from_value(Fraction(-1, 5), 2))


@pytest.fixture
def refuse_the_order(monkeypatch):
    """Fail fast, before any list of length q, if bundle_data gets as far as the order."""

    def period(self):
        raise AssertionError("bundle_data reached the order")

    monkeypatch.setattr(AngleSequence, "period", period)
