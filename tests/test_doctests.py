import doctest

import pytest

from ncsolenoid import classify, codec, ktheory, multiplier, nadic, oracle, sequences

MODULES = [nadic, sequences, multiplier, ktheory, classify, oracle, codec]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_docstring_examples_are_present():
    attempted = sum(doctest.testmod(m).attempted for m in MODULES)
    assert attempted >= 58
