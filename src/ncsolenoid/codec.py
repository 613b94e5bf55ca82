"""JSON element files; this module is their only reader.

All rationals travel as strings 'a' or 'a/b'; floats are rejected
outright.  An element file holds exactly the keys N, alpha0 and carrier:

    {"N": 3, "alpha0": "1/2", "carrier": {"value": "-1/2"}}

A carrier object holds exactly one of {"value": "a/b"} and
{"prefix": [j0, j1, ...]}.  A standalone carrier file adds the scale and
nothing else: {"N": 3, "value": "-1/2"}.  An element file is also
accepted wherever a carrier is needed (its carrier is read).  Any other
set of keys, and any bad value under a right key, raises ValueError
naming the file.
"""

from __future__ import annotations

import json

from .nadic import NadicInteger
from .sequences import AngleSequence

_ELEMENT_KEYS = {"N", "alpha0", "carrier"}


def _reject_float(text):
    raise ValueError("floating point literals are not accepted: %s" % text)


def load_json(path):
    """Parse a JSON file, rejecting any float literal."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
        except json.JSONDecodeError as err:
            raise ValueError("%s: %s" % (path, err)) from None
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _carrier(obj, modulus):
    """The NadicInteger of a carrier object holding exactly one of value and prefix."""
    if not isinstance(obj, dict) or len(obj) != 1 or not obj.keys() <= {"value", "prefix"}:
        raise ValueError("a carrier holds exactly one of value and prefix")
    return NadicInteger(modulus, **obj)


def _sequence(obj):
    """The AngleSequence of an element object holding exactly N, alpha0 and carrier."""
    if not isinstance(obj, dict) or obj.keys() != _ELEMENT_KEYS:
        raise ValueError("an element file holds exactly N, alpha0 and carrier")
    return AngleSequence(obj["N"], obj["alpha0"], _carrier(obj["carrier"], obj["N"]))


def _any_carrier(obj):
    """The carrier of a carrier object with its scale N, or of an element object."""
    if not isinstance(obj, dict) or "N" not in obj:
        raise ValueError("carrier files need an N field")
    if "carrier" in obj:
        return _sequence(obj).carrier
    return _carrier({k: v for k, v in obj.items() if k != "N"}, obj["N"])


def _read(path, build):
    """build(the parsed file), with every ValueError prefixed by the path."""
    obj = load_json(path)
    try:
        return build(obj)
    except ValueError as err:
        raise ValueError("%s: %s" % (path, err)) from None


def sequence_from_file(path):
    """Read an AngleSequence from an element file."""
    return _read(path, _sequence)


def carrier_from_file(path):
    """Read a NadicInteger from a carrier file or an element file."""
    return _read(path, _any_carrier)


def dump_json(obj):
    """Deterministic JSON rendering (sorted keys, stable separators)."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
