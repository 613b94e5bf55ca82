"""JSON element files.

All rationals travel as strings 'a' or 'a/b'; floats are rejected
outright.  An angle-sequence file looks like

    {"N": 3, "alpha0": "1/2", "carrier": {"value": "-1/2"}}

with the carrier either {"value": "a/b"} or {"prefix": [j0, j1, ...]}.
A standalone carrier file adds the scale: {"N": 3, "value": "-1/2"}.
Files holding an angle sequence are also accepted wherever a carrier is
needed (the carrier is extracted).
"""

from __future__ import annotations

import json

from .nadic import NadicInteger
from .sequences import AngleSequence


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


def sequence_from_file(path):
    """Read an AngleSequence from an element file."""
    obj = load_json(path)
    return AngleSequence.from_json(obj)


def carrier_from_file(path):
    """Read a NadicInteger from a carrier file or an element file."""
    obj = load_json(path)
    if not isinstance(obj, dict) or "N" not in obj:
        raise ValueError("%s: carrier files need an N field" % path)
    if "carrier" in obj:
        return AngleSequence.from_json(obj).carrier
    return NadicInteger.from_json(
        {k: v for k, v in obj.items() if k in ("value", "prefix")}, obj["N"]
    )


def dump_json(obj):
    """Deterministic JSON rendering (sorted keys, stable separators)."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
