"""Reading and writing the program's JSON documents.

`json_fields` is the fail-closed reader of a dataclass's keys: an unknown
key, a missing required one or a value of the wrong JSON type raises a
`ValueError` that names the key.  `encode_array` and `decode_array` store a
float array as its shape and the base64 of its little-endian float64 bytes,
so every bit pattern (-0.0, inf, NaN payloads, subnormals) survives and
decoding parses no decimal text.  `dumps_indented` writes a flat report
as `json.dumps(d, indent=2)` would, at the speed of json's C encoder.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import typing

import numpy as np


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _holds(value, hint) -> bool:
    """Whether a decoded JSON value is of a field's annotated type: a float
    field takes any JSON number, a tuple field a list of integers and a
    dataclass field an object (read by the dataclass's own reader)."""
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if hint is tuple:
        return isinstance(value, (list, tuple)) and all(_is_int(x) for x in value)
    if hint is int:
        return _is_int(value)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, typing.get_args(hint) or hint)


def json_fields(cls, d, what: str, names=None) -> dict:
    """The keys of the JSON object `d` as keyword arguments of dataclass
    `cls`, after checking them against its fields.  `names` limits the
    accepted keys to those fields (one block of a grouped document);
    each required field among them must be present.  A JSON integer in a
    float field comes back as a float."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    if names is not None:
        fields = {k: fields[k] for k in names}
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    missing = [
        k for k, f in fields.items()
        if k not in d
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing {what} keys {missing}")
    hints = typing.get_type_hints(cls)
    kw = {}
    for k, value in d.items():
        if not _holds(value, hints[k]):
            raise ValueError(f"{what} key {k!r} has the wrong type: {value!r}")
        if hints[k] is float:
            # a JSON integer loads as a float, so the loaded value, and a
            # hash of its re-serialized form, is canonical
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{what} key {k!r} is out of float range") from None
        kw[k] = value
    return kw


_FLAT = json.JSONEncoder(separators=(",\n    ", ": "))


def dumps_indented(d: dict) -> str:
    """`json.dumps(d, indent=2)` for a non-empty object whose values are
    scalars or lists of scalars.  Any `indent` selects json's pure-Python
    encoder, so each value goes through the C encoder instead, with the
    item separator that indentation puts between list entries."""
    items = []
    for key, value in d.items():
        text = _FLAT.encode(value)
        if isinstance(value, list) and value:
            text = "[\n    " + text[1:-1] + "\n  ]"
        items.append(f"{_FLAT.encode(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def encode_array(a: np.ndarray) -> dict:
    data = np.asarray(a, dtype="<f8")
    return {
        "shape": list(data.shape),
        "f8": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(d, what: str) -> np.ndarray:
    """A writable float64 array from `encode_array`'s object; `what` names
    the entry in the error a malformed one raises."""
    if not isinstance(d, dict) or set(d) != {"shape", "f8"}:
        raise ValueError(f"{what}: expected an object with keys 'shape' and 'f8'")
    shape = d["shape"]
    if not (isinstance(shape, list) and all(_is_int(n) and n >= 0 for n in shape)):
        raise ValueError(f"{what}: bad shape {shape!r}")
    try:
        raw = base64.b64decode(d["f8"], validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ValueError(f"{what}: bad base64 data ({err})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(
            f"{what}: {len(raw)} bytes do not hold shape {shape} of float64"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
