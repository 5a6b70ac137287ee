"""The one JSON writer: ``_dumps(obj)`` is ``json.dumps(obj, indent=2, default=_jsonable)``
byte for byte, but writes each flat container (a dict, list or tuple of str, int, float, bool
and None only) in one call of CPython's C encoder, which the stdlib uses only without indent.
"""

from __future__ import annotations

import functools
import json
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

_SCALARS = (str, int, float, type(None))  # bool is an int


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@functools.cache
def _level(inner: str):
    """Compact encoder with ``"," + inner`` between the items of a flat container."""
    if c_make_encoder is None:
        return json.JSONEncoder(separators=("," + inner, ": "), default=_jsonable).encode
    encode = c_make_encoder(None, _jsonable, encode_basestring_ascii, None, ": ", "," + inner,
                            False, False, True)
    return lambda obj: "".join(encode(obj, 0))


def _dumps(obj, nl: str = "\n") -> str:
    """``obj`` as JSON with indent 2; ``nl`` is the line break and indent of its first line."""
    inner = nl + "  "
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    elif isinstance(obj, _SCALARS):
        return _level(inner)(obj)
    else:
        return _dumps(_jsonable(obj), nl)
    if not values:
        return "{}" if isinstance(obj, dict) else "[]"
    if all(map(isinstance, values, repeat(_SCALARS))):
        text = _level(inner)(obj)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(obj, dict):
        items = [_key(k, inner) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + nl + "]"


def _key(key, inner: str) -> str:
    """A key as the stdlib writes it: a non-str scalar becomes its JSON text, in quotes."""
    if not isinstance(key, _SCALARS):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _level(inner)(key))
