"""Canonical report serialization.

Reports are plain dicts assembled from operation outputs (the rendering
layer never recomputes numbers).  The JSON form is canonical: keys sorted,
floats normalized to 12 significant digits, 2-space indent, trailing
newline.  Canonicalization is idempotent, so parse -> render round-trips
byte-identically.

:func:`render_json` canonicalizes and emits in one walk, without building a
normalized copy of the report: strings and keys go through the C
``encode_basestring_ascii``, so the output equals
``json.dumps(canonicalize(report), sort_keys=True, indent=2,
ensure_ascii=True) + "\\n"`` byte for byte and a report with one fault
raises the same ``ValueError``.  (``indent`` would put ``json.dumps`` on its
pure-Python encoder, after a full normalized copy.)
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["canonicalize", "render_json", "parse_json"]


def _canon_float(v: float) -> float:
    if not math.isfinite(v):
        raise ValueError(f"reports cannot carry non-finite numbers, got {v!r}")
    out = float(f"{v:.12g}")
    return 0.0 if out == 0.0 else out  # normalize -0.0


def canonicalize(obj):
    """Recursively normalize a report value: the reference normaliser the tests
    render against with ``json.dumps``; :func:`render_json` does not call it."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return _canon_float(obj)
    if isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:
            raise ValueError(f"report keys must be strings, got {bad!r}")
        return {k: canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise ValueError(f"unsupported report value type: {type(obj).__name__}")


def _emit(obj, append, newline: str) -> None:
    """Append the canonical JSON of ``obj``; ``newline`` opens a line at its depth.

    A module-level function rather than a closure inside render_json: a
    closure that calls itself is a reference cycle, which would keep each
    call's parts alive until the garbage collector ran.
    """
    if isinstance(obj, str):
        append(_encode_str(obj))
    elif obj is None:
        append("null")
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif isinstance(obj, float):
        append(float.__repr__(_canon_float(obj)))
    elif isinstance(obj, int):
        append(int.__repr__(obj))
    elif isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                bad = [k for k in obj if not isinstance(k, str)]
                raise ValueError(f"report keys must be strings, got {bad!r}")
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            append(sep + _encode_str(key) + ": ")
            _emit(obj[key], append, inner)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            append(sep)
            _emit(value, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        raise ValueError(f"unsupported report value type: {type(obj).__name__}")


def render_json(report: dict) -> str:
    parts: list[str] = []
    _emit(report, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def parse_json(text: str) -> dict:
    return json.loads(text)
