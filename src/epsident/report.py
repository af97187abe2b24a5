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

Work that depends only on a shape is done once: a dict's key lines (sorted,
encoded, indented) are cached per key tuple and depth, and each render
memoizes the text of every float it has written, since a report repeats
the same values across radii.  A float's text is one ``%.12g`` format call
whenever that text has no exponent, which :func:`_float_text` proves equal
to the format, parse and ``repr`` path every other float takes.  Plain
``str``, ``float`` and ``None`` values are written inside their container's
loop; every other value takes the ``isinstance`` chain, so subclasses and
faults behave as before.  The renderer caches no refusal: a report with a
fault raises on every render.

A :class:`Fragment` is a part of a report that many reports share and none
may change: a tuple of read-only records whose values are ``str`` or tuples
of ``str``, checked when it is built.  The engine builds one for each
plan's not-evaluated records.  Its first render at a depth stores its text
on the fragment, and later renders at that depth append the stored text;
the text lives as long as the fragment, so no cache of the renderer holds
it.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["Fragment", "canonicalize", "render_json", "parse_json"]


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


# One entry per dict shape (its keys in insertion order, at one depth); a
# report has a few dozen shapes, so this holds several kinds of report.
_KEY_LINES_CACHE_SIZE = 256


@lru_cache(maxsize=_KEY_LINES_CACHE_SIZE)
def _key_lines(keys: tuple[str, ...], newline: str) -> tuple[tuple[int, str], ...]:
    """A dict's line heads in sorted key order, each with its key's position
    in ``keys``: ``"{" + inner + key + ": "`` for the first, then ``","``."""
    inner = newline + "  "
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple(
        (i, ("," if n else "{") + inner + _encode_str(keys[i]) + ": ") for n, i in enumerate(order)
    )


class _Record(dict):
    """One record of a :class:`Fragment`: a dict that refuses every write."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a report fragment is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Record, (dict(self),)


class Fragment(tuple):
    """A read-only list of flat records that renders to one stored text per
    depth.  Each record is a dict of ``str`` keys to ``str`` values or tuples
    of ``str``; anything else is refused here, so the stored text is always
    the canonical JSON of the records."""

    def __new__(cls, records):
        checked = []
        for record in records:
            if not isinstance(record, dict):
                raise ValueError(f"fragment records must be dicts, got {type(record).__name__}")
            for key, value in record.items():
                if type(key) is not str:
                    raise ValueError(f"report keys must be strings, got {[key]!r}")
                if type(value) is not str and not (
                    type(value) is tuple and all(type(v) is str for v in value)
                ):
                    raise ValueError(
                        f"fragment values must be str or tuples of str, got {value!r} at {key!r}"
                    )
            checked.append(_Record(record))
        fragment = super().__new__(cls, checked)
        fragment._texts = {}
        return fragment

    def text(self, newline: str) -> str:
        """The canonical JSON of the records at the depth ``newline`` opens."""
        text = self._texts.get(newline)
        if text is None:
            parts: list[str] = []
            _emit_list(self, parts.append, newline, {})
            text = self._texts[newline] = "".join(parts)
        return text


def _float_text(value: float, floats: dict) -> str:
    """``float.__repr__(_canon_float(value))``, in one format call when it can
    be, stored in ``floats``.

    Let s be ``"%.12g" % value``.  Without an exponent (and not nan or inf),
    s is a decimal d of at most 12 significant digits with no trailing
    zeros, and the canonical float is the double nearest d.  Any decimal of
    at most 15 significant digits round-trips through a double, so no other
    decimal of at most 12 digits maps to that double and d is the shortest
    text that does: ``repr`` writes d's digits.  ``repr`` and ``%g`` both
    write exponents in [-4, 12) as plain digits, so the two texts differ only
    in repr's ``.0`` on a whole number and in ``-0``, which canonicalizes to
    ``0.0``.  Everything else (exponents, nan, inf) takes the general path,
    which raises on the non-finite.
    """
    text = "%.12g" % value
    if "e" in text or "n" in text:
        text = float.__repr__(_canon_float(value))
    elif "." not in text:
        text = "0.0" if text == "-0" else text + ".0"
    floats[value] = text
    return text


def _emit(obj, append, newline: str, floats: dict) -> None:
    """Append the canonical JSON of ``obj``; ``newline`` opens a line at its
    depth and ``floats`` maps each float already written to its text.

    The containers write plain ``str``, ``float``, ``None``, ``dict``,
    ``list`` and ``tuple`` values themselves; this takes the report itself
    and every other value, a :class:`Fragment` among them.  Module-level
    functions rather than closures inside render_json: a closure that calls
    itself is a reference cycle, which would keep each call's parts alive
    until the garbage collector ran.
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
        _emit_dict(obj, append, newline, floats)
    elif isinstance(obj, Fragment):
        append(obj.text(newline))
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, append, newline, floats)
    else:
        raise ValueError(f"unsupported report value type: {type(obj).__name__}")


def _emit_dict(obj: dict, append, newline: str, floats: dict) -> None:
    keys = (*obj,)
    if not keys:
        append("{}")
        return
    # join refuses any key that is not a str, before the cache could match
    # it to an equal str key
    try:
        "".join(keys)
    except TypeError:
        bad = [k for k in keys if not isinstance(k, str)]
        raise ValueError(f"report keys must be strings, got {bad!r}") from None
    values = (*obj.values(),)
    inner = newline + "  "
    for i, head in _key_lines(keys, newline):
        value = values[i]
        kind = type(value)
        if kind is str:
            append(head + _encode_str(value))
        elif kind is float:
            append(head + (floats.get(value) or _float_text(value, floats)))
        elif value is None:
            append(head + "null")
        elif kind is dict:
            append(head)
            _emit_dict(value, append, inner, floats)
        elif kind is list or kind is tuple:
            append(head)
            _emit_list(value, append, inner, floats)
        else:
            append(head)
            _emit(value, append, inner, floats)
    append(newline + "}")


def _emit_list(obj, append, newline: str, floats: dict) -> None:
    if not obj:
        append("[]")
        return
    inner = newline + "  "
    head, comma = "[" + inner, "," + inner
    for value in obj:
        kind = type(value)
        if kind is str:
            append(head + _encode_str(value))
        elif kind is float:
            append(head + (floats.get(value) or _float_text(value, floats)))
        elif value is None:
            append(head + "null")
        elif kind is dict:
            append(head)
            _emit_dict(value, append, inner, floats)
        elif kind is list or kind is tuple:
            append(head)
            _emit_list(value, append, inner, floats)
        else:
            append(head)
            _emit(value, append, inner, floats)
        head = comma
    append(newline + "]")


def render_json(report: dict) -> str:
    parts: list[str] = []
    _emit(report, parts.append, "\n", {})
    parts.append("\n")
    return "".join(parts)


def parse_json(text: str) -> dict:
    return json.loads(text)
