"""The input layer: every file ElastiSim is given is read through here.

:class:`InputError` is the base of every "the file is wrong" exception, so a
caller — ``cli.main`` first of all — tells a bad input (exit 3) from a bug
(exit 70) by one ``except``.  :func:`read_json` is the one place that turns
a missing, unreadable, non-UTF-8, truncated or non-JSON file, or one that
holds no object, into ``error("<path>: …")``.  :func:`read` checks one JSON
object against a table — a tuple of ``(key, kind, default, bound)`` rows —
in one loop, and every message is one line that starts with the dotted path
of what is wrong (``jobs[2].walltime must be a finite number > 0, got
nan``).  The tables live beside the loaders they serve; ``docs/API.md``
lists them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple, Type

# The kinds.  Each is also how a message words what it wanted.
NUMBER = "a finite number"  # int or float; bool, NaN and ±inf are not numbers
INTEGER = "an integer"  # an int, or a float that is one (8.0 reads as 8); bool is not
MAGNITUDE = NUMBER + " or an expression string"  # application fields
TEXT = "a string"  # bound 1: not empty
CHOICE = "one of"  # bound: the strings to choose from; a dict gives what each one reads as
LIST = "a non-empty list"  # bound: None, or the (kind, bound) every item is checked against
OBJECT = "an object"
FLAG = "true or false"  # a real bool, not anything truthy
ANY = "given"  # anything but null: the caller looks closer

#: ``default`` of a row whose key must be present.  A row whose default is
#: ``None`` is optional and takes ``null`` for "absent"; any other default
#: stands in for a missing key only, and ``null`` is then a wrong value.
REQUIRED: Any = object()

#: Bounds of the numeric kinds: ``(low, low is allowed, high or None)``.
GT0, GE0, GE1 = (0, False, None), (0, True, None), (1, True, None)
#: A share of a whole, and how many of something are held in memory at once
#: (nodes, generated jobs, seeds): the cap refuses what could only exhaust it.
FRACTION, COUNT = (0, True, 1), (1, True, 10_000_000)

#: ``sys.float_info.max``: NaN, ±inf and an integer no float can hold all
#: fail ``-_FINITE <= x <= _FINITE``.
_FINITE = 1.7976931348623157e308

Row = Tuple[str, str, Any, Any]


class InputError(Exception):
    """Something ElastiSim was given — a file, a field, a flag — is wrong."""


def read_json(path: Any, error: Type[Exception]) -> Dict[str, Any]:
    """The JSON object the file ``path`` holds, or ``error("<path>: why not")``."""
    try:
        with open(path, "rb") as stream:
            document = json.loads(stream.read().decode("utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read the file ({exc.strerror or exc})") from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not JSON ({exc})") from None
    except RecursionError:
        raise error(f"{path}: nested too deeply") from None
    if not isinstance(document, dict):
        raise error(f"{path}: must hold a JSON object, got {_show(document)}")
    return document


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _wanted(kind: str, bound: Any) -> str:
    if kind is CHOICE:
        return f"one of {list(bound)}"
    if kind is LIST or bound is None:
        return kind
    if kind is TEXT:
        return "a non-empty string"
    limit = f" {'>=' if bound[1] else '>'} {bound[0]}"
    if bound[2] is not None:
        limit += f" and <= {bound[2]}"
    return NUMBER + limit + MAGNITUDE[len(NUMBER) :] if kind is MAGNITUDE else kind + limit


def read(mapping: Any, table: Tuple[Row, ...], path: str, error: Type[Exception]) -> Dict[str, Any]:
    """``{key: checked value, or the default}`` for every row of ``table``.

    ``path`` names ``mapping`` in messages (``""`` at a document's top
    level).  Raises ``error`` when ``mapping`` is not an object, a required
    key is missing, a value is of the wrong kind or outside its bound, or a
    key is one no row names.
    """
    if not isinstance(mapping, dict):
        raise error(f"{path or 'the document'} must be an object, got {_show(mapping)}")
    out: Dict[str, Any] = {}
    present = 0
    for key, kind, default, bound in table:
        if key not in mapping:
            if default is REQUIRED:
                raise error(f"{path}.{key} is required" if path else f"{key} is required")
            out[key] = default
            continue
        present += 1
        value = out[key] = mapping[key]
        if value is None and default is None:
            continue
        kin = type(value)  # JSON's own types exactly; isinstance only for a subclass
        if kind is NUMBER or kind is INTEGER or kind is MAGNITUDE and kin is not str:
            good = kin is float or kin is int or (
                kin is not bool and isinstance(value, (int, float))
            )
            if good and kind is INTEGER and not isinstance(value, int):
                good = value.is_integer()
                if good:
                    value = out[key] = int(value)
            if good:
                low, inclusive, high = bound or (-_FINITE, True, None)
                good = (low <= value if inclusive else low < value) and value <= (
                    _FINITE if high is None else high
                )
        elif kind is TEXT:
            good = kin is str and (not bound or value != "")
        elif kind is CHOICE:
            good = kin is str and value in bound
            if good and type(bound) is dict:
                out[key] = bound[value]
        elif kind is MAGNITUDE:
            good = True  # a string: the expression compiler has the say
        elif kind is LIST:
            good = isinstance(value, (list, tuple)) and len(value) > 0
            if good and bound is not None:
                names = [f"{key}[{i}]" for i in range(len(value))]
                items = tuple((name, bound[0], REQUIRED, bound[1]) for name in names)
                out[key] = list(read(dict(zip(names, value)), items, path, error).values())
        elif kind is OBJECT:
            good = isinstance(value, dict)
        elif kind is FLAG:
            good = kin is bool
        else:  # ANY
            good = value is not None
        if not good:
            where = f"{path}.{key}" if path else key
            raise error(f"{where} must be {_wanted(kind, bound)}, got {_show(value)}")
    if present != len(mapping):
        known = [row[0] for row in table]
        unknown = sorted(str(key) for key in mapping if key not in known)
        raise error(f"{path + ': ' if path else ''}unknown key(s) {unknown}; the keys are {known}")
    return out
