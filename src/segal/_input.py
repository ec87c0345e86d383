"""The input boundary: every file segal reads is opened, decoded and read as
numbers here, so a float, a bool or a numeric string is never truncated or
coerced, and every failure is a ``DomainError`` naming the file.  The
rule for an integer, from a file or as a library argument, is ``integer``,
the rule for number text, in a text file or on the command line, is
``number_text``, and the modulus of a complex number from outside is taken
by ``abs_or_inf``."""

from __future__ import annotations

import json
import math
import operator
from typing import Callable, Optional, TypeVar

from .errors import DomainError, SegalError

T = TypeVar("T")


def read_text(path) -> str:
    """The contents of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DomainError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DomainError(f"{path}: not UTF-8 text: {e.reason}") from None


def read_json(path) -> object:
    """The decoded contents of a JSON file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise DomainError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except RecursionError:
        raise DomainError(f"{path}: JSON nested too deeply") from None


def load_file(path, decode: Callable[[object], T], what: str) -> T:
    """``decode`` applied to a JSON file; a decoding failure names the file."""
    d = read_json(path)
    try:
        return decode(d)
    except (SegalError, LookupError, OverflowError, TypeError, ValueError) as e:
        raise DomainError(f"{path}: not a valid {what} file: {e}") from None


def json_object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise DomainError(f"{what} must be a JSON object, not {type(v).__name__}")
    return v


def json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise DomainError(f"{what} must be a JSON list, not {type(v).__name__}")
    return v


def json_str(v, what: str) -> str:
    if not isinstance(v, str):
        raise DomainError(f"{what} must be a string, not {v!r}")
    return v


def integer(v, what: str, least: Optional[int] = None) -> int:
    """A Python or numpy integer as an int, at least ``least`` if given;
    bools, strings and floats (2.0, nan and inf too) are rejected."""
    try:
        if isinstance(v, bool):
            raise TypeError
        n = operator.index(v)
    except TypeError:
        raise DomainError(f"{what} must be an integer, not {v!r}") from None
    if least is not None and n < least:
        raise DomainError(f"{what} must be at least {least}, got {n}")
    return n


def json_number(v, what: str) -> float:
    """A JSON number as a float; finiteness is left to the constructor."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"{what} must be a number, not {v!r}")
    return float(v)


def number_text(token: str) -> str:
    """``token``, if it may be read as a number: it is ASCII and holds no
    ``_``, so neither ``1_0`` nor a non-ASCII digit is read as a number,
    which Python's ``float``, ``int`` and ``complex`` would; a
    ``ValueError`` otherwise."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a number: {token!r}")
    return token


def file_float(token: str) -> float:
    """A number token of a text file as ``float`` reads it, under ``number_text``."""
    return float(number_text(token))


def abs_or_inf(z: complex) -> float:
    """|z|, or inf where it overflows a float, as for 1.5e308+1.5e308j."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf
