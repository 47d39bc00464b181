"""Typed access to decoded JSON input, and the one input error.

Every input file (the object formats of ``schemas`` and the sphere table)
is read by ``load_object`` and checked through these accessors. A caller
passes the full path text of the value it reads; a value of the wrong JSON
type is reported as ``<path>: expected <kind>, found <value>`` and a
missing key as ``<path>: missing``, each an InputError.
"""

from __future__ import annotations

import hashlib
import json


class InputError(ValueError):
    """Input the user can correct: a malformed or inconsistent file, or an argument
    out of range. With a failed open, the one error the command line exits 2 on."""


class Document(dict):
    """The top-level object of a JSON file, with ``digest``, the SHA-256 hex
    digest of the bytes it was parsed from."""

    def __init__(self, data, digest):
        super().__init__(data)
        self.digest = digest


def load_object(path):
    """The JSON object in the file at path, as a Document. A file that is
    not UTF-8 JSON text, or whose top level is another JSON value, is an
    InputError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise InputError(f"{path}: {exc}") from None
    if type(data) is not dict:
        raise InputError(f"{path}: expected a JSON object at the top level, found {type(data).__name__}")
    return Document(data, hashlib.sha256(raw).hexdigest())


def _is_letters(x):
    return type(x) is list and all(
        type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is int and p[1] in (1, -1) for p in x
    )


# The JSON kinds an input value may be asked to have, by the text that names
# them. An integer is exact: a float, a bool or a numeric string is not one.
KINDS = {
    "an object": lambda x: type(x) is dict,
    "a list": lambda x: type(x) is list,
    "an integer": lambda x: type(x) is int,
    "a list of integers": lambda x: type(x) is list and all(type(y) is int for y in x),
    "a list of rows": lambda x: type(x) is list and all(type(y) is list for y in x),
    "a name": lambda x: type(x) is str,
    "a generator name": lambda x: type(x) is str,
    "a file name": lambda x: type(x) is str,
    "a list of generator names": lambda x: type(x) is list and all(type(y) is str for y in x),
    "[degree, generator]": lambda x: type(x) is list and len(x) == 2,
    "a list of [generator, exponent] pairs, each exponent 1 or -1": _is_letters,
}


def typed(x, kind, where):
    """x if it is of the kind named in KINDS; else an InputError naming where."""
    if not KINDS[kind](x):
        raise InputError(f"{where}: expected {kind}, found {x!r}")
    return x


def entry(obj, key, kind, where):
    """obj[key], which must be present and, unless kind is None, of the
    given kind; where is the path text of obj[key]."""
    if key not in obj:
        raise InputError(f"{where}: missing")
    return obj[key] if kind is None else typed(obj[key], kind, where)


def key_int(text, where):
    """The integer n an object key names; the key must be exactly str(n),
    so "01", "+1", " 1" and "0_1" raise InputError rather than alias 1."""
    try:
        n = int(text)
        if str(n) == text:
            return n
    except ValueError:
        pass
    raise InputError(f"{where}: a key must be the decimal digits of the integer it names")
