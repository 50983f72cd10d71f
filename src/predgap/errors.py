"""Exception hierarchy, the CLI exit codes attached to it, and file IO.

Every file the package reads or writes goes through ``read_text``,
``read_json`` or ``write_text``, so a file that cannot be read, decoded or
written is always a FormatError.  ``json_number`` is the one rule for a
number in a JSON file.
"""

import json
import numbers


class PredgapError(Exception):
    """Base class for every error raised by this package."""


class FormatError(PredgapError):
    """A file could not be parsed under the requested format."""


class ValidationError(PredgapError):
    """Inputs violate a structural contract (shape, range, consistency)."""


class NumericDomainError(PredgapError):
    """A mathematically undefined quantity was requested."""


# CLI exit codes; argparse itself exits with EXIT_USAGE on bad flags.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


def exit_code_for(exc: PredgapError) -> int:
    if isinstance(exc, NumericDomainError):
        return EXIT_NUMERIC
    return EXIT_VALIDATION


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file without a leading byte-order mark, line
    endings untranslated."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from None


def read_json(path, what: str):
    """The decoded JSON content of a file."""
    try:  # the JSON decoder recurses once per level of nesting
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past the string conversion limit
        raise FormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: {what} nested too deeply to parse") from None


def json_number(value) -> float:
    """A number read from JSON (a real number, not a bool) as a float.

    Anything else raises ``TypeError``, and an int beyond the float range
    raises ``OverflowError``.
    """
    # float and int come first, so the numbers of a JSON file skip the
    # slower abstract-base-class check (numpy scalars take that path).
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"not a number: {value!r}")


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None
