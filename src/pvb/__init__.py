"""Pandora's multi-variable branching: abstract model, distribution fitting,
probabilistic-lookahead stopping, simulation harness, and a miniature
branch-and-bound solver wired to the same branching rule."""

import csv

__version__ = "0.1.0"


class InputError(ValueError):
    """A fault in a user's input; its message names the file or setting.
    The command line reports it on stderr with exit code 2."""


def read_lines(path, error=InputError) -> list[str]:
    """The lines of a UTF-8 text file, a leading byte-order mark dropped and
    line ends kept as written (csv needs them). A file that cannot be
    opened or decoded raises error, whose message names path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return handle.readlines()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def read_csv(path, error=InputError) -> list[list[str]]:
    """The rows of a CSV file read by read_lines; a row that csv cannot
    parse, such as one with an over-long field, raises error with path:line."""
    reader = csv.reader(read_lines(path, error))
    try:
        return list(reader)
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from None
