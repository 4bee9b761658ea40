"""Exceptions shared across more than one module, `utf8_lines`, which turns
a byte of a text file that is not UTF-8 into a ConfigError, `read_jsonl`,
the one reader of line-delimited JSON files, and `in_file`, which names the
file of a ParseError. Module-specific errors live next to the code that
raises them."""

import contextlib
import io
import json


class PatvarError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PatvarError):
    """A file or response could not be parsed; carries a location when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantViolation(PatvarError):
    """A domain object failed one of its structural invariants."""


class ProviderFailure(PatvarError):
    """An annotation provider returned malformed output or failed outright."""


class ConfigError(PatvarError):
    """Experiment configuration is missing, malformed, or inconsistent."""


def utf8_lines(fh, path):
    """The lines of `fh`, a file opened as UTF-8 text. A byte that is not
    UTF-8 raises ConfigError naming `path` and the byte's line."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


@contextlib.contextmanager
def in_file(path):
    """Re-raise a ParseError of the body as a ConfigError naming `path`."""
    try:
        yield
    except ParseError as exc:
        raise ConfigError(f"{path} {exc}") from None


def read_jsonl(path) -> list[tuple[int, object]]:
    """(line number, record) for each non-blank line; ConfigError naming
    `path` and the line for a line that is not UTF-8 or not JSON."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path), start=1):
            if line.strip():
                try:
                    records.append((lineno, json.loads(line)))
                except ValueError as exc:
                    raise ConfigError(f"{path} line {lineno}: not JSON ({exc})") from None
    return records


def _not_utf8(path) -> ConfigError:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines end where a file opened in text mode ends them.
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        line = before.count("\n") + 1
        return ConfigError(f"{path} line {line}: not UTF-8 ({exc.reason} at byte {exc.start})")
    return ConfigError(f"{path}: not UTF-8")
