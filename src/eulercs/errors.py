"""Exception types shared across the package.

Four classes.  An error's class is its CLI exit code: InvalidInput
exits 2, Infeasible exits 3, and every other EulerCSError, ParseError
among them, exits 1.  A solver that does not converge raises nothing:
it returns its last iterate with converged=False.
"""


class EulerCSError(Exception):
    """Input data that breaks an invariant (exit 1); base of all package errors."""


class Infeasible(EulerCSError):
    """A construction that cannot be made as asked (exit 3)."""


class InvalidInput(EulerCSError):
    """A value the caller chose that the function does not accept (exit 2)."""


class ParseError(EulerCSError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def decode_utf8(data: bytes, line: int = 1) -> str:
    """data as UTF-8 text whose first line is numbered `line`.

    A byte that is not UTF-8 raises ParseError with its line number.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8 text",
                         line=line + data.count(b"\n", 0, exc.start)) from None
