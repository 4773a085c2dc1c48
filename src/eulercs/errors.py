"""Exception types shared across the package."""


class EulerCSError(Exception):
    """Base class for all package errors."""


class Infeasible(EulerCSError):
    """A construction that cannot be made as asked (CLI exit code 3)."""


class InvalidPrime(EulerCSError):
    pass


class FieldTooLarge(Infeasible):
    pass


class DivisionByZero(EulerCSError):
    pass


class InvalidInput(EulerCSError):
    pass


class InvalidOrder(Infeasible):
    pass


class DegreeTooLarge(EulerCSError):
    pass


class DegreeMismatch(EulerCSError):
    pass


class IndexNotConstructible(Infeasible):
    pass


class IndexTooSmall(Infeasible):
    pass


class UnsupportedRowSize(Infeasible):
    pass


class NothingToExtend(Infeasible):
    pass


class HadamardUnavailable(Infeasible):
    pass


class DegenerateColumn(EulerCSError):
    pass


class BoundUndefined(EulerCSError):
    pass


class ProvenanceRequired(EulerCSError):
    pass


class ShapeError(EulerCSError):
    pass


class InvalidSparsity(EulerCSError):
    pass


class UndefinedSNR(EulerCSError):
    pass


class ConvergenceFailure(EulerCSError):
    """Solver did not converge; carries the best iterate found."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class PatchGridError(EulerCSError):
    pass


class PatchSizeError(EulerCSError):
    pass


class LabelError(EulerCSError):
    pass


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
