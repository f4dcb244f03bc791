"""Exception types shared across the package.

Two broad families matter to callers: `InputError` (bad files, bad rows,
bad usage -- CLI exit code 2) and the remaining `QevoError` subclasses
(domain/invariant failures -- CLI exit code 1).
"""


class QevoError(Exception):
    """Base class for all package errors."""


class InputError(QevoError):
    """Unreadable or malformed external input (file/CLI level)."""

    @classmethod
    def not_utf8(cls, path, exc: UnicodeDecodeError) -> "InputError":
        """The error for a file that does not decode as UTF-8, naming the bad bytes."""
        bad = exc.object[exc.start : exc.end].hex(" ")
        return cls(f"{path} is not UTF-8 text ({exc.reason}: {bad})")


class MalformedRowError(InputError):
    """A trace row failed to parse; carries the offending row index."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class SampleOverflowError(InputError):
    """Trace values whose duplicate-timestamp or bucket sum overflows float64."""


class SparseTraceError(InputError):
    """Trace timestamps spread over far more interval buckets than they occupy."""


class TimestampRangeError(InputError):
    """Trace timestamps too far from 0 to number their interval buckets."""


class EmptyTraceError(QevoError):
    """Trace contains no usable samples."""


class ConstantSeriesError(QevoError):
    """Series min equals max; min-max normalization is undefined."""


class SeriesTooShortError(QevoError):
    """Series shorter than window size + 1; no window rows can be built."""


class EmptyPartitionError(QevoError):
    """A train/test split would leave one side empty."""


class DimensionMismatchError(QevoError):
    """Vector/matrix sizes inconsistent with the network architecture."""


class LengthMismatchError(QevoError):
    """Metric inputs have different lengths."""


class EmptyInputError(QevoError):
    """Metric inputs are empty."""


class PopulationTooSmallError(QevoError):
    """Population cannot supply the distinct donor indices modulation needs."""


class MonotonicityViolationError(QevoError):
    """Best-fitness trajectory increased; elitist selection was broken."""


class GenomeFormatError(InputError):
    """Genome file is not a valid serialized genome."""


class CheckpointFormatError(InputError):
    """Checkpoint file is not a valid serialized training checkpoint."""


class MalformedReportError(InputError):
    """Report/forecast file cannot be interpreted."""
