"""Exception types shared across the package."""

import zipfile
from contextlib import contextmanager


class PrevmapError(Exception):
    """Base class for all package-specific errors."""


class DataError(PrevmapError):
    """Missing or malformed input data; :func:`reading` names its file."""


class InvalidGeometryError(DataError):
    """Degenerate or malformed polygon / mesh input."""


class NoDataError(DataError):
    """An operation was asked for on an empty data subset."""


class RefinementError(PrevmapError):
    """Mesh refinement could not satisfy the quality constraints."""


class NotPositiveDefiniteError(PrevmapError):
    """A matrix required to be SPD failed factorization."""


class ConvergenceError(PrevmapError):
    """Iterative optimisation failed to converge."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class ConfigError(PrevmapError):
    """Invalid pipeline configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"[{key}] {message}")
        self.key = key


@contextmanager
def reading(path):
    """Turn what goes wrong while reading ``path`` into a DataError whose
    message is ``<path>: <what>``: a missing field (KeyError), a malformed
    value, a damaged archive, or a geometry or empty-data error, which
    names no file.  A plain DataError already names its file and passes."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, EOFError,
            zipfile.BadZipFile, InvalidGeometryError, NoDataError) as exc:
        raise DataError(f"{path}: {exc}") from exc
