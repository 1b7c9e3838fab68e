"""Exception types shared across the package."""

import zipfile
from contextlib import contextmanager


class PrevmapError(Exception):
    """Base class for all package-specific errors."""


class InvalidGeometryError(PrevmapError):
    """Degenerate or malformed polygon / mesh input."""


class RefinementError(PrevmapError):
    """Mesh refinement could not satisfy the quality constraints."""


class NotPositiveDefiniteError(PrevmapError):
    """A matrix required to be SPD failed factorization."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ConvergenceError(PrevmapError):
    """Iterative optimisation failed to converge."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class NoDataError(PrevmapError):
    """An operation was asked for on an empty data subset."""


class ConfigError(PrevmapError):
    """Invalid pipeline configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"[{key}] {message}")
        self.key = key


class DataError(PrevmapError):
    """Missing or malformed input data file."""


@contextmanager
def reading(path):
    """Turn a missing field (KeyError), a malformed value or a damaged
    archive met while reading ``path`` into a DataError naming it."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, EOFError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: {exc}") from exc
