"""Exception hierarchy shared across the package.

The command line driver maps these onto process exit codes: configuration
problems exit with 2, numerical failures with 3, and I/O trouble with 4.  A
numerical failure includes a HUM control that hum_control could not verify.
"""

__all__ = ["FraclabError", "ConfigError", "NumericalError", "UncontrollableError"]


class FraclabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FraclabError):
    """Invalid run configuration (bad key, malformed value, out of range)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(FraclabError):
    """A numerical procedure failed to meet its accuracy or stability contract."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class UncontrollableError(NumericalError):
    """Control synthesis refused: the observability constant is numerically zero."""
