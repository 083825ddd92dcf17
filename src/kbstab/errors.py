"""Exception types shared across the library."""


class KbstabError(Exception):
    """Base class for library-specific errors."""


class IndefiniteMatrixError(KbstabError, ValueError):
    """A matrix required to be positive semidefinite is indefinite."""


class CertificateError(KbstabError, ValueError):
    """A stability certificate cannot be constructed.

    ``hypothesis`` names the failed hypothesis so front-ends can report it.
    """

    def __init__(self, message, hypothesis=""):
        super().__init__(message)
        self.hypothesis = hypothesis


class NotContractiveError(CertificateError):
    def __init__(self, message):
        super().__init__(message, hypothesis="contractivity")


class NotFullyObservedError(CertificateError):
    def __init__(self, message):
        super().__init__(message, hypothesis="full observation")


class NoCertificateError(CertificateError):
    """Hypotheses hold individually but no positive rate can be certified."""


class ExperimentDivergenceError(KbstabError, RuntimeError):
    """More than the tolerated fraction of Monte Carlo paths diverged.

    The partial result is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ConfigError(KbstabError, ValueError):
    """Malformed command-line or config-file input."""
