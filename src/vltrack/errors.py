"""Exception types shared across the package."""


class VLTrackError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(VLTrackError, ValueError):
    """Operands have incompatible shapes."""


class ConfigurationError(VLTrackError, ValueError):
    """A configuration value is invalid or inconsistent."""


class ContractError(VLTrackError, ValueError):
    """A documented precondition of an operation was violated."""


class VocabularyError(VLTrackError, ValueError):
    """A token id falls outside the embedding table."""


class ParseError(VLTrackError, ValueError):
    """A data file could not be parsed.

    Carries the 1-based offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(VLTrackError, ValueError):
    """A checkpoint file is malformed or incompatible."""


class TrainingDiverged(VLTrackError, RuntimeError):
    """Training produced a non-finite loss; the message carries the breakdown."""


class PeerDied(VLTrackError, RuntimeError):
    """The forked peer process of a training step exited before it replied."""
