"""Exception hierarchy shared across the package."""


class TsrmError(Exception):
    """Base class for all package errors."""


class ConfigError(TsrmError):
    """Invalid hyperparameter, shape, or run-configuration combination."""


class DataError(TsrmError):
    """Malformed or unusable input data (CSV cells, empty datasets, ...)."""


class NumericsError(TsrmError):
    """Training aborted on non-finite loss; carries the failing epoch/batch."""

    def __init__(self, message, epoch=None, batch=None, breakdown=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.breakdown = breakdown


class CheckpointError(TsrmError):
    """Base class for checkpoint load/save failures."""


class MissingCheckpointError(CheckpointError):
    """Checkpoint directory or one of its files does not exist."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint files exist but their contents are inconsistent."""


class CorruptConfigError(CorruptCheckpointError, ConfigError):
    """A config section a checkpoint carries does not decode."""


class ShapeMismatchError(CheckpointError):
    """Manifest-declared shapes disagree with the stored blob or config."""


class UnsupportedVersionError(CheckpointError):
    """Checkpoint was written with an unknown format version."""
