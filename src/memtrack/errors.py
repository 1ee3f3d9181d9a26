"""Exception hierarchy for memtrack.

Numeric failures carry enough context (step index, matrix trace) to locate
the degenerate belief that produced them.
"""


class MemtrackError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(MemtrackError):
    """A matrix required to be SPD failed its Cholesky / pivot check."""


class NonFinite(MemtrackError):
    """NaN or infinity appeared where finite values are required."""


class BadDof(MemtrackError):
    """Degrees of freedom outside the valid range for the operation."""


class EmptyFrame(MemtrackError):
    """A measurement frame with no points."""


class TooFewPoints(MemtrackError):
    """Track initialization needs at least two scatterers."""


class SingularExtension(MemtrackError):
    """Extension matrix is not invertible."""


class SingularInnovation(MemtrackError):
    """Innovation covariance is not invertible."""


class LengthMismatch(MemtrackError):
    """Paired sequences have different lengths."""


class ShapeMismatch(MemtrackError):
    """Arrays do not conform for the requested operation."""


class TapeEmpty(MemtrackError):
    """Backward pass requested before any forward op was recorded."""


class EmptyDataset(MemtrackError):
    """Training requested on a dataset with no sequences."""


class ConfigError(MemtrackError):
    """Malformed configuration file or option value."""


class StoreError(MemtrackError):
    """Base class for persistence failures."""


class VersionMismatch(StoreError):
    """File format, kind or checkpoint shape table does not match this build."""


class ChecksumMismatch(StoreError):
    """A stored file fails its CRC or disagrees with itself."""
