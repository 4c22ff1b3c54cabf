"""Exception hierarchy shared by all spalmtl modules."""


class SpalMtlError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpalMtlError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(SpalMtlError):
    """Invalid configuration value."""


class DataError(SpalMtlError):
    """Malformed or out-of-range input data."""


class ContractError(SpalMtlError):
    """An operation was called outside its documented contract."""


class CheckpointError(SpalMtlError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Bad magic bytes or otherwise unparseable container."""


class CheckpointVersionError(CheckpointError):
    """Container format version not supported by this build."""


class CheckpointDigestError(CheckpointError):
    """Config digest in the file does not match the stored config."""


class CheckpointTruncatedError(CheckpointError):
    """File ended before all declared sections were read."""
