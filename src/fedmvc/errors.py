"""Exception types shared across the package."""


class FedmvcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FedmvcError, ValueError):
    """A configuration value is missing, out of range, or inconsistent."""


class DimensionError(FedmvcError, ValueError):
    """Matrix shapes do not conform for the requested operation."""


class DataFormatError(FedmvcError, ValueError):
    """A dataset or checkpoint file is malformed."""


class TrainingError(FedmvcError, RuntimeError):
    """Training produced a non-finite loss or gradient."""


class NonFiniteError(FedmvcError, ValueError):
    """Values are NaN or infinite, or so large that squaring them overflows."""
