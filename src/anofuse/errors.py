"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions disagree with what an operation requires."""


class ConfigurationError(ValueError):
    """A config value (kernel size, temperature, group count, ...) is invalid."""


class TrainingError(RuntimeError):
    """Training diverged or trains nothing; `train` attaches the loss trace."""


class UndefinedMetricError(ValueError):
    """A ranking metric was requested on data where it is undefined."""


class DatasetError(ValueError):
    """A dataset directory or graymap file is missing or malformed."""
