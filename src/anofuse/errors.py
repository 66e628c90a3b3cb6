"""Exception types shared across the package."""


class AnofuseError(Exception):
    """Base of every error below; the CLI reports each as one `error:` line."""


class ShapeError(AnofuseError, ValueError):
    """Array dimensions disagree with what an operation requires."""


class ConfigurationError(AnofuseError, ValueError):
    """A config value (kernel size, temperature, group count, ...) is invalid."""


class TrainingError(AnofuseError, RuntimeError):
    """Training diverged or trains nothing; the message names the step."""


class UndefinedMetricError(AnofuseError, ValueError):
    """A ranking metric was requested on data where it is undefined."""


class DatasetError(AnofuseError, ValueError):
    """A dataset directory or graymap file is missing or malformed."""
