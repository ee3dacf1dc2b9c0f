"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class LayoutError(ShapeError):
    """A token sequence does not match its declared template/search layout."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class UsageError(RuntimeError):
    """An API was called in a way its contract forbids."""


class ParseError(ValueError):
    """A text input (config file, groundtruth file) could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(IOError):
    """A checkpoint file is malformed, truncated, or fails its CRC."""
