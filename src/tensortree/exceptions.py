"""Exception types shared across the package."""


class TensorTreeError(Exception):
    """Base class for errors raised by this package."""


class NumericalError(TensorTreeError):
    """A decomposition failed to converge or quartet scores are not finite; no partial result."""


class ModelError(TensorTreeError):
    """A tree or its parameterization violates a structural requirement."""


class ParseError(TensorTreeError):
    """Malformed input text (Newick, sample CSV, or model file)."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (offset {position})"
        super().__init__(message + where)
