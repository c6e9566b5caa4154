"""The errors the command maps to exit codes of their own, in a module that imports nothing.

Each is re-exported from the module that raises it, so the command
catches them without loading numpy or the model stack.
"""


class SchemaMismatch(ValueError):
    """A gold label does not parse against the model's schema (training.evaluate)."""


class NonScalarLoss(ValueError):
    """backward() was handed a loss that is not a scalar (autodiff)."""


class EmptyPath(ValueError):
    """A path with no node reached the model (model)."""
