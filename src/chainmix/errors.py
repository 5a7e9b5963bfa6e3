"""Exception types shared across the package."""


class ChainmixError(Exception):
    """Base class for all library errors."""


class InvalidModelError(ChainmixError):
    """A model violates one of its type invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


class EnumerationBudgetError(ChainmixError):
    """An exact enumeration would exceed the configured enumeration budget."""


class LawMismatchError(ChainmixError):
    """Two laws cannot be compared (different alphabet or string length)."""


class ModelFormatError(ChainmixError):
    """A model / trajectory / config file does not match the documented schema."""


class ReducibleMatrixError(ChainmixError):
    """An operation requiring an irreducible closed matrix got a reducible one."""


class TransientStatesError(ChainmixError):
    """An operation requiring a recurrent chain found transient states."""


class NonRecurrentComponentError(ChainmixError):
    """A mixture component is not recurrent from the start symbol."""

    def __init__(self, component, message):
        self.component = component
        super().__init__(message)


class StructureError(ChainmixError):
    """An HMM-to-mixture conversion's output does not have the input's law at every horizon."""


class ConstructionError(ChainmixError):
    """A model conversion cannot be carried out on this input."""


class InsufficientVisitsError(ChainmixError):
    """A successors row has fewer visits than the configured minimum."""


class InsufficientDataError(ChainmixError):
    """Not enough observed rows to run a recovery."""


class NoTestableRowsError(ChainmixError):
    """No successors row meets the length minimum for testing."""


class RowTooShortError(ChainmixError):
    """A single row is too short to permute meaningfully."""


class TruncationError(ChainmixError):
    """Stopping times are not realized within the enumeration horizon."""


class UnsupportedModelError(ChainmixError, TypeError):
    """An operation does not apply to this model type (also a ``TypeError``)."""
