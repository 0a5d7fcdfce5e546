"""Exception and warning types shared across the package."""


class SmframeError(Exception):
    """Base class for all package errors."""


class DegenerateRetraction(SmframeError):
    """Point cannot be retracted onto the target manifold."""


class FrameInvalid(SmframeError):
    """Frame field violates orthonormality or tangency."""


class InvalidStep(SmframeError):
    """Time step is nonpositive or otherwise unusable."""


class NegativeEnergy(SmframeError):
    """Lorentz energy density went negative: the constraint was breached."""


class FormatError(SmframeError):
    """Snapshot file is malformed; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CadenceMismatch(SmframeError):
    """Two runs being compared were logged at different cadences."""


class ConfigError(SmframeError):
    """Run configuration failed validation; carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class CFLViolation(UserWarning):
    """Explicit step size exceeds the dispersive stability estimate."""


class MeanHolonomy(UserWarning):
    """`remove_mean_connection` gauged away a mean connection whose torus
    holonomy on an axis exceeds 2 pi 1e-8; warned once per such axis, 1D or 2D."""
