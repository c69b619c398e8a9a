"""Exception types shared across the toolkit."""


class InvalidArgumentError(ValueError):
    """An operation received an argument outside its documented domain."""


class InvalidSpecError(InvalidArgumentError):
    """A population or experiment specification violates its invariants."""


class ExtrapolationRefusedError(ValueError):
    """Requested environment lies outside the calibration anchor hull.

    Raised instead of silently clamping to the nearest anchor.
    """


class EmptySignatureError(InvalidArgumentError):
    """A mask or filter would leave zero signature positions."""


class InsufficientLengthError(InvalidArgumentError):
    """A bit sequence is shorter than the statistical test requires."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message
