"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A dimension, cutoff or occupation is inconsistent or out of budget."""


class DegenerateStateError(ValueError):
    """A construction produced a (numerically) zero vector or zero trace."""


class InsufficientCutoffError(ValueError):
    """A truncated coherent state does not meet the requested norm deficit."""

    def __init__(self, mode: int, cutoff: int, required: int, deficit: float, eps: float):
        self.mode = mode
        self.cutoff = cutoff
        self.required = required
        super().__init__(
            f"mode {mode}: cutoff {cutoff} leaves norm deficit {deficit:.3e} >= eps {eps:.3e}; "
            f"cutoff >= {required} is required"
        )


class MissingMomentError(KeyError):
    """A moment table lacks entries needed by a criterion or a reconstruction."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(f"moment table is missing required entries: {', '.join(self.missing)}")


class InconsistentMomentsError(ValueError):
    """Reconstructed matrix violates density-matrix constraints beyond tolerance."""


class SeriesDivergenceError(ArithmeticError):
    """Moment series shows no decay; the source state is outside the convergent domain."""
