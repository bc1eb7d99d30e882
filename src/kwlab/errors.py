"""Exception types shared across the package."""


class KWLabError(Exception):
    """Base class for all errors raised by kwlab."""


class DomainError(KWLabError):
    """Invalid grid, field, mask or cutoff construction."""


class BlowUpError(KWLabError):
    """The conformal factor exp(2u/n) overflowed the safety cap.

    Carries the offending sup of u; downstream (threshold search) treats
    this as evidence that the instance is unsolvable at this alpha.
    """

    def __init__(self, max_u: float, cap: float):
        self.max_u = float(max_u)
        self.cap = float(cap)
        super().__init__(
            f"exp(2u/n) overflow guard: max u = {self.max_u:.6g} exceeds cap {self.cap:.6g}"
        )


class NumericalFailure(KWLabError):
    """A computation on valid input did not reach its answer: a numerical
    outcome, which the CLI reports with exit code 2, not an operational error."""


class EigenSolveError(NumericalFailure):
    """Smallest-eigenvalue iteration did not reach tolerance.

    best_estimate holds the last Rayleigh quotient.
    """

    def __init__(self, message: str, best_estimate: float):
        self.best_estimate = float(best_estimate)
        super().__init__(f"{message} (best estimate {self.best_estimate:.12g})")


class SolverError(KWLabError):
    """A solver precondition or internal consistency check failed."""
