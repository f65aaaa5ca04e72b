"""Exception hierarchy for mfglab."""


class MFGLabError(Exception):
    """Base class for all mfglab errors."""


class ModelError(MFGLabError):
    """Invalid model coefficients."""


class ConfigError(MFGLabError):
    """Config file cannot be parsed or contains unknown/invalid keys."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoRealRootError(MFGLabError):
    """The leading quadratic of the root system has no real root."""


class DegenerateA3Error(MFGLabError):
    """The linear equation for the third coefficient is degenerate."""

    def __init__(self, a1, a2):
        self.a1 = a1
        self.a2 = a2
        super().__init__(
            f"third-coefficient equation degenerate for (a1, a2) = ({a1!r}, {a2!r})"
        )


class NoAdmissibleRootError(MFGLabError):
    """No candidate produces stable (square-integrable discounted) dynamics."""


class AmbiguousRootError(MFGLabError):
    """More than one candidate passes the stability selection."""


class RestPointMismatchError(MFGLabError):
    """An algebraic root is not a rest point of the finite-horizon ODE."""


class BlowUpError(MFGLabError):
    """Backward ODE integration blew up before reaching t = 0."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"Riccati integration blew up at t = {t:g}")


class DivergedError(MFGLabError):
    """A simulated state became non-finite."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"non-finite state at step {step}")


class StepTooLargeError(MFGLabError):
    """Configured time step violates the advection CFL condition."""
