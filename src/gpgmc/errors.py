"""Exception types shared across the package."""


class GpgmcError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(GpgmcError):
    """Operands have incompatible dimensions."""


class TooFewPoints(GpgmcError):
    """Design too small for the requested factorization."""


class IllConditioned(GpgmcError):
    """A kernel matrix factorization failed; raising the nugget may help."""


class MissingPerDatum(GpgmcError):
    """Operation needs per-datum potentials that the design does not carry."""


class DesignFileError(GpgmcError):
    """A design file or its per-datum sidecar cannot be read."""


class ChainFileError(GpgmcError):
    """A chain CSV cannot be opened or parsed."""


class DegenerateKernel(GpgmcError):
    """Requested more eigenpairs than the numerically nonzero spectrum."""


class Divergence(GpgmcError):
    """A trajectory left the finite or positive-definite range; the one error
    a transition kernel catches, rejecting with no exact evaluation."""


class SolverFailure(Divergence):
    """The discrete PDE system could not be solved; a proposal that needs
    the solve diverges."""


class OptimFailed(GpgmcError):
    """All hyperparameter optimization restarts diverged."""


class RejectionBudgetExhausted(GpgmcError):
    """Rejection sampling used up its trial budget."""


class AllDegenerate(GpgmcError):
    """Every candidate's selection criterion is undefined."""


class ConfigError(GpgmcError):
    """Run configuration violates the schema; the args ``(path, message)``
    let it pickle, so it crosses from a ``--chains`` worker."""

    def __init__(self, path: str, message: str):
        super().__init__(path, message)
        self.path = path

    def __str__(self):
        return f"{self.path}: {self.args[1]}"
