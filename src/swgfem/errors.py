"""Exception types raised by mesh construction, assembly, and solves."""


class SwgError(Exception):
    """Base class for all errors raised by this package."""


class NonMonotoneBreaks(SwgError, ValueError):
    """Breakpoint array is not strictly increasing."""


class TooFewPoints(SwgError, ValueError):
    """Breakpoint array has fewer than two entries."""


class ZeroSubdivisions(SwgError, ValueError):
    """Uniform mesh requested with fewer than one subdivision."""


class IndexOutOfRange(SwgError, IndexError):
    """Element index outside the mesh."""


class NonPositiveMeshsize(SwgError, ValueError):
    """Global meshsize must be positive."""


class NonPositiveDiffusion(SwgError, ValueError):
    """Diffusion coefficient not strictly positive at a quadrature point."""


class NegativeReaction(SwgError, ValueError):
    """Reaction coefficient is negative on an element."""


class NonFiniteData(SwgError, ValueError):
    """A coefficient or data function is NaN or infinite at a sample point."""


class SingularConfig(SwgError, ValueError):
    """Assembly configuration cannot produce a solvable system."""


class NonPositiveKappa(SwgError, ValueError):
    """Stabilization parameter must be positive."""


class SingularMatrix(SwgError, RuntimeError):
    """Sparse factorization failed or produced non-finite values."""


class NoConvergence(SwgError, RuntimeError):
    """Iterative solver stopped without reaching the residual target."""

    def __init__(self, iterations, residual):
        super().__init__(
            "no convergence after %d iterations (relative residual %.3e)"
            % (iterations, residual)
        )
        self.iterations = iterations
        self.residual = residual


class NonUniformMesh(SwgError, ValueError):
    """Operation is only defined on uniform square meshes."""


class UnknownProblem(SwgError, ValueError):
    """Problem id not present in the registry."""
