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


class NonPositiveKappa(SwgError, ValueError):
    """Stabilization parameter must be positive."""


class SingularMatrix(SwgError, RuntimeError):
    """Sparse factorization failed or produced non-finite values."""


class OutOfMemory(SwgError, MemoryError):
    """Direct solve predicted to need more memory than its budget allows."""

    def __init__(self, dofs, predicted_bytes, budget_bytes):
        super().__init__(
            "direct solve of %d dofs is predicted to need %d bytes, above the "
            "memory budget of %d bytes" % (dofs, predicted_bytes, budget_bytes)
        )
        self.dofs = dofs
        self.predicted_bytes = predicted_bytes
        self.budget_bytes = budget_bytes


class NonUniformMesh(SwgError, ValueError):
    """Operation is only defined on uniform square meshes."""


class UnknownProblem(SwgError, ValueError):
    """Problem id not present in the registry."""
