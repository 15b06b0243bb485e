"""Exception types shared across the package.

Each class corresponds to one failure mode of the public operations, so
callers can catch exactly the condition they care about.  ``GPSpecError``
is the common base.
"""


class GPSpecError(Exception):
    """Base class for all errors raised by this package."""


class NonPrime(GPSpecError):
    """A value required to be prime is not."""


class CapExceeded(GPSpecError):
    """A requested object is larger than the configured size cap."""


class BadK(GPSpecError):
    """k does not divide q - 1, so R_k is rejected."""


class BadInput(GPSpecError):
    """Arguments violate a basic precondition (e.g. gcd constraints)."""


class BadP(GPSpecError):
    """The prime p does not satisfy the required congruence."""


class NoSolution(GPSpecError):
    """The base solve of p = u^2 + 3v^2 or u^2 + v^2 found no solution.

    Cannot occur for a prime p = 1 (mod k); raised when no primitive k-th
    root of unity mod p turns up or Cornacchia's step fails, both of which
    mean that p is composite.
    """


class OutOfScope(GPSpecError):
    """The (k, p, m) triple fails the hypotheses of the closed formulas."""


class NonIntegralEigenvalue(GPSpecError):
    """A closed-form eigenvalue division left a remainder.

    Signals an internal inconsistency; must never fire on in-scope input.
    """


class HasLoops(GPSpecError):
    """Complementation requested for a spectrum with loops."""


class NonIntegral(GPSpecError):
    """A numerically computed eigenvalue failed to round to an integer."""

    def __init__(self, residual):
        super().__init__(f"eigenvalue residual {residual:.3e} exceeds tolerance")
        self.residual = residual


class NoConvergence(GPSpecError):
    """The iterative eigensolver did not converge."""

    def __init__(self, sweeps):
        super().__init__(f"no convergence after {sweeps} sweeps")
        self.sweeps = sweeps
