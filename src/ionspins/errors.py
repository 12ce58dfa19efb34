"""Every exception the library raises on purpose, under two roots.

``ValueError`` (CLI exit 2): the request is invalid.  ``NumericalFailure``
(CLI exit 3): the request was valid but gave no trustworthy result.  Each
cause a caller has to tell apart has one class.  A scan records a failed
point per field; a whole detuning column fails only on a resonance.
"""

class NumericalFailure(RuntimeError):
    """A valid request that produced no trustworthy result."""


class ResonanceError(ValueError):
    """Detuning sits on (or too close to) a phonon mode, where J_mn diverges."""


class ZigzagInstability(NumericalFailure):
    """The linear chain is transversally unstable (non-positive mode eigenvalue)."""


class DegenerateModes(NumericalFailure):
    """Two transverse eigenvalues coincide; integer mode labels would be ambiguous."""


class NoConvergence(NumericalFailure):
    """An iterative solve or an eigendecomposition missed its convergence or residual bound."""


class AmbiguousGround(NumericalFailure):
    """Distinct spin orders tie for the classical minimum (an exact crossing)."""

    def __init__(self, orders, energy):
        self.orders = tuple(sorted(orders, key=lambda o: o.canonical))
        self.energy = energy
        names = ", ".join(o.bits for o in self.orders)
        super().__init__(f"degenerate classical minimum across orders {{{names}}}")


class TransitionLost(NumericalFailure):
    """No sharp FM/kink transition inside the bracket at the requested field.

    Raised when the order parameter is no longer saturated (|OP| > 0.5 with
    opposite signs) at the two bracket ends (the transition line has
    terminated into the polarized crossover at this field), when the
    zero-field interval (N-2, N-1) shows no FM->kink order change, or when
    the gap along the fixed-field scan has no interior minimum.
    """


class CheckFailure(NumericalFailure):
    """A written artifact violates one of its module invariants."""
