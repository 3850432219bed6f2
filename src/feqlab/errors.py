"""Exception types shared across the package."""


class FeqlabError(Exception):
    """Base class for all library errors."""


class InvariantViolation(FeqlabError):
    """An input object violates a structural invariant.

    ``invariant`` is a short machine-readable name used in CLI error reports.
    """

    invariant = "invalid input"


class EntryOutOfRange(InvariantViolation):
    invariant = "entry out of range"


class NotAssociative(InvariantViolation):
    invariant = "not associative"

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        x, y, z = triple
        super().__init__(f"associativity fails at triple ({x}, {y}, {z})")


class NotAntiHomomorphism(InvariantViolation):
    invariant = "not an anti-homomorphism"


class NotInvolutive(InvariantViolation):
    invariant = "not involutive"


class InvalidMeasure(InvariantViolation):
    invariant = "invalid measure"


class SupportNotCentral(InvariantViolation):
    invariant = "support not central"


class InvalidEnvironment(InvariantViolation):
    invariant = "invalid environment variable"


class ZeroDenominator(FeqlabError):
    """A normalization integral vanished where theory guarantees it cannot."""


class EquivalenceViolation(FeqlabError):
    """The three integral conditions on a d'Alembert function disagree.

    For genuine d'Alembert solutions the conditions are provably equivalent,
    so a violation signals bad input (or an implementation bug), never valid
    data.
    """

    def __init__(self, tau_shift: bool, proportionality: bool, double_mass: bool):
        self.flags = (tau_shift, proportionality, double_mass)
        super().__init__(
            "integral conditions disagree: "
            f"tau_shift={tau_shift} proportionality={proportionality} "
            f"double_mass={double_mass}"
        )
