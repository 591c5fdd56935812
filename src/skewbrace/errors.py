"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class OrderCapExceeded(AlgebraError):
    pass


class InvalidGroup(AlgebraError):
    """A multiplication table failed the group axioms."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__(f"not a group: {violations}")


class LambdaNotAutomorphism(AlgebraError):
    """The two tables do not form a skew brace: some lambda map is not an automorphism."""

    def __init__(self, element, witness=None):
        self.element = element
        self.witness = witness
        super().__init__(f"lambda map of element {element} is not an automorphism (witness {witness})")


class CriterionMismatch(AlgebraError):
    """Two provably equivalent computations disagreed; signals an implementation bug."""


class NotHomomorphism(AlgebraError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"map is not a homomorphism at pair ({a}, {b})")


class NotAntiHomomorphism(AlgebraError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"map is not an anti-homomorphism at pair ({a}, {b})")


class NotAutomorphism(AlgebraError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"assigned map of element {element} is not an automorphism")


class KernelConditionFails(AlgebraError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"kernel condition fails at pair ({a}, {b})")


class NotExactFactorization(AlgebraError):
    pass


class NotBilinear(AlgebraError):
    pass


class NotEndomorphismModCenter(AlgebraError):
    pass


class ImageNotAbelianModCenter(AlgebraError):
    pass


class CarrierMismatch(AlgebraError):
    pass


class BaseMismatch(AlgebraError):
    pass


class PreconditionFails(AlgebraError):
    def __init__(self, condition, witness=None):
        self.condition = condition
        self.witness = witness
        super().__init__(f"precondition failed: {condition} (witness {witness})")


class NotAnIdeal(AlgebraError):
    pass


class NotRotaBaxter(AlgebraError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map violates the Rota-Baxter identity (witness {witness})")


class RankMismatch(AlgebraError):
    pass


class NotInKernel(AlgebraError):
    pass


class WindowTooSmall(AlgebraError):
    pass
