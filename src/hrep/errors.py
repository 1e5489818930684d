"""Exception hierarchy shared by all hrep modules."""


def math_check(condition: bool, message: str) -> None:
    """Raise IdentityFailed unless ``condition`` holds.

    The raise is explicit, so ``python -O`` cannot strip the check.
    """
    if not condition:
        raise IdentityFailed(message)


def unwrap(outcome):
    """The value a batched computation gave for one input: raise it if it
    is the HrepError that input raised, else return it."""
    if isinstance(outcome, HrepError):
        raise outcome
    return outcome


class HrepError(Exception):
    """Base class for all errors raised by this package."""


class IdentityFailed(HrepError):
    """A mathematical identity is falsified; the input itself was valid."""


class NotAGroup(HrepError):
    """A Cayley table fails one of the group axioms.

    For associativity failures, ``triple`` holds the first violating
    (i, j, k) in lexicographic order.
    """

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class InvalidSpec(HrepError):
    """A group construction request has invalid parameters."""


class EnumerationBoundExceeded(HrepError):
    """An exhaustive enumeration was requested above its size bound."""


class NotNormal(HrepError):
    """A subgroup required to be normal is not."""


class NotAbelian(HrepError):
    """An operation defined only for abelian groups got a nonabelian one."""


class NoExtension(HrepError):
    """A character cannot be extended to the requested overgroup."""


class NotCoabelian(HrepError):
    """The quotient by the candidate scalar group is not abelian."""


class NotInvariant(HrepError):
    """A character is not invariant under ambient conjugation."""


class Degenerate(HrepError):
    """The commutator pairing is degenerate on the quotient."""


class NotACharacter(HrepError):
    """A value map is not a multiplicative character; ``witness`` is a
    pair (x, y) with chi(xy) != chi(x) + chi(y), when the failure has one."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionFailed(HrepError):
    """A named hypothesis of a transfer computation does not hold."""


class NotAnExtension(HrepError):
    """The supplied character does not restrict to the scalar character."""


class KernelNotReduced(HrepError):
    """The operation requires a pair whose scalar character is faithful."""


class InvalidPrime(HrepError):
    """The order-p^3 classification needs an odd prime p with p^3 at most
    ``induced_det.P3_ORDER_BOUND``."""
