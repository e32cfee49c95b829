"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for every structured error raised by this package."""


# -- construction / validation ------------------------------------------------

class NotAPoset(LatticeError):
    """The cover graph contains a cycle (or a self-loop)."""


class NotMeetSemilattice(LatticeError):
    """Some pair of elements has no greatest lower bound."""


class NoBottom(LatticeError):
    """The structure has no unique minimal element."""


class NotComparable(LatticeError):
    """An interval endpoint pair x, y with x not below y."""


class NoTop(LatticeError):
    """The operation needs a maximal element and there is none."""


class NotALattice(LatticeError):
    """The operation needs joins, but the structure is only a meet-semilattice."""


class NotRanked(LatticeError):
    """The operation needs a rank function and the structure has none."""


# -- shattering / certificates -------------------------------------------------

class EmptyFamily(LatticeError):
    """VC dimension of the empty family is undefined."""


class ElementIsShattered(LatticeError):
    """Elimination asked for an element the family does shatter."""


class NoNonvanishingWitness(LatticeError):
    """Every witness x of non-shattering has mu(x, z) = 0."""


class ForbiddenFamily(LatticeError):
    """The relaxed elimination excludes the families L and L minus bottom."""


# -- SSP checks -----------------------------------------------------------------

class NotMaximalAntichain(LatticeError):
    """The given element set is not a maximal antichain."""


class PreconditionViolated(LatticeError):
    """A stated caller precondition does not hold for these inputs."""


class FactorNotSSP(LatticeError):
    """Product witness construction requires both factors verified SSP."""


class NotOneMinimal(LatticeError):
    """The non-shattered region does not have exactly one minimal element."""


class NotRC(LatticeError):
    """The operation needs a relatively complemented lattice."""


class CheckFailed(LatticeError):
    """An internally asserted conclusion failed; indicates a bug or a bad precondition."""


# -- builders -------------------------------------------------------------------

class TooLarge(LatticeError):
    """Requested structure exceeds the construction guard."""


class NotPrime(LatticeError):
    """Subspace lattices are built over prime fields only."""


class NotAMatroid(LatticeError):
    """The independent-set list violates a matroid axiom (message says which)."""


class OutOfRange(LatticeError):
    """Numeric argument outside the documented range."""


class DimensionTooSmall(LatticeError):
    """The construction needs ambient dimension at least 2."""


# -- text format ------------------------------------------------------------------

class LatticeFormatError(LatticeError):
    """Malformed lattice text input; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
