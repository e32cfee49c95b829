"""Shattering, VC dimension, and the characteristic-function machinery.

A family F shatters y when every x <= y arises as z ^ y (meet) for some
z in F.  The linear-algebra side works with the indicator rows
chi_x(y) = [y >= x]; restricted to a family's columns these rows carry the
spanning/elimination certificates that bound |F| by |Str(F)|.
"""

from fractions import Fraction

from . import linalg
from .core import _bits
from .errors import (
    CheckFailed,
    ElementIsShattered,
    EmptyFamily,
    ForbiddenFamily,
    NoNonvanishingWitness,
    NotRanked,
)
from .mobius import mobius_table


def realized_meets(lattice, family, y):
    """Bitmask of the meets z ^ y over the members z of the family."""
    got = 0
    row = lattice.meet[y]
    for z in family:
        got |= 1 << row[z]
    return got


def shatters(lattice, family, y):
    """True iff every x <= y equals z ^ y for some z in the family."""
    return lattice.down[y] & ~realized_meets(lattice, family, y) == 0


def shattered_set(lattice, family):
    """Str(F): all shattered elements.  Always downward-closed."""
    fam = tuple(family)
    return frozenset(y for y in range(lattice.n) if shatters(lattice, fam, y))


def vc_dim(lattice, family):
    """Maximum rank of a shattered element."""
    if lattice.rank is None:
        raise NotRanked("VC dimension needs a ranked lattice")
    if not family:
        raise EmptyFamily("VC dimension of the empty family is undefined")
    # non-empty families always shatter the bottom, so the max is over a
    # non-empty set
    return max(lattice.rank[y] for y in shattered_set(lattice, family))


class CharMatrix:
    """0/1 matrix with entries[x][y] = 1 iff y >= x; row x is chi_x."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.n = lattice.n

    def entry(self, x, y):
        return (self.lattice.up[x] >> y) & 1

    def dense(self):
        return tuple(tuple((m >> y) & 1 for y in range(self.n))
                     for m in self.lattice.up)

    def restrict(self, row_elements, col_elements):
        """Rows chi_x (x in row_elements) restricted to the given columns."""
        cols = list(col_elements)
        return [[(self.lattice.up[x] >> y) & 1 for y in cols]
                for x in row_elements]


def char_matrix(lattice):
    return CharMatrix(lattice)


def basis_check(lattice):
    """True iff the chi_x rows have full rank |L| over the rationals.

    Reordered by any linear extension the matrix is unitriangular, so this
    always holds; the function recomputes the rank exactly rather than
    assuming it.
    """
    cm = char_matrix(lattice)
    full = cm.restrict(range(lattice.n), range(lattice.n))
    return linalg.rank(full) == lattice.n


class EliminationCert:
    """chi_z restricted to a family, rewritten over strictly smaller elements.

    coeffs maps each y < z to an exact rational gamma_y with
    chi_z(p) = sum_y coeffs[y] * chi_y(p) for every p in the family;
    witness_x is an element no family member meets z at.
    """

    def __init__(self, z, witness_x, coeffs):
        self.z = z
        self.witness_x = witness_x
        self.coeffs = coeffs

    def verify(self, lattice, family):
        up = lattice.up
        for p in family:
            lhs = Fraction((up[self.z] >> p) & 1)
            rhs = sum((g for y, g in self.coeffs.items() if (up[y] >> p) & 1),
                      Fraction(0))
            if lhs != rhs:
                return False
        return True


def elimination(lattice, family, z, table=None):
    """Certificate from a non-shattering witness with nonzero Mobius value.

    Picks the first x <= z (in linext order) such that no family member
    meets z at x and mu(x, z) != 0, and returns the closed-form
    coefficients gamma_y = -mu(x, y) / mu(x, z) for x <= y < z (zero for
    other y < z).  The identity is verified on the family before returning.
    """
    if shatters(lattice, family, z):
        raise ElementIsShattered(f"family shatters {lattice.names[z]!r}")
    if table is None:
        table = mobius_table(lattice)
    realized = realized_meets(lattice, family, z)
    witness = None
    for x in lattice.linext:
        if lattice.leq(x, z) and not (realized >> x) & 1:
            if table.mu(x, z) != 0:
                witness = x
                break
    if witness is None:
        raise NoNonvanishingWitness(
            f"every witness x for {lattice.names[z]!r} has mu(x, z) = 0")
    muz = table.mu(witness, z)
    coeffs = {}
    for y in _bits(lattice.down[z] & ~(1 << z)):
        if lattice.leq(witness, y):
            coeffs[y] = Fraction(-table.mu(witness, y), muz)
        else:
            coeffs[y] = Fraction(0)
    cert = EliminationCert(z, witness, coeffs)
    if not cert.verify(lattice, family):
        raise CheckFailed("elimination identity fails on the family")
    return cert


def elimination_rc(lattice, family, z, table=None):
    """Relaxed certificate for RC lattices whose mu vanishes only at (0, e).

    For z below the top (or when mu(0, e) != 0) this is the plain
    elimination.  In the remaining case the rows chi_y restricted to the
    family, y < e, already span all functions on the family (their columns
    are linearly independent whenever the family misses some element other
    than the bottom), so exact elimination recovers coefficients for chi_e.
    The families L and L-minus-bottom are excluded.
    """
    full = frozenset(range(lattice.n))
    fam = frozenset(family)
    if fam == full or fam == full - {lattice.bottom}:
        raise ForbiddenFamily("family must differ from L and L minus bottom")
    if shatters(lattice, fam, z):
        raise ElementIsShattered(f"family shatters {lattice.names[z]!r}")
    if table is None:
        table = mobius_table(lattice)
    if z != lattice.top or table.mu(lattice.bottom, lattice.top) != 0:
        return elimination(lattice, fam, z, table=table)

    cols = sorted(fam)
    others = [y for y in range(lattice.n) if y != z]
    cm = char_matrix(lattice)
    rows = cm.restrict(others, cols)
    target = cm.restrict([z], cols)[0]
    sol = linalg.solve_combination(rows, target)
    if sol is None:
        raise NoNonvanishingWitness(
            "chi_e is not in the span of the smaller rows; "
            "the lattice does not meet the certificate's preconditions")
    coeffs = {y: sol[i] for i, y in enumerate(others)}
    witness = next(x for x in lattice.linext if x not in fam)
    cert = EliminationCert(z, witness, coeffs)
    if not cert.verify(lattice, fam):
        raise CheckFailed("relaxed elimination identity fails on the family")
    return cert


def spanning_certificate(lattice, family):
    """Exact rank of {chi_y restricted to F : y in Str(F)}.

    Rank |F| proves |Str(F)| >= |F| constructively for this family; the
    rank never exceeds |Str(F)| or |F|.
    """
    fam = sorted(family)
    if not fam:
        return 0
    sset = sorted(shattered_set(lattice, fam))
    rows = char_matrix(lattice).restrict(sset, fam)
    return linalg.rank(rows)
