"""Shattering, VC dimension, and the characteristic-function machinery.

A family F shatters y when every x <= y arises as z ^ y (meet) for some
z in F.  The linear-algebra side works with the indicator rows
chi_x(y) = [y >= x], which are the up-masks ``lattice.up[x]`` read as 0/1
vectors.  ``char_rows`` restricts them to a family's columns; those rows
carry the spanning/elimination certificates that bound |F| by |Str(F)|.
"""

from fractions import Fraction

from . import linalg
from .core import _bits, _check_elements
from .errors import (
    CheckFailed,
    ElementIsShattered,
    EmptyFamily,
    ForbiddenFamily,
    NoNonvanishingWitness,
    NotRanked,
)
from .mobius import _table_for, mobius_table


def _realized(lattice, family, y):
    # realized_meets without the range check, for callers that made it
    got = 0
    element = lattice.element
    down = lattice.down
    below = down[y]
    for z in family:
        got |= 1 << element[below & down[z]]
    return got


def realized_meets(lattice, family, y):
    """Bitmask of the meets z ^ y over the members z of the family."""
    fam = tuple(family)
    _check_elements(lattice.n, (y, *fam), "realized_meets")
    return _realized(lattice, fam, y)


def shatters(lattice, family, y):
    """True iff every x <= y equals z ^ y for some z in the family."""
    fam = tuple(family)
    _check_elements(lattice.n, (y, *fam), "shatters")
    return lattice.down[y] & ~_realized(lattice, fam, y) == 0


def shattered_set(lattice, family):
    """Str(F): all shattered elements.  Always downward-closed.

    The meets z ^ y over the members z are elements below y, and distinct
    elements have distinct down-sets, so y is shattered exactly when the
    down-sets down[y] & down[z] take |down[y]| distinct values.  Each
    member's down-set is read once.
    """
    fam = tuple(family)
    _check_elements(lattice.n, fam, "shattered_set")
    members = [lattice.down[z] for z in fam]
    size = len(members)
    return frozenset(
        y for y, below in enumerate(lattice.down)
        if below.bit_count() <= size
        and len({below & d for d in members}) == below.bit_count())


def vc_dim(lattice, family):
    """Maximum rank of a shattered element."""
    if lattice.rank is None:
        raise NotRanked("VC dimension needs a ranked lattice")
    sset = shattered_set(lattice, family)
    # every member meets the bottom there: only F = {} shatters nothing
    if not sset:
        raise EmptyFamily("VC dimension of the empty family is undefined")
    return max(lattice.rank[y] for y in sset)


def char_rows(lattice, row_elements, col_elements):
    """Rows chi_x (x in row_elements) restricted to the given columns."""
    rows = tuple(row_elements)
    cols = tuple(col_elements)
    _check_elements(lattice.n, rows + cols, "char_rows")
    return [[(lattice.up[x] >> y) & 1 for y in cols] for x in rows]


def basis_check(lattice):
    """True iff the chi_x rows have full rank |L| over the rationals.

    Reordered by any linear extension the matrix is unitriangular, so this
    always holds; the function recomputes the rank exactly rather than
    assuming it.
    """
    full = char_rows(lattice, range(lattice.n), range(lattice.n))
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
    A ``table`` passed in must have the lattice's order (ValueError).
    """
    fam = frozenset(family)
    if shatters(lattice, fam, z):
        raise ElementIsShattered(f"family shatters {lattice.names[z]!r}")
    table = _table_for(lattice, table)
    realized = realized_meets(lattice, fam, z)
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
    if not cert.verify(lattice, fam):
        raise CheckFailed("elimination identity fails on the family")
    return cert


def elimination_rc(lattice, family, z):
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
    table = mobius_table(lattice)
    if z != lattice.top or table.mu(lattice.bottom, lattice.top) != 0:
        return elimination(lattice, fam, z, table=table)

    cols = sorted(fam)
    others = [y for y in range(lattice.n) if y != z]
    rows = char_rows(lattice, others, cols)
    target = char_rows(lattice, [z], cols)[0]
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
    rows = char_rows(lattice, sset, fam)
    return linalg.rank(rows)
