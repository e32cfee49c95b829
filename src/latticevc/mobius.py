"""Mobius function of a finite poset, inversion and sign checks.

All arithmetic is exact (Python integers); values on product lattices can
exceed machine width, which is why nothing here touches floats.

A table keeps one list per element: row x holds mu(x, y) at index y for
every y >= x, filled along the lattice's linear extension.  Pairs are read
off the up-masks in index order, so nothing is ever sorted.
"""

from .core import _bits, _check_elements
from .errors import NotRanked


class MobiusTable:
    """mu(x, y) for every comparable pair x <= y of one lattice.

    ``rows[x][y]`` is mu(x, y) when x <= y; the other entries of a row are
    unused, so every lookup checks the order first.
    """

    def __init__(self, lattice, rows):
        self.lattice = lattice
        self._rows = rows

    def mu(self, x, y):
        lat = self.lattice
        _check_elements(lat.n, (x, y), "mu")
        if not lat.leq(x, y):
            raise ValueError(
                f"mu undefined: {lat.names[x]!r} is not below "
                f"{lat.names[y]!r}")
        return self._rows[x][y]

    def pairs(self):
        """All (x, y, mu) triples, ordered by x and then by y."""
        for x, row in enumerate(self._rows):
            for y in _bits(self.lattice.up[x]):
                yield x, y, row[y]

    def __len__(self):
        return sum(m.bit_count() for m in self.lattice.up)


def mobius_table(lattice):
    """Full table via the defining recurrence along a linear extension."""
    up = lattice.up
    down = lattice.down
    rows = []
    for x in range(lattice.n):
        row = [0] * lattice.n
        row[x] = 1
        for y in lattice.linext:
            if y != x and (up[x] >> y) & 1:
                row[y] = -sum(row[z] for z in _bits(up[x] & down[y] & ~(1 << y)))
        rows.append(row)
    return MobiusTable(lattice, rows)


def vanishing_pairs(lattice, table=None):
    """Comparable pairs with mu = 0 in index order; empty iff nonvanishing."""
    if table is None:
        table = mobius_table(lattice)
    return [(x, y) for x, y, v in table.pairs() if v == 0]


def check_inversion(lattice, g, table=None):
    """Verify both Mobius inversion identities for the values ``g``.

    ``g`` is indexed by element; summation over up-sets defines f, and the
    mu-weighted sums must recover g exactly.  The dual (down-set) direction
    is checked too.  Returns True iff both recoveries are exact.
    """
    if table is None:
        table = mobius_table(lattice)
    n = lattice.n
    up = lattice.up
    down = lattice.down
    f_up = [sum(g[y] for y in _bits(up[x])) for x in range(n)]
    for x in range(n):
        rec = sum(table.mu(x, y) * f_up[y] for y in _bits(up[x]))
        if rec != g[x]:
            return False
    f_dn = [sum(g[x] for x in _bits(down[y])) for y in range(n)]
    for y in range(n):
        rec = sum(table.mu(x, y) * f_dn[x] for x in _bits(down[y]))
        if rec != g[y]:
            return False
    return True


def weisner_check(lattice, table=None):
    """Strict sign alternation: (-1)^(r(y)-r(x)) * mu(x, y) > 0 for all x <= y.

    Holds on every geometric lattice; in particular such lattices have
    nonvanishing Mobius function.
    """
    if lattice.rank is None:
        raise NotRanked("sign check needs a ranked lattice")
    if table is None:
        table = mobius_table(lattice)
    r = lattice.rank
    for x, y, v in table.pairs():
        if (-1) ** (r[y] - r[x]) * v <= 0:
            return False
    return True
