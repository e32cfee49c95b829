"""Mobius function of a finite poset, inversion and sign checks.

All arithmetic is exact (Python integers); values on product lattices can
exceed machine width, which is why nothing here touches floats.

A table keeps one list per element: row x holds mu(x, y) at index y for
every y >= x, filled along the lattice's linear extension.  Pairs are read
off the up-masks in index order.

A row is computed bit-parallel.  The recurrence mu(x, y) = -sum of mu(x, z)
over x <= z < y groups its terms by value: with mask_v the elements z >= x
already filled with mu(x, z) = v, it is -sum_v v * |mask_v & down[y]|.  A
row holds few distinct values (two on Boolean lattices and chains, at most
rank + 1 on subspace lattices), so each entry costs a few ANDs and bit
counts instead of one step per element of [x, y).

A function that takes an optional ``table`` builds one when none is given,
and raises ValueError when the given table's lattice has other up-sets: mu
depends on the order alone, so a table of any lattice with the same order
is accepted, and any other is refused.
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
        if not (lat.up[x] >> y) & 1:
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
    """Full table via the defining recurrence, grouped by value.

    Row x visits the y > x in linear-extension order and keeps one mask
    per nonzero value v: the z filled so far with mu(x, z) = v.  Then
    mu(x, y) = -sum_v v * |mask_v & down[y]| exactly: every z in [x, y)
    precedes y in the extension, so it is already in its mask, and the AND
    with down[y] drops every filled z that is not below y (y itself is not
    filled yet).
    """
    up = lattice.up
    down = lattice.down
    n = lattice.n
    position = [0] * n
    for i, y in enumerate(lattice.linext):
        position[y] = i
    rows = []
    for x in range(n):
        row = [0] * n
        row[x] = 1
        masks = {1: 1 << x}     # value -> the z filled with that value
        for y in sorted(_bits(up[x] ^ (1 << x)), key=position.__getitem__):
            d = down[y]
            v = 0
            for value, mask in masks.items():
                v -= value * (mask & d).bit_count()
            row[y] = v
            if v:
                masks[v] = masks.get(v, 0) | (1 << y)
        rows.append(row)
    return MobiusTable(lattice, rows)


def _table_for(lattice, table):
    """``table``, checked to have the lattice's order, or a new table when
    it is None."""
    if table is None:
        return mobius_table(lattice)
    if table.lattice.up != lattice.up:
        raise ValueError("the Mobius table is of a lattice with another order")
    return table


def vanishing_pairs(lattice, table=None):
    """Comparable pairs with mu = 0 in index order; empty iff nonvanishing."""
    table = _table_for(lattice, table)
    return [(x, y) for x, y, v in table.pairs() if v == 0]


def check_inversion(lattice, g, table=None):
    """Verify both Mobius inversion identities for the values ``g``.

    ``g`` is indexed by element; summation over up-sets defines f, and the
    mu-weighted sums must recover g exactly.  The dual (down-set) direction
    is checked too.  Returns True iff both recoveries are exact.  Raises
    ValueError unless ``g`` holds exactly one value per element.
    """
    n = lattice.n
    if len(g) != n:
        raise ValueError(f"expected {n} values of g, got {len(g)}")
    table = _table_for(lattice, table)
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


def weisner_check(lattice):
    """Strict sign alternation: (-1)^(r(y)-r(x)) * mu(x, y) > 0 for all x <= y.

    Holds on every geometric lattice; in particular such lattices have
    nonvanishing Mobius function.
    """
    if lattice.rank is None:
        raise NotRanked("sign check needs a ranked lattice")
    r = lattice.rank
    for x, y, v in mobius_table(lattice).pairs():
        if (-1) ** (r[y] - r[x]) * v <= 0:
            return False
    return True
