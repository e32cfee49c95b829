"""Finite meet-semilattices and lattices on dense integer indices.

Elements are indices 0..n-1 with string labels.  The order relation, cover
pairs, meet/join tables and the (optional) rank function are all computed
and validated at construction time; instances are immutable afterwards and
safe to share between parallel workers.

Bitmask convention used throughout the package: bit y of ``up[x]`` is set
iff x <= y, and bit x of ``down[y]`` is set iff x <= y.
"""

import heapq

from .errors import (
    LatticeFormatError,
    NoBottom,
    NotAPoset,
    NotComparable,
    NotMeetSemilattice,
    NotRanked,
    NoTop,
)

_LABEL_BAD_CHARS = set(", \t\r\n#")


def _check_label(label):
    if not label or any(ch in _LABEL_BAD_CHARS for ch in label):
        raise ValueError(
            f"bad element label {label!r}: labels are non-empty and may not "
            "contain whitespace, commas or '#'"
        )


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """Validated finite meet-semilattice, possibly a full lattice.

    Attributes
    ----------
    n        : element count
    names    : tuple of labels, index = position
    up, down : tuples of up-set / down-set bitmasks
    covers   : tuple of (child, parent) pairs, the transitive reduction
    meet     : n x n tuple-of-tuples meet table
    join     : n x n join table, or None when there is no maximal element
    bottom   : index of the unique minimal element
    top      : index of the maximal element, or None
    rank     : tuple of ranks, or None when no consistent rank exists
    linext   : a fixed linear extension (tuple of indices)

    Construct through :func:`from_covers`; the constructor trusts its inputs.
    """

    def __init__(self, n, names, up, down, covers, meet, join, bottom, top,
                 rank, linext):
        self.n = n
        self.names = names
        self.up = up
        self.down = down
        self.covers = covers
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.rank = rank
        self.linext = linext
        self._index = {nm: i for i, nm in enumerate(names)}

    def leq(self, x, y):
        return (self.up[x] >> y) & 1 == 1

    def downset(self, x):
        """All elements below-or-equal x, as a frozenset."""
        return frozenset(_bits(self.down[x]))

    def upset(self, x):
        return frozenset(_bits(self.up[x]))

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"no element labelled {label!r}") from None

    def __repr__(self):
        kind = "lattice" if self.join is not None else "meet-semilattice"
        return f"<{kind} n={self.n} bottom={self.names[self.bottom]!r}>"


def from_covers(n, names, covers):
    """Build a validated structure from a Hasse diagram.

    ``covers`` is any iterable of (child, parent) index pairs; redundant
    (transitively implied) pairs are tolerated and normalized away.  Pass
    ``names=None`` to label elements by their indices.

    Raises NotAPoset on a cycle, NoBottom when the minimal element is not
    unique, NotMeetSemilattice when some pair has two maximal common lower
    bounds.  The join table is present exactly when a maximal element
    exists (a finite meet-semilattice with a top is a lattice).
    """
    if n < 1:
        raise NoBottom("an empty structure has no minimal element")
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(names)
    if len(names) != n:
        raise ValueError(f"expected {n} names, got {len(names)}")
    for nm in names:
        _check_label(nm)
    if len(set(names)) != n:
        raise ValueError("element labels must be unique")

    parents = [[] for _ in range(n)]
    indeg = [0] * n
    edge_set = set()
    for c, p in covers:
        if not (0 <= c < n and 0 <= p < n):
            raise ValueError(f"cover pair ({c}, {p}) out of range")
        if c == p:
            raise NotAPoset(f"self-loop at element {names[c]!r}")
        if (c, p) in edge_set:
            continue
        edge_set.add((c, p))
        parents[c].append(p)
        indeg[p] += 1

    order = [i for i in range(n) if indeg[i] == 0]
    for x in order:  # Kahn's algorithm; the list grows while it is walked
        for p in parents[x]:
            indeg[p] -= 1
            if indeg[p] == 0:
                order.append(p)
    if len(order) < n:
        raise NotAPoset("cover graph contains a cycle")

    up = [1 << i for i in range(n)]
    for x in reversed(order):
        for p in parents[x]:
            up[x] |= up[p]
    return _from_up_masks(names, up)


def _from_up_masks(names, up):
    """Trusted constructor from reflexive, transitive up-set masks.

    Derives the down-sets, checks for a unique bottom and for meets (and
    joins when a top exists), and computes the covers (the transitive
    reduction), the smallest-index-first linear extension and the rank.
    """
    n = len(names)
    down = [0] * n
    for x in range(n):
        for y in _bits(up[x]):
            down[y] |= 1 << x

    minimals = [x for x in range(n) if down[x] == 1 << x]
    if len(minimals) != 1:
        raise NoBottom(f"{len(minimals)} minimal elements: "
                       + ", ".join(names[x] for x in minimals))
    bottom = minimals[0]

    # transitive reduction
    red = []
    parents = [[] for _ in range(n)]
    indeg = [0] * n
    for x in range(n):
        for y in _bits(up[x] & ~(1 << x)):
            if up[x] & down[y] & ~(1 << x) & ~(1 << y) == 0:
                red.append((x, y))
                parents[x].append(y)
                indeg[y] += 1
    red = tuple(red)

    # deterministic linear extension (min index first)
    order = []
    heap = [bottom]
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for p in parents[x]:
            indeg[p] -= 1
            if indeg[p] == 0:
                heapq.heappush(heap, p)

    meet = _glb_table(n, down, up, names, dual=False)

    maximals = [x for x in range(n) if up[x] == 1 << x]
    top = maximals[0] if len(maximals) == 1 else None
    join = None
    if top is not None:
        # guaranteed to exist once every meet does and a top is present
        join = _glb_table(n, up, down, names, dual=True)

    return Lattice(
        n=n,
        names=names,
        up=tuple(up),
        down=tuple(down),
        covers=red,
        meet=tuple(tuple(row) for row in meet),
        join=None if join is None else tuple(tuple(row) for row in join),
        bottom=bottom,
        top=top,
        rank=_try_rank(n, red, bottom, order),
        linext=tuple(order),
    )


def _glb_table(n, down, up, names, dual):
    """Meet table (or join table when called with the masks swapped).

    The glb of x, y is the unique m in D = down[x] & down[y] whose down-set
    equals D; scanning D's bits from high to low finds it quickly on
    naturally ordered inputs.
    """
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[x][x] = x
        dx = down[x]
        for y in range(x + 1, n):
            d = dx & down[y]
            if d == dx:
                m = x
            elif d == down[y]:
                m = y
            else:
                m = -1
                rest = d
                while rest:
                    i = rest.bit_length() - 1
                    if down[i] == d:
                        m = i
                        break
                    rest &= ~(1 << i)
                if m < 0:
                    word = "upper" if dual else "lower"
                    raise NotMeetSemilattice(
                        f"elements {names[x]!r}, {names[y]!r} have no unique "
                        f"greatest common {word} bound"
                    )
            table[x][y] = table[y][x] = m
    return table


def _try_rank(n, covers, bottom, order):
    children = [[] for _ in range(n)]
    for c, p in covers:
        children[p].append(c)
    rank = [None] * n
    rank[bottom] = 0
    for x in order:
        if x == bottom:
            continue
        vals = {rank[c] + 1 for c in children[x]}
        if len(vals) != 1:
            return None
        rank[x] = vals.pop()
    return tuple(rank)


def interval(lattice, x, y):
    """Sublattice on {z : x <= z <= y}, plus the carrier index map back.

    Returns (sub, carrier) where carrier[i] is the index in ``lattice`` of
    element i of ``sub``.  Labels are preserved.
    """
    if not lattice.leq(x, y):
        raise NotComparable(
            f"{lattice.names[x]!r} is not below {lattice.names[y]!r}")
    carrier = list(_bits(lattice.up[x] & lattice.down[y]))
    pos = {z: i for i, z in enumerate(carrier)}
    up = []
    for z in carrier:
        mask = 0
        for w in _bits(lattice.up[z] & lattice.down[y]):
            mask |= 1 << pos[w]
        up.append(mask)
    sub = _from_up_masks(tuple(lattice.names[z] for z in carrier), up)
    return sub, tuple(carrier)


def product(lattice, other):
    """Direct product with componentwise order.

    Element (i, j) gets index i * other.n + j and label "(a|b)".  Meets,
    joins and ranks are componentwise (rank adds) whenever both factors
    have them; this falls out of the cover construction and revalidation.
    """
    m = other.n
    names = [f"({a}|{b})" for a in lattice.names for b in other.names]
    covs = []
    for c, p in lattice.covers:
        for j in range(m):
            covs.append((c * m + j, p * m + j))
    for i in range(lattice.n):
        for c, p in other.covers:
            covs.append((i * m + c, i * m + p))
    return from_covers(lattice.n * m, names, covs)


def atoms(lattice):
    """Elements covering the bottom, as a frozenset."""
    return frozenset(p for c, p in lattice.covers if c == lattice.bottom)


def is_atomic(lattice):
    """True iff the join of all atoms is the maximal element."""
    if lattice.top is None:
        raise NoTop("atomicity needs a maximal element")
    j = lattice.bottom
    for a in atoms(lattice):
        j = lattice.join[j][a]
    return j == lattice.top


def count_by_rank(lattice, d):
    """Number of elements of rank exactly d."""
    if lattice.rank is None:
        raise NotRanked("structure has no consistent rank function")
    return sum(1 for r in lattice.rank if r == d)


def count_up_to(lattice, d):
    """Number of elements of rank at most d."""
    if lattice.rank is None:
        raise NotRanked("structure has no consistent rank function")
    return sum(1 for r in lattice.rank if r <= d)


# ---------------------------------------------------------------------------
# text format
#
#   # comment (full line or trailing)
#   elem <label>
#   cover <child-label> <parent-label>
#
# Element indices follow declaration order.  Blank lines are ignored.
# ---------------------------------------------------------------------------

def parse_lattice_text(text):
    """Parse the lattice text format; errors carry 1-based line numbers."""
    names = []
    seen = {}
    covers = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "elem":
            if len(parts) != 2:
                raise LatticeFormatError(lineno, "expected: elem <label>")
            label = parts[1]
            try:
                _check_label(label)
            except ValueError as exc:
                raise LatticeFormatError(lineno, str(exc)) from None
            if label in seen:
                raise LatticeFormatError(lineno, f"duplicate element {label!r}")
            seen[label] = len(names)
            names.append(label)
        elif parts[0] == "cover":
            if len(parts) != 3:
                raise LatticeFormatError(
                    lineno, "expected: cover <child-label> <parent-label>")
            try:
                covers.append((seen[parts[1]], seen[parts[2]]))
            except KeyError as exc:
                raise LatticeFormatError(
                    lineno, f"unknown element {exc.args[0]!r}") from None
        else:
            raise LatticeFormatError(lineno, f"unrecognized directive {parts[0]!r}")
    if not names:
        raise LatticeFormatError(1, "no elements declared")
    return from_covers(len(names), names, covers)


def emit_lattice_text(lattice):
    """Deterministic re-emission; parses back to the identical structure."""
    lines = [f"elem {nm}" for nm in lattice.names]
    lines += [f"cover {lattice.names[c]} {lattice.names[p]}"
              for c, p in lattice.covers]
    return "\n".join(lines) + "\n"
