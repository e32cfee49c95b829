"""Finite meet-semilattices and lattices on dense integer indices.

Elements are indices 0..n-1 with string labels.  The order relation, cover
pairs, meet/join tables and the (optional) rank function are all computed
and validated at construction time; instances are immutable afterwards.

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
    TooLarge,
)

_LABEL_BAD_CHARS = set(", \t\r\n#")

# the element cap: it keeps each n x n meet/join table under 4.2 M entries
MAX_ELEMENTS = 2048


def _check_size(count, what):
    """Raise TooLarge when ``count`` (a lower bound on the element count of
    ``what``) is over MAX_ELEMENTS; called before anything is built."""
    if count > MAX_ELEMENTS:
        raise TooLarge(f"{what} has at least {count} elements, over the cap "
                       f"of {MAX_ELEMENTS}")


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
    """Build a validated structure from a Hasse diagram given from outside.

    ``covers`` is any iterable of (child, parent) index pairs; redundant
    (transitively implied or repeated) pairs are tolerated and normalized
    away.  Pass ``names=None`` to label elements by their indices.  The
    pairs are closed along :func:`_linear_extension`, which finds a cycle.

    Raises NotAPoset on a cycle, NoBottom when the minimal element is not
    unique, NotMeetSemilattice when some pair has two maximal common lower
    bounds.  The join table is present exactly when a maximal element
    exists (a finite meet-semilattice with a top is a lattice).  More than
    MAX_ELEMENTS elements raise TooLarge.
    """
    _check_size(n, "the structure")
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
    for c, p in covers:
        if not (0 <= c < n and 0 <= p < n):
            raise ValueError(f"cover pair ({c}, {p}) out of range")
        if c == p:
            raise NotAPoset(f"self-loop at element {names[c]!r}")
        parents[c].append(p)

    order = _linear_extension(parents)
    if len(order) < n:
        raise NotAPoset("cover graph contains a cycle")

    down = [1 << i for i in range(n)]
    for x in order:
        for p in parents[x]:
            down[p] |= down[x]
    return _from_down_masks(names, down)


def _linear_extension(parents):
    """Smallest-index-first topological order of the edges x -> parents[x]
    (heap Kahn); shorter than the graph on a cycle.  It is the same for
    every graph with the same transitive closure: an element is ready
    exactly when its whole strict down-set has been emitted."""
    indeg = [0] * len(parents)
    for ps in parents:
        for p in ps:
            indeg[p] += 1
    heap = [x for x, d in enumerate(indeg) if d == 0]  # ascending: a heap
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for p in parents[x]:
            indeg[p] -= 1
            if indeg[p] == 0:
                heapq.heappush(heap, p)
    return order


def _from_down_masks(names, down):
    """Trusted constructor from reflexive, transitive down-set masks.

    Derives the up-sets, checks for a unique bottom and for meets (and
    joins when a top exists), and computes the covers (the transitive
    reduction), the linear extension (:func:`_linear_extension` of the
    covers) and the rank in one loop over it.  Outside input goes through
    :func:`from_covers`.
    """
    n = len(names)
    up = [0] * n
    for y, mask in enumerate(down):
        for x in _bits(mask):
            up[x] |= 1 << y

    minimals = [x for x in range(n) if down[x] == 1 << x]
    if len(minimals) != 1:
        raise NoBottom(f"{len(minimals)} minimal elements: "
                       + ", ".join(names[x] for x in minimals))
    bottom = minimals[0]

    # transitive reduction
    red = []
    parents = [[] for _ in range(n)]
    for x in range(n):
        for y in _bits(up[x] & ~(1 << x)):
            if up[x] & down[y] & ~(1 << x) & ~(1 << y) == 0:
                red.append((x, y))
                parents[x].append(y)
    red = tuple(red)

    # each cover (x, p) proposes rank(x) + 1 for p, and two different
    # proposals for the same p leave the structure unranked
    order = _linear_extension(parents)
    rank = [None] * n
    rank[bottom] = 0
    ranked = True
    for x in order:
        for p in parents[x]:
            if rank[p] is None:
                rank[p] = rank[x] + 1
            elif rank[p] != rank[x] + 1:
                ranked = False

    meet = _glb_table(n, down, names, dual=False)

    maximals = [x for x in range(n) if up[x] == 1 << x]
    top = maximals[0] if len(maximals) == 1 else None
    join = None
    if top is not None:
        # guaranteed to exist once every meet does and a top is present
        join = _glb_table(n, up, names, dual=True)

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
        rank=tuple(rank) if ranked else None,
        linext=tuple(order),
    )


def _glb_table(n, down, names, dual):
    """Meet table (or join table when called with the up-set masks).

    The glb of x, y is the element whose down-set is down[x] & down[y]; the
    masks are distinct, so a ``{mask: element}`` dict finds it or shows that
    the pair has no unique greatest common lower bound.
    """
    element = {mask: x for x, mask in enumerate(down)}
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[x][x] = x
        for y in range(x + 1, n):
            m = element.get(down[x] & down[y])
            if m is None:
                word = "upper" if dual else "lower"
                raise NotMeetSemilattice(
                    f"elements {names[x]!r}, {names[y]!r} have no unique "
                    f"greatest common {word} bound"
                )
            table[x][y] = table[y][x] = m
    return table


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
    down = []
    for z in carrier:
        mask = 0
        for w in _bits(lattice.down[z] & lattice.up[x]):
            mask |= 1 << pos[w]
        down.append(mask)
    sub = _from_down_masks(tuple(lattice.names[z] for z in carrier), down)
    return sub, tuple(carrier)


def product(lattice, other):
    """Direct product with componentwise order.

    Element (i, j) gets index i * other.n + j and label "(a|b)"; its
    down-set, the OR over a <= i of ``other.down[j] << (a * other.n)``, goes
    to :func:`_from_down_masks`.  Meets, joins and ranks are componentwise
    (rank adds) whenever both factors have them.
    """
    _check_size(lattice.n * other.n, "the product")
    m = other.n
    names = tuple(f"({a}|{b})" for a in lattice.names for b in other.names)
    if len(set(names)) != len(names):
        raise ValueError("element labels must be unique")
    # the shifted copies do not overlap, so their OR is a product
    spread = [sum(1 << (a * m) for a in _bits(mask)) for mask in lattice.down]
    return _from_down_masks(names, [d * s for s in spread for d in other.down])


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


def format_family(lattice, fam):
    """A set of elements as ``{a,b}``: labels in index order."""
    return "{" + ",".join(lattice.names[i] for i in sorted(fam)) + "}"


def emit_lattice_text(lattice):
    """Deterministic re-emission; parses back to the identical structure."""
    lines = [f"elem {nm}" for nm in lattice.names]
    lines += [f"cover {lattice.names[c]} {lattice.names[p]}"
              for c, p in lattice.covers]
    return "\n".join(lines) + "\n"
