"""Finite meet-semilattices and lattices on dense integer indices.

Elements are indices 0..n-1 with string labels.  The order relation and
the cover pairs are computed and validated at construction time, and so is
the existence of every meet; instances are immutable afterwards.  The
(optional) rank function and the label index are derived on first read.
Meets are read from one map: x ^ y is the element whose down-set is
down[x] & down[y].  With a top the structure is a lattice: x v y = a
exactly when up[x] & up[y] == up[a].

Bitmask convention used throughout the package: bit y of ``up[x]`` is set
iff x <= y, and bit x of ``down[y]`` is set iff x <= y.  The cover masks
follow it: bit y of ``upper[x]`` and bit x of ``lower[y]`` are set iff y
covers x.
"""

import functools
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

# the element cap bounds the quadratic part of a structure: its n order
# masks of n bits each, and the Mobius table of up to n^2 entries, 4.2 M at
# the cap
MAX_ELEMENTS = 2048


def _check_size(count, what):
    """Raise TooLarge when ``count`` (a lower bound on the element count of
    ``what``) is over MAX_ELEMENTS; called before anything is built."""
    if count > MAX_ELEMENTS:
        raise TooLarge(f"{what} has at least {count} elements, over the cap "
                       f"of {MAX_ELEMENTS}")


def _check_elements(n, elements, what):
    """Raise ValueError unless all ``elements`` are in 0..n-1 (a bare list
    index would wrap a negative one)."""
    for x in elements:
        if not 0 <= x < n:
            raise ValueError(f"{what} undefined: {x} is outside 0..{n - 1}")


def _check_label(label):
    if (not isinstance(label, str) or not label
            or any(ch.isspace() or ch in ",#" for ch in label)):
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
    upper    : tuple of upper-cover masks, bit y of upper[x] set iff y
               covers x
    lower    : tuple of lower-cover masks, bit x of lower[y] set iff y
               covers x
    element  : dict from each down-set mask to its element, so the meet of
               x and y is element[down[x] & down[y]]
    bottom   : index of the unique minimal element
    top      : index of the maximal element, or None (not a lattice)
    linext   : a fixed linear extension (tuple of indices)
    rank     : tuple of ranks, or None when no consistent rank exists;
               derived on first read and cached

    Construct through :func:`from_covers` (outside input) or
    :func:`_from_down_masks` (down-sets the package derives itself); the
    constructor trusts its inputs.  Construction has checked that every
    pair has a meet (:func:`_check_meets`), so ``element`` holds every
    down[x] & down[y].  The label index behind :meth:`index` is built on
    its first call.
    """

    def __init__(self, n, names, up, down, covers, upper, lower, element,
                 bottom, top, linext):
        self.n = n
        self.names = names
        self.up = up
        self.down = down
        self.covers = covers
        self.upper = upper
        self.lower = lower
        self.element = element
        self.bottom = bottom
        self.top = top
        self.linext = linext

    @functools.cached_property
    def rank(self):
        """The bottom has rank 0, and along ``linext`` each cover (x, p)
        proposes rank(x) + 1 for p; two different proposals leave the
        structure unranked (None)."""
        rank = [None] * self.n
        rank[self.bottom] = 0
        for x in self.linext:
            r = rank[x] + 1
            for p in _bits(self.upper[x]):
                if rank[p] is None:
                    rank[p] = r
                elif rank[p] != r:
                    return None
        return tuple(rank)

    @functools.cached_property
    def _index(self):
        return {nm: i for i, nm in enumerate(self.names)}

    def leq(self, x, y):
        _check_elements(self.n, (x, y), "leq")
        return (self.up[x] >> y) & 1 == 1

    def downset(self, x):
        """All elements below-or-equal x, as a frozenset."""
        _check_elements(self.n, (x,), "downset")
        return frozenset(_bits(self.down[x]))

    def upset(self, x):
        _check_elements(self.n, (x,), "upset")
        return frozenset(_bits(self.up[x]))

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"no element labelled {label!r}") from None

    def __repr__(self):
        kind = "lattice" if self.top is not None else "meet-semilattice"
        return f"<{kind} n={self.n} bottom={self.names[self.bottom]!r}>"


def from_covers(n, names, covers):
    """Build a validated structure from a Hasse diagram given from outside:
    the text format, the public API and the figures given by named covers.
    The package's builders know their down-sets and call
    :func:`_from_down_masks` directly.

    ``covers`` is any iterable of (child, parent) index pairs; redundant
    (transitively implied or repeated) pairs are tolerated and normalized
    away.  Pass ``names=None`` to label elements by their indices.  The
    pairs are closed along :func:`_linear_extension`, which finds a cycle.

    Raises NotAPoset on a cycle, NoBottom when the minimal element is not
    unique, NotMeetSemilattice when some pair has two maximal common lower
    bounds.  The structure is a lattice exactly when a maximal element
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

    covers = list(covers)
    _check_elements(n, [x for pair in covers for x in pair], "cover pair")
    parents = [[] for _ in range(n)]
    for c, p in covers:
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

    The one place that derives cover structure.  Checks for a unique
    bottom, then makes one pass over the elements y in index order.  It
    takes y's lower covers (the transitive reduction) from the down-sets,
    as the ``lower`` mask, as ``upper`` bits and as the parents behind the
    ``covers`` pairs, and it hands y's lower covers to
    :func:`_check_meets` when there are two or more.  The maximal
    elements, the lower covers of a virtual top, are tested after the
    pass, and the up-sets are built in one loop back.  The rank and the
    label index are left to the first read (:class:`Lattice`).  The
    builders, :func:`interval`, :func:`product` and the enumerator call
    it; outside input goes through :func:`from_covers`.

    The linear extension is the smallest-index-first topological order, the
    one :func:`_linear_extension` computes.  When every cover goes up in
    index, so that index order extends the order, that order is
    ``range(n)``: by induction on k, once 0..k-1 are emitted, every element
    of k's strict down-set has a smaller index and so is emitted, so k is
    ready, and no smaller index is left.  This holds for every builder and
    figure, for :func:`product`, for :func:`interval` of such a structure
    and for the enumerator; the heap runs only for outside input numbered
    otherwise.
    """
    n = len(names)
    minimals = [x for x in range(n) if down[x] == 1 << x]
    if len(minimals) != 1:
        raise NoBottom(f"{len(minimals)} minimal elements: "
                       + ", ".join(names[x] for x in minimals))
    bottom = minimals[0]
    element = dict(zip(down, range(n)))

    # transitive reduction: the lower covers of y are the elements of its
    # strict down-set below no other one.  Each step takes the highest
    # index z left and drops down[z].  A lower cover is in no other
    # element's down-set, so every one is taken; when index order extends
    # the order the steps take exactly the lower covers, and otherwise the
    # steps below another one are filtered out.  Index order extends the
    # order exactly when every cover goes up in index, and the highest
    # lower cover of y comes first
    strict = [mask ^ (1 << y) for y, mask in enumerate(down)]
    upper = [0] * n
    lower = []
    parents = [[] for _ in range(n)]
    in_order = True
    for y, rest in enumerate(strict):
        below = 0
        kids = []
        while rest:
            z = rest.bit_length() - 1
            kids.append(z)
            below |= strict[z]
            rest &= ~down[z]
        covered = strict[y] & ~below
        if len(kids) != covered.bit_count():
            kids = [x for x in kids if covered >> x & 1]
        if kids and kids[0] > y:
            in_order = False
        lower.append(covered)
        bit = 1 << y
        for x in kids:
            parents[x].append(y)
            upper[x] |= bit
        if len(kids) > 1:
            _check_meets(names, down, element, kids)

    maximals = [x for x in range(n) if not upper[x]]
    if len(maximals) > 1:
        _check_meets(names, down, element, maximals)
    del strict  # freed before the up-sets are built, which keeps the peak down

    order = range(n) if in_order else _linear_extension(parents)
    up = [1 << x for x in range(n)]
    for x in reversed(order):
        mask = up[x]
        for p in parents[x]:
            mask |= up[p]
        up[x] = mask

    return Lattice(
        n=n,
        names=names,
        up=tuple(up),
        down=tuple(down),
        covers=tuple([(x, p) for x in range(n) for p in parents[x]]),
        upper=tuple(upper),
        lower=tuple(lower),
        element=element,
        bottom=bottom,
        top=maximals[0] if len(maximals) == 1 else None,
        linext=tuple(order),
    )


def _check_meets(names, down, element, group):
    """Raise NotMeetSemilattice unless every pair in ``group`` has a meet.

    The meet of x and y exists exactly when down[x] & down[y] is the
    down-set of an element, a key of ``element``.  The pass of
    :func:`_from_down_masks` calls this on the lower covers of each element
    with two or more, and then on the maximal elements, the lower covers of
    a virtual top.  That suffices.
    Were some pair without a meet, take z minimal among the common upper
    bounds of such pairs (the virtual top when none has one), a pair a, b
    under it, and lower covers a' >= a and b' >= b of z.  Then c = a' ^ b'
    exists (a tested pair), d = a ^ c exists (a pair under a' < z), e =
    d ^ b exists (a pair under b' < z), and e is the meet of a and b.

    Only when a tested pair fails are all pairs scanned, in index order, so
    the error names the first pair without a meet in that order, whichever
    group failed first.
    """
    for i, a in enumerate(group, 1):
        da = down[a]
        for b in group[i:]:
            if da & down[b] not in element:
                x, y = next(
                    (x, y) for x in range(len(down))
                    for y in range(x + 1, len(down))
                    if down[x] & down[y] not in element)
                raise NotMeetSemilattice(
                    f"elements {names[x]!r}, {names[y]!r} have no "
                    "unique greatest common lower bound")


def interval(lattice, x, y):
    """Sublattice on {z : x <= z <= y}, plus the carrier index map back.

    Returns (sub, carrier) where carrier[i] is the index in ``lattice`` of
    element i of ``sub``.  Labels are preserved.
    """
    _check_elements(lattice.n, (x, y), "interval")
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
    to :func:`_from_down_masks`.  The order and the meets are componentwise,
    and so is the rank (it adds) when both factors are ranked.
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
    return frozenset(_bits(lattice.upper[lattice.bottom]))


def is_atomic(lattice):
    """True iff the atoms join to the top: only it lies above them all."""
    if lattice.top is None:
        raise NoTop("atomicity needs a maximal element")
    above = lattice.up[lattice.bottom]
    for a in atoms(lattice):
        above &= lattice.up[a]
    return above == 1 << lattice.top


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
