"""Constructors for the concrete lattices and quantities used by the tests.

Boolean lattices, chains, subspace lattices over prime fields, geometric
lattices of explicitly given matroids, three hard-coded example lattices
(two SSP lattices whose Mobius function vanishes exactly on the
bottom-to-top pair, and an 11-element non-RC lattice), q-binomial
coefficients, and the inclusion-maximal VC-1 family of subspaces.

The first four builders number their elements along a linear extension,
compute each down-set mask directly and hand the masks to
:func:`core._from_down_masks`; only the figures, given by named covers, go
through :func:`core.from_covers`.
"""

from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .core import (
    MAX_ELEMENTS,
    _bits,
    _check_elements,
    _check_size,
    _from_down_masks,
    from_covers,
)
from .errors import (
    CheckFailed,
    DimensionTooSmall,
    NotAMatroid,
    NotPrime,
    OutOfRange,
)
from .shattering import vc_dim


def _subset_names(n):
    """Labels of the 2^n subsets of {1..n}, indexed by mask: bit i of the
    mask holds element i + 1.  The empty set is "0"; any other subset lists
    its elements ascending, joined by nothing for n <= 9 and by "." for
    n > 9.  They are built by the same doubling as :func:`boolean`'s masks:
    the label of m + 2^i, for m < 2^i, is m's label followed by i + 1."""
    sep = "" if n <= 9 else "."
    names = [""]
    for i in range(n):
        piece = str(i + 1)
        more = [nm + sep + piece for nm in names]
        more[0] = piece
        names += more
    names[0] = "0"
    return names


def boolean(n):
    """Boolean lattice of all subsets of {1..n}; rank is cardinality."""
    if n < 0:
        raise ValueError("boolean lattice dimension must be non-negative")
    # 2^n, clamped so that a huge n computes no huge number
    _check_size(1 << min(n, MAX_ELEMENTS.bit_length()), f"boolean({n})")
    # subset m holds element i + 1 iff bit i of m is set; the subsets of
    # m + 2^i, for m < 2^i, are those of m, alone and joined with i + 1
    down = [1]
    for _ in range(n):
        down += [d | d << len(down) for d in down]
    return _from_down_masks(tuple(_subset_names(n)), down)


def chain(k):
    """Total order 0 < 1 < ... < k."""
    if k < 0:
        raise ValueError("chain length must be non-negative")
    _check_size(k + 1, f"chain({k})")
    return _from_down_masks(tuple(str(i) for i in range(k + 1)),
                            [(2 << i) - 1 for i in range(k + 1)])


# ---------------------------------------------------------------------------
# subspace lattices over prime fields
# ---------------------------------------------------------------------------

def _is_prime(q):
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _echelon_bases(q, n, d):
    """All reduced row-echelon bases of d-dimensional subspaces of F_q^n."""
    if d == 0:
        yield ()
        return
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [(i, c) for i, p in enumerate(pivots)
                for c in range(p + 1, n) if c not in pivot_set]
        for values in iproduct(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


def _subspace_labels(bases):
    """Labels of echelon bases: "0" for the zero space, and otherwise the
    rows, each written as its entries' digits, joined by dots.  Each
    distinct row is written once."""
    rows = {}
    labels = []
    for basis in bases:
        if not basis:
            labels.append("0")
            continue
        for row in basis:
            if row not in rows:
                rows[row] = "".join(map(str, row))
        labels.append(".".join([rows[row] for row in basis]))
    return labels


def _ordered_bases(q, n):
    """The echelon basis of every subspace of F_q^n, ordered by (dim,
    basis): the element order of :func:`subspace_lattice`."""
    return [basis for d in range(n + 1)
            for basis in sorted(_echelon_bases(q, n, d))]


def subspace_lattice(q, n):
    """All subspaces of F_q^n under inclusion; rank = dimension.

    Elements are labelled by their reduced echelon bases ("0" for the zero
    space, rows joined by dots otherwise), so equal labels mean equal
    subspaces.  The q^n vectors of F_q^n count against MAX_ELEMENTS first,
    on clamped arguments.  That guard bounds the projective points, fewer
    than q^n, that the point masks range over, and it also keeps the labels
    unique: rows with two-digit entries (q >= 11) join to equal digits only
    past it, as (1,1,12) and (1,11,2) do at q = 13, n = 3.

    Each subspace is held as the mask of its projective points, the
    vectors whose first nonzero entry is 1; the point with echelon row r is
    bit t of the line with basis (r,), element t.  Let T have echelon rows
    (r1, ..., rd), and S rows (r2, ..., rd): S is in echelon form and comes
    earlier.  The points of T off S are r1 and r1 + a*w, for each point w
    of S and each a in F_q^*: r1's pivot precedes every pivot of S, so each
    of them is normalised.  U <= T exactly when U's mask lies inside T's,
    and a mask of the wrong size raises CheckFailed.
    """
    exponent = max(0, min(n, MAX_ELEMENTS.bit_length()))
    _check_size(min(q, MAX_ELEMENTS + 1) ** exponent,
                f"F_{q}^{n} in subspace_lattice({q}, {n})")
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    _check_size(sum(qbinom(n, d, q) for d in range(n + 1)),
                f"subspace_lattice({q}, {n})")
    bases = _ordered_bases(q, n)
    names = _subspace_labels(bases)
    index = {basis: t for t, basis in enumerate(bases)}
    point = {basis[0]: t for t, basis in enumerate(bases) if len(basis) == 1}
    scalars = range(1, q)
    pts = []
    for t, basis in enumerate(bases):
        if not basis:
            pts.append(0)
            continue
        r1 = basis[0]
        mask = pts[index[basis[1:]]]
        spanned = 1 << point[r1]
        for w in _bits(mask):
            row = bases[w][0]
            for a in scalars:
                spanned |= 1 << point[tuple((x + a * y) % q
                                            for x, y in zip(r1, row))]
        mask |= spanned
        if mask.bit_count() != (q ** len(basis) - 1) // (q - 1):
            raise CheckFailed(f"subspace {names[t]} has "
                              f"{mask.bit_count()} points")
        pts.append(mask)
    # the subspaces come in ascending dimension, and T's down-set is T
    # with the down-sets of its subspaces of one dimension less;
    # by_dim[d + 1] lists the subspaces of dimension d
    by_dim = [[] for _ in range(n + 2)]
    down = []
    for t, basis in enumerate(bases):
        mask = 1 << t
        off = ~pts[t]
        for u in by_dim[len(basis)]:
            if not pts[u] & off:
                mask |= down[u]
        by_dim[len(basis) + 1].append(t)
        down.append(mask)
    return _from_down_masks(tuple(names), down)


# ---------------------------------------------------------------------------
# matroids and their geometric lattices
# ---------------------------------------------------------------------------

def _integer_elements(sets):
    """The union of ``sets``, or NotAMatroid naming a member that is not an
    integer."""
    elements = frozenset().union(*sets)
    for x in elements:
        if not isinstance(x, int):
            raise NotAMatroid(
                f"independent set undefined: {x!r} is not an integer")
    return elements


@dataclass(frozen=True)
class MatroidSpec:
    """A matroid given by its full list of independent sets.

    ``independents`` holds frozensets over ground elements 0..ground_size-1;
    use :meth:`make` to normalize arbitrary iterables.  Desk scale only
    (ground sets of at most ~9 elements).
    """
    ground_size: int
    independents: tuple

    @classmethod
    def make(cls, ground_size, independents):
        """The spec of ``independents`` as frozensets, deduplicated and
        sorted by (size, members); a member that is not an integer raises
        NotAMatroid, as :meth:`validate` would, before the sort compares
        it."""
        sets = {frozenset(s) for s in independents}
        _integer_elements(sets)
        return cls(ground_size, tuple(sorted(
            sets, key=lambda s: (len(s), sorted(s)))))

    def validate(self):
        """Raise NotAMatroid naming the violated axiom."""
        if self.ground_size < 0:
            raise NotAMatroid(f"negative ground size {self.ground_size}")
        isets = set(self.independents)
        if not isets:
            raise NotAMatroid("no independent sets (must contain the empty set)")
        # the checks below hold sets as masks of 1 << x
        elements = _integer_elements(isets)
        try:
            _check_elements(self.ground_size, elements, "independent set")
        except ValueError as exc:
            raise NotAMatroid(str(exc)) from None
        # each set as a ground mask; ext[b]: the x with b + x independent
        mask = {s: sum(1 << x for x in s) for s in isets}
        ext = dict.fromkeys(mask.values(), 0)
        for s in isets:
            m = mask[s]
            for x in s:
                b = m ^ (1 << x)
                if b not in ext:
                    raise NotAMatroid(
                        f"downward closure fails: {sorted(s - {x})} is missing")
                ext[b] |= 1 << x
        # with downward closure, every (|b|+1)-subset of a larger a is
        # independent, so comparing sizes |b| + 1 and |b| suffices; the sets
        # are grouped by size, as a spec made without make may be unsorted.
        # a exchanges over b when some x in a - b has b + x independent:
        # ext[b] holds no element of b, so that is a & ext[b] != 0
        by_size = {}
        for s in isets:
            by_size.setdefault(len(s), []).append(s)
        for k, smaller in by_size.items():
            exts = [ext[mask[b]] for b in smaller]
            for a in by_size.get(k + 1, ()):
                am = mask[a]
                if not all(map(am.__and__, exts)):
                    b = smaller[[am & e for e in exts].index(0)]
                    raise NotAMatroid(
                        f"exchange fails for {sorted(a)} over {sorted(b)}")

    def subset_rank(self, subset):
        return max((len(i) for i in self.independents if i <= subset), default=0)


def from_matroid(spec):
    """Geometric lattice of flats; lattice rank equals matroid rank.

    The 2^g subsets of the g ground elements count against MAX_ELEMENTS
    before anything else, so ground sets of 12 or more are refused.
    """
    _check_size(2 ** min(spec.ground_size, MAX_ELEMENTS.bit_length()),
                f"the power set of {spec.ground_size} ground elements")
    spec.validate()
    ground = frozenset(range(spec.ground_size))
    subsets = [frozenset(c) for d in range(spec.ground_size + 1)
               for c in combinations(sorted(ground), d)]
    rank_of = {s: spec.subset_rank(s) for s in subsets}
    flats = [s for s in subsets
             if all(rank_of[s | {x}] > rank_of[s] for x in ground - s)]
    flats.sort(key=lambda s: (len(s), sorted(s)))
    labels = _subset_names(spec.ground_size)
    names = tuple(labels[sum(1 << x for x in s)] for s in flats)
    lattice = _from_down_masks(names, [
        sum(1 << i for i, s in enumerate(flats) if s <= t) for t in flats])
    if lattice.rank is None:
        raise CheckFailed("the lattice of flats is not ranked")
    if any(lattice.rank[i] != rank_of[s] for i, s in enumerate(flats)):
        raise CheckFailed("lattice rank differs from matroid rank")
    return lattice


# ---------------------------------------------------------------------------
# hard-coded example lattices
# ---------------------------------------------------------------------------

# 9 elements, unranked, relatively complemented, SSP; the Mobius function
# vanishes exactly on the bottom-to-top pair.
_FIG1_NAMES = ["0", "1", "2", "3", "4", "12", "13", "23", "1234"]
_FIG1_COVERS = [
    ("0", "1"), ("0", "2"), ("0", "3"), ("0", "4"),
    ("1", "12"), ("2", "12"),
    ("1", "13"), ("3", "13"),
    ("2", "23"), ("3", "23"),
    ("12", "1234"), ("13", "1234"), ("23", "1234"), ("4", "1234"),
]

# The 10 triples of the 33-element ranked example: every 2-subset of {1..6}
# lies in exactly two of them.
_FIG2_TRIPLES = ["123", "124", "135", "146", "156",
                 "236", "245", "256", "345", "346"]

# 11 elements, ranked with profile 1,5,4,1; not relatively complemented
# (4 < 45 < [5] is a 3-element interval).
_FIG3B_NAMES = ["0", "1", "2", "3", "4", "5", "12", "13", "23", "45", "[5]"]
_FIG3B_COVERS = [
    ("0", "1"), ("0", "2"), ("0", "3"), ("0", "4"), ("0", "5"),
    ("1", "12"), ("2", "12"),
    ("1", "13"), ("3", "13"),
    ("2", "23"), ("3", "23"),
    ("4", "45"), ("5", "45"),
    ("12", "[5]"), ("13", "[5]"), ("23", "[5]"), ("45", "[5]"),
]


def _from_named_covers(names, named_covers):
    pos = {nm: i for i, nm in enumerate(names)}
    return from_covers(len(names), names,
                       [(pos[c], pos[p]) for c, p in named_covers])


def fig1():
    return _from_named_covers(_FIG1_NAMES, _FIG1_COVERS)


def fig2():
    singles = [str(i) for i in range(1, 7)]
    pairs = ["".join(map(str, p)) for p in combinations(range(1, 7), 2)]
    names = ["0"] + singles + pairs + list(_FIG2_TRIPLES) + ["[6]"]
    covers = [("0", s) for s in singles]
    covers += [(s, p) for p in pairs for s in p]
    covers += [(p, t) for t in _FIG2_TRIPLES for p in pairs
               if set(p) <= set(t)]
    covers += [(t, "[6]") for t in _FIG2_TRIPLES]
    return _from_named_covers(names, covers)


def fig3b():
    return _from_named_covers(_FIG3B_NAMES, _FIG3B_COVERS)


# ---------------------------------------------------------------------------
# q-binomials
# ---------------------------------------------------------------------------

def qbinom(n, d, q):
    """Number of d-dimensional subspaces of an n-space over a q-element field.

    Exact product formula prod_{i<d} (q^(n-i) - 1) / (q^(i+1) - 1): its
    first i factors give qbinom(n, i, q), so every division is exact.
    """
    if q < 2:
        raise OutOfRange("field size must be at least 2")
    if n < 0 or d < 0 or d > n:
        raise OutOfRange(f"need 0 <= d <= n, got n={n}, d={d}")
    total = 1
    for i in range(d):
        total = total * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return total


def qbinom_bounds_check(n, d, q):
    """Exact-integer check of the layer-count bounds for subspace lattices.

    Verifies q^(d(n-d)) <= sum_{e<=d} qbinom(n,e,q) <= 2 n^d q^(dn) and
    that the total number of subspaces is at least q^((n^2-1)/4) (compared
    as fourth powers to stay in integers).
    """
    if n < 1 or d < 0 or d > n:
        raise ValueError(f"need n >= 1 and 0 <= d <= n, got n={n}, d={d}")
    upto = sum(qbinom(n, e, q) for e in range(d + 1))
    if not q ** (d * (n - d)) <= upto <= 2 * n ** d * q ** (d * n):
        return False
    total = sum(qbinom(n, e, q) for e in range(n + 1))
    return total ** 4 >= q ** (n * n - 1)


# ---------------------------------------------------------------------------
# the inclusion-maximal VC-1 family of subspaces
# ---------------------------------------------------------------------------

def critical_family(q, n):
    """(lattice, family): q^(n-1) + 2 subspaces of VC dimension 1.

    The family consists of the zero space, the full space, and the lines
    spanned by vectors outside the hyperplane "last coordinate zero": those
    whose echelon row has a nonzero last entry.  It is inclusion-maximal:
    adding any absent subspace raises the VC dimension to at least 2.  Both
    properties are recomputed here and a failure raises CheckFailed.
    """
    if n < 2:
        raise DimensionTooSmall("need ambient dimension at least 2")
    lattice = subspace_lattice(q, n)
    family = frozenset(
        i for i, basis in enumerate(_ordered_bases(q, n))
        if len(basis) in (0, n) or (len(basis) == 1 and basis[0][-1] != 0))
    if len(family) != q ** (n - 1) + 2:
        raise CheckFailed("family size is not q^(n-1) + 2")
    if vc_dim(lattice, family) != 1:
        raise CheckFailed("family does not have VC dimension 1")
    for extra in range(lattice.n):
        if extra not in family and vc_dim(lattice, family | {extra}) < 2:
            raise CheckFailed(
                f"adding {lattice.names[extra]!r} keeps VC dimension 1")
    return lattice, family
