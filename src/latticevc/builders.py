"""Constructors for the concrete lattices and quantities used by the tests.

Boolean lattices, chains, subspace lattices over prime fields, geometric
lattices of explicitly given matroids, three hard-coded example lattices
(two SSP lattices whose Mobius function vanishes exactly on the
bottom-to-top pair, and an 11-element non-RC lattice), q-binomial
coefficients, and the inclusion-maximal VC-1 family of subspaces.
"""

from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .core import _bits, from_covers
from .errors import (
    CheckFailed,
    DimensionTooSmall,
    NotAMatroid,
    NotPrime,
    OutOfRange,
    TooLarge,
)
from .shattering import vc_dim


def _subset_name(mask, n):
    if mask == 0:
        return "0"
    elems = [str(i + 1) for i in _bits(mask)]
    return "".join(elems) if n <= 9 else ".".join(elems)


def boolean(n):
    """Boolean lattice of all subsets of {1..n}; rank is cardinality."""
    if not 0 <= n <= 20:
        raise TooLarge("boolean lattice guard is n <= 20")
    size = 1 << n
    names = [_subset_name(m, n) for m in range(size)]
    covers = [(m, m | (1 << i))
              for m in range(size) for i in range(n) if not (m >> i) & 1]
    return from_covers(size, names, covers)


def chain(k):
    """Total order 0 < 1 < ... < k."""
    if k < 0:
        raise ValueError("chain length must be non-negative")
    return from_covers(k + 1, [str(i) for i in range(k + 1)],
                       [(i, i + 1) for i in range(k)])


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


def _span(q, n, basis):
    vecs = set()
    d = len(basis)
    for coeffs in iproduct(range(q), repeat=d):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            if c:
                for j in range(n):
                    v[j] = (v[j] + c * row[j]) % q
        vecs.add(tuple(v))
    return frozenset(vecs)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n held by its reduced row-echelon basis.

    The echelon basis is canonical, so two Subspace values are equal iff
    they span the same set of vectors; labels derive from the basis rows.
    """
    q: int
    n: int
    basis: tuple

    def vectors(self):
        return _span(self.q, self.n, self.basis)

    def dim(self):
        return len(self.basis)

    def name(self):
        if not self.basis:
            return "0"
        return ".".join("".join(str(v) for v in row) for row in self.basis)


def _subspace_elements(q, n):
    """(names, vecsets, dims) for all subspaces, ordered by (dim, basis)."""
    subs = [Subspace(q, n, basis)
            for d in range(n + 1)
            for basis in sorted(_echelon_bases(q, n, d))]
    names = [s.name() for s in subs]
    vecsets = [s.vectors() for s in subs]
    dims = [s.dim() for s in subs]
    return names, vecsets, dims


def subspace_lattice(q, n):
    """All subspaces of F_q^n under inclusion; rank = dimension.

    Elements are labelled by their reduced echelon bases ("0" for the zero
    space, rows joined by dots otherwise), so equal labels mean equal
    subspaces.
    """
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    total = sum(qbinom(n, d, q) for d in range(n + 1))
    if total > 100_000:
        raise TooLarge(f"{total} subspaces exceed the guard of 1e5")
    names, vecsets, dims = _subspace_elements(q, n)
    covers = [(i, j)
              for i in range(len(vecsets)) for j in range(len(vecsets))
              if dims[j] == dims[i] + 1 and vecsets[i] <= vecsets[j]]
    return from_covers(len(vecsets), names, covers)


# ---------------------------------------------------------------------------
# matroids and their geometric lattices
# ---------------------------------------------------------------------------

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
        sets = tuple(sorted({frozenset(s) for s in independents},
                            key=lambda s: (len(s), sorted(s))))
        return cls(ground_size, sets)

    def validate(self):
        """Raise NotAMatroid naming the violated axiom."""
        isets = set(self.independents)
        if not isets:
            raise NotAMatroid("no independent sets (must contain the empty set)")
        for s in isets:
            if not all(0 <= x < self.ground_size for x in s):
                raise NotAMatroid(f"independent set {sorted(s)} leaves the ground set")
        for s in isets:
            for x in s:
                if s - {x} not in isets:
                    raise NotAMatroid(
                        f"downward closure fails: {sorted(s - {x})} is missing")
        if frozenset() not in isets:
            raise NotAMatroid("the empty set is not independent")
        for a in isets:
            for b in isets:
                if len(a) > len(b) and not any(b | {x} in isets for x in a - b):
                    raise NotAMatroid(
                        f"exchange fails for {sorted(a)} over {sorted(b)}")

    def subset_rank(self, subset):
        return max((len(i) for i in self.independents if i <= subset), default=0)


def from_matroid(spec):
    """Geometric lattice of flats; lattice rank equals matroid rank."""
    spec.validate()
    ground = frozenset(range(spec.ground_size))
    subsets = [frozenset(c) for d in range(spec.ground_size + 1)
               for c in combinations(sorted(ground), d)]
    rank_of = {s: spec.subset_rank(s) for s in subsets}
    flats = [s for s in subsets
             if all(rank_of[s | {x}] > rank_of[s] for x in ground - s)]
    flats.sort(key=lambda s: (len(s), sorted(s)))
    idx = {s: i for i, s in enumerate(flats)}
    covers = []
    for s in flats:
        for t in flats:
            if s < t and not any(s < u < t for u in flats):
                covers.append((idx[s], idx[t]))
    names = [_subset_name(sum(1 << x for x in s), spec.ground_size)
             for s in flats]
    lattice = from_covers(len(flats), names, covers)
    if lattice.rank is None:
        raise CheckFailed("the lattice of flats is not ranked")
    if any(lattice.rank[idx[s]] != rank_of[s] for s in flats):
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

    Computed exactly by the subset-sum formula
    sum over d-subsets A of {1..n} of q^(sum(A) - d(d+1)/2).
    """
    if q < 2:
        raise OutOfRange("field size must be at least 2")
    if n < 0 or d < 0 or d > n:
        raise OutOfRange(f"need 0 <= d <= n, got n={n}, d={d}")
    total = 0
    for a in combinations(range(1, n + 1), d):
        total += q ** (sum(a) - d * (d + 1) // 2)
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
    spanned by vectors outside the hyperplane "last coordinate zero".  It
    is inclusion-maximal: adding any absent subspace raises the VC
    dimension to at least 2.  Both properties are recomputed here and a
    failure raises CheckFailed.
    """
    if n < 2:
        raise DimensionTooSmall("need ambient dimension at least 2")
    lattice = subspace_lattice(q, n)
    _, vecsets, dims = _subspace_elements(q, n)
    by_set = {s: i for i, s in enumerate(vecsets)}
    members = {by_set[frozenset({(0,) * n})], dims.index(n)}
    seen_lines = set()
    for vec in iproduct(range(q), repeat=n):
        if vec[-1] == 0:
            continue
        line = frozenset(tuple(c * v % q for v in vec) for c in range(q))
        if line not in seen_lines:
            seen_lines.add(line)
            members.add(by_set[line])
    family = frozenset(members)
    if len(family) != q ** (n - 1) + 2:
        raise CheckFailed("family size is not q^(n-1) + 2")
    if vc_dim(lattice, family) != 1:
        raise CheckFailed("family does not have VC dimension 1")
    for extra in range(lattice.n):
        if extra not in family and vc_dim(lattice, family | {extra}) < 2:
            raise CheckFailed(
                f"adding {lattice.names[extra]!r} keeps VC dimension 1")
    return lattice, family
