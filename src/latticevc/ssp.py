"""SSP verification, the RC decision, and family-level shattering bounds.

A lattice is SSP when every family F shatters at least |F| elements.  Three
routes are implemented: certificates (nonvanishing Mobius function, or RC
with mu vanishing only on the bottom-to-top pair), the constructive
counterexample on non-RC lattices, and exhaustive search over families with
sound subset pruning.  An atomistic lattice that satisfies Birkhoff's
cover condition is geometric: it is RC and mu is nonvanishing by Rota's
theorem, so both are read off the covers, with no interval scan and no
Mobius table.  Any other lattice scans its intervals for RC, and an RC one
reads both certificates off the Mobius table.  RC and the cover condition
read the lattice's cover masks, ``upper`` and ``lower``.
"""

from dataclasses import dataclass
from itertools import compress, count

from .core import _bits, _check_elements, product
from .errors import (
    CheckFailed,
    FactorNotSSP,
    NotALattice,
    NotMaximalAntichain,
    NotOneMinimal,
    NotRC,
    PreconditionViolated,
)
from .mobius import vanishing_pairs
from .shattering import realized_meets, shattered_set, shatters

CERTIFIED = "CertifiedSSP"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"

CERT_NONVANISHING = "NonvanishingMu"
CERT_RC_ONCE = "RcMuVanishingOnce"
CERT_BRUTE = "BruteForce"
CERT_NON_RC = "NonRcInterval"  # the Violated non-RC counterexample of "auto"

DEFAULT_BUDGET = 1 << 22


# ---------------------------------------------------------------------------
# relative complementation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RcWitness:
    """A 3-element interval: z is the unique element strictly between x and y."""
    x: int
    z: int
    y: int


def is_rc(lattice):
    """None when relatively complemented, else the first 3-element interval.

    A finite lattice is RC iff no pair x < y has exactly one element
    strictly between.  An atomistic lattice (:func:`_atomistic`) with
    Birkhoff's cover condition (:func:`_cover_condition`) is RC, and no
    interval is read (:func:`_rc_route`).  Any other lattice is scanned
    (:func:`_interval_scan`) for the first witness in (x, y) index order.
    The atomistic test runs first and stops at the first cover that adds
    no atom, as it does on most non-RC lattices.  All three read the cover
    masks ``upper`` and ``lower``.
    """
    return _rc_route(lattice)[0]


def _rc_route(lattice):
    """(witness, geometric): what :func:`is_rc` returns, and whether the
    lattice is RC and satisfies the cover condition.

    The atomistic test runs first, then the cover condition, and the
    interval scan only when one of them fails.  The cover route is sound
    twice over: such a lattice is RC, and its Mobius function vanishes
    nowhere.

    First, an atomistic finite meet-semilattice with the cover condition is
    RC.  Suppose [x, y] = {x, z, y} is a 3-element interval.

    1. [0, y] is a finite lattice: elements below y have y as an upper
       bound, so their join is the meet of their upper bounds.  It
       satisfies the cover condition too: distinct upper covers u, v <= y
       of an element have a common upper cover c, and c = u v v <= y.  So
       [0, y] is upper semimodular, graded by a submodular rank function r
       (Stanley, EC1, 3.3.2).
    2. z < y is a cover, so by atomisticity some atom a <= y has a </= z,
       hence a </= x and a ^ x = 0.  a v x lies in [x, y] and is neither x
       nor z, so a v x = y, and submodularity gives
       r(y) <= r(a) + r(x) - r(0) = r(x) + 1, against r(y) = r(x) + 2.

    Second, an RC lattice with the cover condition has nonvanishing mu.

    3. A finite RC lattice is atomistic.  Let s be the join of the atoms
       below y, and suppose s < y.  A complement c of s in [0, y] is not 0
       (else s = s v c = y), so some atom a <= c.  Then a <= y, so a <= s,
       and a <= s ^ c = 0, which is impossible.
    4. Every interval [x, y] of an RC lattice is RC, so it is atomistic by
       3.  The cover condition holds in [x, y] too: if u, v in [x, y] are
       distinct covers of w, their common upper cover c lies above
       u v v > u, so c = u v v <= y.  The join u v v exists below y also
       in a meet-semilattice with no top.  So every interval is a finite
       atomistic lattice with the cover condition, which is upper
       semimodular (Stanley, EC1, 3.3): it is geometric.
    5. mu of a geometric lattice alternates strictly in sign (Rota, "On the
       foundations of combinatorial theory I", 1964, 7).  mu(x, y) depends
       on [x, y] alone, so it is not 0 for any x <= y.

    By 3, a lattice that fails the atomistic test is not RC, so the
    interval scan then always finds a witness.
    """
    if _atomistic(lattice) and _cover_condition(lattice):
        return None, True
    return _interval_scan(lattice), False


def _atomistic(lattice):
    """True when every element is the join of the atoms below it.

    That fails exactly when some cover z < y has the same atoms below
    both: the join of y's atoms then lies below some lower cover z of y,
    and conversely y is not the join of atoms that all lie below z.  One
    AND per cover, stopping at the first failure.
    """
    down = lattice.down
    atoms = lattice.upper[lattice.bottom]
    for z, y in lattice.covers:
        if down[y] & ~down[z] & atoms == 0:
            return False
    return True


def _interval_scan(lattice):
    """The first 3-element interval in (x, y) index order, or None.

    Such an interval is a two-step cover path x < z < y, so only the y
    reached from x by two upper covers are tested, in ascending index for
    each x in turn.  Every other pair x < y holds no witness, so the first
    witness in (x, y) index order is the one a scan of all pairs would
    find, and the result is deterministic.
    """
    up = lattice.up
    down = lattice.down
    upper = lattice.upper
    for x in range(lattice.n):
        two_step = 0
        for c in _bits(upper[x]):
            two_step |= upper[c]
        above = up[x] ^ (1 << x)
        for y in _bits(two_step):
            # nonempty: it holds the cover between x and y
            between = (above & down[y]) ^ (1 << y)
            if between & (between - 1) == 0:
                return RcWitness(x, between.bit_length() - 1, y)
    return None


def _cover_condition(lattice):
    """True when any two distinct upper covers of an element have a common
    upper cover (Birkhoff's cover condition).

    reach[a], a itself and the lower covers of its upper covers, holds
    every element that shares an upper cover with a.  The condition holds
    exactly when every z that a covers has upper[z] inside reach[a]: one
    AND per cover pair, and no meet is read.
    """
    covers = lattice.covers
    upper = lattice.upper
    lower = lattice.lower
    reach = [1 << a for a in range(lattice.n)]
    for c, p in covers:
        reach[c] |= lower[p]
    for z, a in covers:
        if upper[z] & ~reach[a]:
            return False
    return True


def non_rc_family(lattice, witness):
    """The violating family carved out of a 3-element interval.

    Everything below the interval's top, except the interval's bottom: the
    two upper interval elements are then not shattered, so the family
    shatters at most |F| - 1 elements.
    """
    return frozenset(_bits(lattice.down[witness.y])) - {witness.x}


# ---------------------------------------------------------------------------
# exhaustive search
#
# Families are traversed as a subset tree: the children of F extend it by a
# strictly larger element index, so every nonempty family lies in the branch
# of its least member (n branches).  The empty family never violates
# (|Str(F)| = 0 = |F|) and is counted without a branch.  A node carries its
# shattering state as one integer, packed from one block per element y: one
# bit per x <= y, at x's rank within down[y], set while no member meets y at
# x, under a guard bit that stays clear.  So the state has one bit per
# comparable pair and one per element.  Adding a member only clears bits,
# and y is shattered exactly when its block is zero.  A subtree is skipped
# once |Str(F)| >= |F| + remaining capacity, which certifies every superset
# in it.  Since Str only grows along a path, a node F with
# m = |Str(F)| - |F| > 0 already certifies its last m children j' >= n - m:
# each has |Str(F + j')| >= |Str(F)| >= |F| + 1 + (n - 1 - j').  This tail
# rule counts them as m visits covering 2^m - 1 families without computing
# their states (proof in `_brute_force`).  The search stops at the first
# violating family.  One rule charges the budget: each branch may visit the
# budget less the families covered so far (see `_brute_force`).  The walk is
# iterative, with its frames in depth-indexed lists, so a deep branch cannot
# overflow the stack, and a lattice whose masks would take more than
# MAX_PACKED_BYTES is refused as Inconclusive before any mask is built.
# ---------------------------------------------------------------------------

# the cap on the bytes of the n keep masks, n * ceil((|<=| + n) / 8) for
# |<=| comparable pairs x <= y: it admits boolean:9 (1.2 MiB), boolean:10
# (7.3 MiB) and chain:700 (20.6 MiB), and refuses boolean:11 (43.8 MiB)
MAX_PACKED_BYTES = 32 << 20


def _packed_bytes(lattice):
    """The bytes of the n keep masks of `_packed_masks`, computed from the
    bit counts of the down-sets alone, before anything is built: each mask
    has one bit per comparable pair and one guard bit per element, in whole
    bytes."""
    bits = sum(d.bit_count() for d in lattice.down) + lattice.n
    return lattice.n * ((bits + 7) // 8)


# a keep mask of at most this many bits is a sum of one power of two per
# block, and a longer one is set bit by bit in a bytearray; each way is the
# faster one on its side (boolean:7 has 2,315 bits, chain:100 5,150)
_SHORT_MASK_BITS = 4096
# bytes.translate table from the digits of bin() to the bytes 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _ascending_bits(mask):
    """Indices of the set bits of mask, ascending, in time linear in its
    length: `core._bits` for a mask of one machine word, and otherwise the
    digits of bin(mask), where `_bits` would take time quadratic in the
    length, one big-int operation per set bit."""
    if mask.bit_length() <= 64:
        return _bits(mask)
    return compress(count(), bin(mask)[:1:-1].encode().translate(
        _BINARY_DIGITS))


def _packed_masks(lattice):
    """The masks of the packed state, as (ones, guards, keep).

    Blocks are laid out in element order, with no padding between them.
    Block y holds |down[y]| bits, the bit of rank r for the r-th element of
    down[y] in index order, and the guard bit above them.  ``ones`` sets
    every bit below each guard: it is also the empty family's state, which
    meets y at no x.  ``guards`` sets every guard, and ``keep[j]`` every bit
    but the rank bit of j ^ y in each block y.

    ``place[y]`` maps 1 + x to the position of x's bit in block y, for each
    x <= y, read off down[y] by :func:`_ascending_bits`.  The meet j ^ y is
    found from its down-set down[j] & down[y]: when index order extends the
    order, the meet is the highest element of that set, so the set's
    ``bit_length`` is 1 + the meet, and no long mask is hashed; otherwise a
    dict from down-sets gives 1 + the meet.  The positions of one keep mask
    come from chained ``map`` calls, one per block.  A short mask is the
    sum of its bits; a long one is set bit by bit in a bytearray and
    converted once, with no big-int shift per bit.
    """
    down = lattice.down
    n = len(down)
    if lattice.linext == tuple(range(n)):
        meet = int.bit_length
    else:
        meet = dict(zip(down, count(1))).__getitem__
    place = []
    lows = []       # lows[y]: the position of block y's lowest bit
    tops = []       # tops[y]: the position of block y's guard
    pos = 0
    for d in down:
        lows.append(pos)
        place.append({x + 1: p for p, x in enumerate(_ascending_bits(d), pos)})
        pos += d.bit_count()
        tops.append(pos)
        pos += 1

    if pos <= _SHORT_MASK_BITS:
        def packed(positions):
            return sum(map((1).__lshift__, positions))
    else:
        width = (pos + 7) // 8

        def packed(positions):
            mask = bytearray(width)
            for p in positions:
                mask[p >> 3] |= 1 << (p & 7)
            return int.from_bytes(mask, "little")

    guards = packed(tops)
    keep = [~packed(map(dict.__getitem__, place,
                        map(meet, map(dj.__and__, down))))
            for dj in down]
    return guards - packed(lows), guards, keep


def _brute_force(lattice, budget):
    """The family search as a verdict, within ``budget`` visited families.

    Adding member j ANDs the packed state with ``keep[j]``, which clears
    the rank bit of j ^ y in every block y.  Adding all-ones (every bit
    below the guard) to a block carries into its guard exactly when the
    block is nonzero, and the guard stops the carry there, so the guard
    bits set in ``state + ones`` (counted by ``int.bit_count``, new in
    Python 3.10) are the h elements not shattered, and |Str(F)| = n - h.
    The tests read h + |F| for the parent's F and child F + j: the child
    violates when n - h <= |F|, that is h + |F| >= n, and is pruned when
    n - h >= |F + j| + (n - 1 - j), the largest family in its subtree,
    that is h + |F| < j + 1.

    The tail rule.  Let F be a node the search expands, with k = |F|,
    c = |Str(F)|, last member j and rem = n - 1 - j children, so that
    k <= c < k + rem (F neither violates nor is pruned).  Adding a member
    only clears bits, so Str(F + j') contains Str(F).  Each of the last
    m = c - k children, j' >= n - m, then has
    |Str(F + j')| >= c >= (k + 1) + (n - 1 - j'): it meets the prune test,
    it cannot violate, and its whole subtree of 2^(n-1-j') families is
    certified.  So those m children are m visits covering
    2^(m-1) + ... + 2^0 = 2^m - 1 families, counted with no AND and no
    popcount.  m < rem, so the first child is always computed.

    The walk is iterative.  A frame is the node being expanded: its state,
    |F|, its next child and its tail start n - m, which for a child is
    h + |F| + 1.  An inner loop runs over the siblings of one frame; it
    descends by storing the frame at depth |F| of three lists, and climbs
    by reading it back.  The members of F are the stored next children
    less one.  The root level is one loop per branch (least member), whose
    frame has that one child and no tail.

    The empty family is the first unit of the budget.  Each branch may
    visit the budget less the families covered (visited or certified by
    pruning) so far, and the search stops when none is left.  Every earlier
    branch completed and covered exactly its 2^(n-1-first) families, so a
    branch gets what capping each branch at its subtree size in advance
    leaves over, and the family counts of partial runs stay as pinned.  A
    capped branch can still complete by pruning and cover more than the
    budget; the next branch then starts below zero and stops at once.  A
    budget that runs out in a tail after t < m of its children counts what
    visiting them one by one would: their 2^(m-1) + ... + 2^(m-t) =
    2^m - 2^(m-t) families.  A branch counts its visits once, in ``left``,
    and the families its prunes and tails cover beyond their visits in
    ``extra``, so the search has covered budget - left + extra.  The first
    witness is re-verified.  A lattice whose masks would exceed
    MAX_PACKED_BYTES is Inconclusive with no family examined.
    """
    n = lattice.n
    if budget < 1 or _packed_bytes(lattice) > MAX_PACKED_BYTES:
        return SspVerdict(INCONCLUSIVE, None, None, 0)
    ones, guards, keep = _packed_masks(lattice)
    # the frame of the ancestor with d members: states[d], nexts[d], tails[d]
    states = [0] * n
    nexts = [0] * n
    tails = [0] * n
    # below[j]: the families under a child whose last member is j - 1, less
    # the child itself
    below = [(1 << (n - j)) - 1 for j in range(n + 1)]
    covered = 1
    for first in range(n):
        left = budget - covered
        extra = 0       # the search has covered budget - left + extra
        parent, size, j, tail = ones, 0, first, first + 1
        while True:
            while j < tail:
                if left <= 0:
                    return SspVerdict(INCONCLUSIVE, None, None,
                                      budget - left + extra)
                left -= 1
                state = parent & keep[j]
                # h + |F| for the h blocks that F + j leaves nonzero
                hf = ((state + ones) & guards).bit_count() + size
                if hf >= n:
                    witness = frozenset([x - 1 for x in nexts[:size]] + [j])
                    _verify_witness(lattice, witness)
                    return SspVerdict(VIOLATED, None, witness,
                                      budget - left + extra)
                j += 1
                if hf < j:
                    # the child F + (j - 1) shatters n - h >= |F| + 1 +
                    # (n - j) elements, as many as the largest family in
                    # its subtree, so nothing below can violate
                    extra += below[j]
                else:
                    states[size] = parent
                    nexts[size] = j
                    tails[size] = tail
                    parent = state
                    size += 1
                    tail = hf + 1
            if not size:
                break   # the branch is done; the root has no tail
            m = n - tail
            if left < m:
                # the budget (left >= 0 inside a branch) runs out after
                # the first `left` tail children
                return SspVerdict(INCONCLUSIVE, None, None,
                                  budget - left + extra
                                  + (1 << m) - (1 << (m - left)))
            left -= m
            extra += below[tail] - m
            size -= 1
            parent = states[size]
            j = nexts[size]
            tail = tails[size]
        covered = budget - left + extra
    if covered != 1 << n:
        raise CheckFailed(f"search covered {covered} of 2^{n} families")
    return SspVerdict(CERTIFIED, CERT_BRUTE, None, covered)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SspVerdict:
    outcome: str                    # CertifiedSSP / Violated / Inconclusive
    certificate_kind: str | None    # a CERT_* constant naming the route, or None
    witness: frozenset | None       # violating family when outcome is Violated
    families_examined: int


def _verify_witness(lattice, fam):
    if len(shattered_set(lattice, fam)) >= len(fam):
        raise CheckFailed("claimed witness shatters at least |F| elements")


def is_ssp(lattice, strategy="auto", budget=DEFAULT_BUDGET):
    """Decide the SSP property.

    strategy "certificate" applies the Mobius-function certificates only;
    "brute" searches the families within the budget and stops at the first
    violator in DFS order, the lexicographic order of sorted members; "auto"
    gives the non-RC counterexample (kind ``CERT_NON_RC``), else tries the
    certificates, then brute force.  Every strategy but "brute" decides RC
    first: a non-RC lattice has a 3-element interval [x, y] with
    mu(x, y) = 0, so no certificate applies to it and no Mobius table is
    built.  Resource exhaustion yields Inconclusive, never an exception.
    Every Violated verdict is re-verified from the definition before
    returning.  The certificates read no meet; the witness checks and the
    family search read each meet x ^ y from ``lattice.element`` as the
    element whose down-set is down[x] & down[y].  An atomistic lattice with
    Birkhoff's cover condition, a geometric one, is RC with nonvanishing
    mu, so it is certified with no interval scan and no Mobius table; the
    cover condition is tested once, by :func:`_rc_route`, which also holds
    the proof.
    """
    if strategy not in ("auto", "brute", "certificate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "brute":
        witness, geometric = _rc_route(lattice)
        if witness is None:
            vanishing = [] if geometric else vanishing_pairs(lattice)
            if not vanishing:
                return SspVerdict(CERTIFIED, CERT_NONVANISHING, None, 0)
            # distinct pairs in index order lie in {(bottom, top)} exactly
            # when they equal it; (bottom, None) matches no pair
            if vanishing == [(lattice.bottom, lattice.top)]:
                return SspVerdict(CERTIFIED, CERT_RC_ONCE, None, 0)
        elif strategy == "auto":
            fam = non_rc_family(lattice, witness)
            _verify_witness(lattice, fam)
            return SspVerdict(VIOLATED, CERT_NON_RC, fam, 1)
    if strategy == "certificate":
        return SspVerdict(INCONCLUSIVE, None, None, 0)
    return _brute_force(lattice, budget)


# ---------------------------------------------------------------------------
# antichain bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AntichainReport:
    antichain: frozenset
    family_size: int
    below_antichain: frozenset   # everything strictly below some antichain member
    bound_size: int


def antichain_check(lattice, antichain, family):
    """Bound |F| by the strict down-set of a maximal antichain A.

    Requires a nonvanishing Mobius function, which is what
    ``is_ssp(lattice, "certificate")`` certifies as ``CERT_NONVANISHING``,
    and that F shatters no element of A; then |F| <= |F_A| where
    F_A = {x : x < a for some a in A}, and F_A itself shatters no element
    of A.  Both conclusions are recomputed and a failure raises
    CheckFailed.  So a non-RC lattice, where mu vanishes on a 3-element
    interval, is refused before any Mobius table is built, and a geometric
    one is accepted without one.
    """
    aset = frozenset(antichain)
    if not aset:
        raise NotMaximalAntichain("empty antichain is not maximal")
    for x in aset:
        for y in aset:
            if x != y and lattice.leq(x, y):
                raise NotMaximalAntichain(
                    f"{lattice.names[x]!r} < {lattice.names[y]!r}")
    for z in range(lattice.n):
        if z in aset:
            continue
        if not any(lattice.leq(z, a) or lattice.leq(a, z) for a in aset):
            raise NotMaximalAntichain(
                f"{lattice.names[z]!r} is incomparable to the whole antichain")
    if is_ssp(lattice, "certificate").certificate_kind != CERT_NONVANISHING:
        raise PreconditionViolated("Mobius function vanishes on this lattice")
    fam = frozenset(family)
    for a in aset:
        if shatters(lattice, fam, a):
            raise PreconditionViolated(
                f"family shatters antichain element {lattice.names[a]!r}")
    below = 0
    for a in aset:
        below |= lattice.down[a] & ~(1 << a)
    fa = frozenset(_bits(below))
    if len(fam) > len(fa):
        raise CheckFailed("|F| > |F_A| despite the preconditions")
    for a in aset:
        if shatters(lattice, fa, a):
            raise CheckFailed("F_A shatters an antichain element")
    return AntichainReport(aset, len(fam), fa, len(fa))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def product_ssp_witness(l_factor, k_factor, family, l_verdict=None,
                        k_verdict=None, prod=None):
    """Shattered set of size >= |F| for a family on the product K x L.

    ``family`` indexes ``product(k_factor, l_factor)``: pair (k, l) has
    index k * l_factor.n + l.  Per the potential construction, slice the
    family along K, shatter the slices in L, regroup along L and shatter in
    K; the disjoint union J of the results is returned after verifying that
    |J| >= |F| and that the family shatters every element of J.

    Both factors must come with a CertifiedSSP verdict (computed here by
    ``is_ssp`` with its defaults when not supplied); otherwise FactorNotSSP
    is raised.
    """
    nl = l_factor.n
    nk = k_factor.n
    fam = frozenset(family)
    # the slices below filter by membership, which would drop a bad index
    _check_elements(nk * nl, fam, "product_ssp_witness")
    if l_verdict is None:
        l_verdict = is_ssp(l_factor)
    if k_verdict is None:
        k_verdict = is_ssp(k_factor)
    if l_verdict.outcome != CERTIFIED:
        raise FactorNotSSP("first factor is not verified SSP")
    if k_verdict.outcome != CERTIFIED:
        raise FactorNotSSP("second factor is not verified SSP")
    # F_k: the L-slice of the family over k; I_k = Str_L(F_k)
    slices = [shattered_set(l_factor,
                            [l for l in range(nl) if k * nl + l in fam])
              for k in range(nk)]
    # G_l: the K-fibre of the shattered slices; J_l = Str_K(G_l)
    j = set()
    for l in range(nl):
        fibre = [k for k in range(nk) if l in slices[k]]
        for k in shattered_set(k_factor, fibre):
            j.add(k * nl + l)
    if len(j) < len(fam):
        raise CheckFailed("|J| < |F| despite SSP factors")
    if prod is None:
        prod = product(k_factor, l_factor)
    for idx in j:
        if not shatters(prod, fam, idx):
            raise CheckFailed("family fails to shatter an element of J")
    return frozenset(j)


# ---------------------------------------------------------------------------
# unique minimal non-shattered element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneMinimalReport:
    x: int                      # the unique minimal non-shattered element
    y: int                      # no family member meets x at y
    not_shattered: frozenset    # N = the up-set of x
    meets_at_y: frozenset       # D = {u : x ^ u = y}, disjoint from the family
    injection: tuple            # (a, complement-of-x-in-[y, a]) pairs over N
    family_size: int
    shattered_size: int


def one_minimal_check(lattice, family):
    """Constructive |F| <= |Str(F)| when L\\Str(F) has one minimal element.

    Works on RC lattices: for the unique minimal non-shattered x, pick the
    first y <= x (linext order) that no family member meets x at, and map
    each a >= x to the first complement of x in [y, a].  The map is checked
    to be an injection from N into D = {u : x ^ u = y}, which forces
    |F| <= |L| - |D| <= |L| - |N| = |Str(F)|.
    """
    if lattice.top is None:
        raise NotALattice("complement construction needs joins")
    rc_witness = is_rc(lattice)
    if rc_witness is not None:
        raise NotRC(
            f"3-element interval ({lattice.names[rc_witness.x]}, "
            f"{lattice.names[rc_witness.z]}, {lattice.names[rc_witness.y]})")
    fam = frozenset(family)
    sset = shattered_set(lattice, fam)
    nset = frozenset(range(lattice.n)) - sset
    minimals = [u for u in nset
                if all(v == u or not lattice.leq(v, u) for v in nset)]
    if len(minimals) != 1:
        raise NotOneMinimal(
            f"{len(minimals)} minimal non-shattered elements")
    x = minimals[0]
    if nset != lattice.upset(x):
        raise CheckFailed("the non-shattered elements are not up-closed")

    realized = realized_meets(lattice, fam, x)
    y = next(c for c in lattice.linext
             if lattice.leq(c, x) and not (realized >> c) & 1)
    down = lattice.down
    dset = frozenset(u for u in range(lattice.n)
                     if down[x] & down[u] == down[y])
    if dset & fam:
        raise CheckFailed("D intersects the family despite the choice of y")

    injection = []
    used = set()
    for a in sorted(nset):
        comp = next((c for c in lattice.linext
                     if lattice.leq(y, c) and lattice.leq(c, a)
                     and down[c] & down[x] == down[y]
                     and lattice.up[c] & lattice.up[x] == lattice.up[a]),
                    None)
        if comp is None:
            raise CheckFailed(
                f"no complement of x in [y, {lattice.names[a]!r}]")
        if comp in used or comp not in dset:
            raise CheckFailed("complement map is not an injection into D")
        used.add(comp)
        injection.append((a, comp))

    if len(fam) > lattice.n - len(dset) or len(fam) > len(sset):
        raise CheckFailed("size chain |F| <= |L|-|D| <= |Str(F)| broke")
    return OneMinimalReport(
        x=x, y=y, not_shattered=nset, meets_at_y=dset,
        injection=tuple(injection), family_size=len(fam),
        shattered_size=len(sset))
