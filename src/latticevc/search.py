"""Isomorph-free enumeration of small lattices and the RC-vs-SSP scan.

Lattices are generated by adding elements along a linear extension: each
new element picks a down-closed strict down-set that keeps every pairwise
meet unique, and the last element is forced to sit above everything.  A
finite meet-semilattice with a top is a lattice, so no separate join check
is needed.

Isomorphs are rejected inside the search tree, in the sense of orderly
generation (McKay 1998; Heitzig & Reinhold 2002): a partial structure
(prefix) isomorphic to one met earlier is not extended.  The extension rule
is isomorphism-invariant, so the pruned subtree only holds relabelings of
leaves already emitted from the earlier prefix, which the depth-first order
has finished.

The walk hands out finished lattices, one :class:`Lattice` per isomorphism
class.  It keeps the cover structure of its prefix as it goes: each
element's covers are derived once, by the reduction step and the meet
check that :func:`core._from_down_masks` uses, when the element's prefix
is accepted, and undone when the walk leaves it.  A lattice is the prefix
plus the forced top, assembled from that state with one more meet check,
on the top's lower covers.

A canonical form of the raw down-masks tells isomorphic prefixes apart, and
it is computed only when needed: first each prefix gets a cheap invariant,
the sorted multiset of (down-set size, up-set size) over its elements.
Isomorphic prefixes have equal invariants, so a prefix whose invariant no
earlier prefix has is new and is not keyed; only prefixes that share an
invariant are keyed, each at most once (McKay & Piperno 2014 filter by
invariants before canonical labelling the same way).

Most duplicate children are dropped before they are tested, by two
isomorphism-invariant tests in the spirit of canonical augmentation
(McKay 1998): a child is kept only when its twin-class intersections are
the least in their orbit (a), and only when its new element has a largest
down-set among the child's maximal elements (b).  Every class still has a
child that passes both, and the invariants and keys stay the final
arbiter; see :func:`_walk`.
"""

from dataclasses import dataclass

from .core import (
    Lattice,
    _bits,
    _check_meets,
    _lower_covers,
    emit_lattice_text,
    format_family,
)
from .errors import NoBottom, TooLarge
from .ssp import CERT_NON_RC, CERTIFIED, INCONCLUSIVE, is_ssp

MAX_ENUM = 10
# bounds the tie set of _order_key: ties times elements, about 40 MiB
MAX_TIE_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# canonical form / isomorphism
# ---------------------------------------------------------------------------

def _order_key(up, down):
    """Canonical form of the order given by reflexive up/down-set masks.

    Elements are coloured by (down-set size, up-set size), an
    isomorphism-invariant ordered partition.  The key is the
    lexicographically least encoding over all relabelings that fill the
    positions colour class by colour class, in ascending colour order.
    x < y implies |down x| < |down y|, so no element placed earlier is
    above the one being placed: a position holds one bit per earlier
    position, set iff that element is below it.

    The search goes one position at a time and keeps the tie set: every
    partial relabeling whose encoding so far is the least one of its
    length.  Each is extended by every candidate member of the position's
    colour class, and only the extensions with the least bits are kept.
    This is exact: any partial relabeling can be completed, so if the
    least full encoding began with more than the least partial encoding
    of some length, completing that partial one would give a smaller
    full encoding.

    Twins, elements with the same strict down-set and the same strict
    up-set, share a colour, and swapping two unused ones is an
    automorphism that fixes every element already chosen, so their
    extensions have the same completions.  A position therefore tries one
    unused member of each twin class.

    The cost is the size of the tie set, which can grow to |Aut| up to
    twin swaps: it peaks at 5,040 on subspace:2:3 (whose 7 atoms tie in
    every order) and on boolean:7, whose key takes 59 s and 33 MiB peak
    RSS on a 2-CPU VM with Python 3.11 (60 s and 17 MiB by the recursive
    branch and bound this loop replaced).  The tie set is held in memory,
    so one of more than ``MAX_TIE_CELLS`` cells (ties times elements)
    raises ``TooLarge`` as it is built: subspace:3:3, which neither search
    keys within 60 s, and boolean:8 are refused within 0.2 s.  Splitting
    colour classes by refinement is the way past this (ROADMAP item 4).
    """
    n = len(up)
    by_color = {}
    first = {}
    twin = []  # the first member of each element's twin class
    for x in range(n):
        dx, ux = down[x], up[x]
        by_color.setdefault((dx.bit_count(), ux.bit_count()), []).append(x)
        twin.append(first.setdefault((dx ^ (1 << x), ux ^ (1 << x)), x))

    enc = []
    ties = [((), 0)]  # (chosen elements, their mask) with encoding enc
    for color in sorted(by_color):
        cls = by_color[color]
        for _ in cls:
            least = None
            for chosen, used in ties:
                tried = set()
                for x in cls:
                    if used >> x & 1 or twin[x] in tried:
                        continue
                    tried.add(twin[x])
                    bits = 0
                    dx = down[x]
                    for c in chosen:
                        bits = (bits << 1) | ((dx >> c) & 1)
                    if least is None or bits < least:
                        least = bits
                        kept = []
                    if bits == least:
                        kept.append((chosen + (x,), used | 1 << x))
                        if len(kept) * n > MAX_TIE_CELLS:
                            raise TooLarge("canonical key guard is ties * n"
                                           f" <= {MAX_TIE_CELLS}")
            enc.append(least)
            ties = kept
    return (n, tuple(enc))


def canonical_key(lattice):
    """Hashable form equal across isomorphic lattices.

    Isomorphism is a property of the order relation alone, so the key reads
    only the up- and down-set masks (:func:`_order_key`); the enumerator
    keys its raw down-masks the same way, when their invariants collide,
    and rejects duplicates before building a :class:`Lattice`.

    The key is the least encoding over the relabelings that fill the
    positions colour class by colour class.  It is found position by
    position, keeping every partial relabeling tied for the least encoding
    so far; that is exact because each one can be completed.  One member
    per twin class is tried, as swapping two unused twins fixes every
    element already placed.  The time and memory grow with the tie set,
    up to |Aut| up to twin swaps: about a minute for boolean:7 (5,040
    ties).  A tie set over ``MAX_TIE_CELLS`` cells (ties times elements)
    raises ``TooLarge``, as for subspace:3:3 and boolean:8.  Chains and
    other lattices with small colour classes are keyed at any size up to
    the 2,048-element cap.
    """
    return _order_key(lattice.up, lattice.down)


def is_isomorphic(a, b):
    return a.n == b.n and canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _walk(n_max, n_min=1):
    """Every lattice on n_min..n_max elements, once per class.

    The one-element lattice comes first.  Then the walk grows prefixes of
    1 <= i < n_max elements depth first and tests each once, on entry; a
    prefix isomorphic to an earlier one is not extended.  A unique
    i-element prefix plus the forced top is the (i+1)-element lattice,
    yielded on entry before the prefix is extended, so each size comes out
    in the order a walk that stops at that size gives.  Isomorphic prefixes
    have isomorphic extensions, since candidates are down-closed, contain
    the bottom and keep meets unique, and depth-first order finishes the
    earlier prefix first.  The forced top does not change the isomorphism
    class, so distinct prefixes give distinct lattices.

    The walk hands out finished lattices.  Beside the down- and up-sets it
    keeps, for each prefix element, its strict down-set, its lower- and
    upper-cover masks, its parents (the elements covering it, ascending)
    and its entry in ``element``.  They are derived once for the newest
    element of each accepted prefix, as :func:`core._from_down_masks`
    derives them: its lower covers by :func:`core._lower_covers`, a second
    minimal element refused, and :func:`core._check_meets` on its lower
    covers when there are two or more.  They are undone when the walk
    leaves the prefix.  :func:`_assemble` builds the lattice of a prefix
    plus the top from them, for the sizes n_min and up only; it makes the
    last check, on the top's lower covers.  A rejected prefix derives
    nothing.

    The test on entry is lazy.  ``seen`` maps the invariant of a prefix,
    the sorted multiset of (|down[x]|, |up[x]|) over its elements, to a
    bucket.  An isomorphism maps each element to one with as many elements
    below and above it, so isomorphic prefixes have equal invariants.  A
    prefix alone in its bucket is therefore new: the bucket stores a tuple
    of its down-sets (the walk edits its lists in place), and no key is
    computed.  When a later prefix lands in the bucket, the stored prefix
    is keyed once, its up-sets rebuilt from its down-sets, and the bucket
    becomes the set of keys; the prefix is keyed, rejected on an equal key
    and added otherwise.  So every accept and reject is the one that
    keying every prefix gives, and the walk yields the same sequence and
    labelings; only the number of keys falls (none below n = 7).  An
    invariant has one entry per element, so one dict serves every level.
    Invariants and stored prefixes are tuples of ints: they stay compact,
    and the garbage collector stops tracking them, where its passes over
    stored lists would grow with ``seen``.

    A candidate down-set D keeps meets unique when its intersection with
    each existing down-set is one of the prefix's down-sets (the set
    ``principal``, built once per prefix).  That alone makes D down-closed:
    for d in D, D & down[d] holds d and equals some down[e] inside down[d],
    so e = d and down[d] lies in D.  So only the ideals of the prefix that
    hold the bottom are tested, listed ascending: the bottom alone, then
    for each later element x in index order, every listed ideal that holds
    x's strict down-set with x added.  Index order extends the order, so x
    is a maximal element of each ideal it completes, and each new mask
    exceeds every earlier one.  A child's list is its parent's plus the
    ideals that the new element completes.  The up-masks that the
    invariant and the key read are updated as elements are pushed and
    popped.

    Two tests drop a candidate D of prefix P before the meet test, before
    its child's list is built and before the child is tested:

    (a) Twins, elements of P with the same strict down-set and strict
        up-set, can be permuted among themselves by an automorphism of P.
        D is kept only when it meets each twin class in an initial
        segment of the class in index order, the least choice in its
        orbit under those automorphisms.
    (b) Call m maximal in P when nothing lies above it.  D is dropped when
        some maximal m outside D has a larger down-set than the new
        element's, |down[m]| > |D| + 1: the new element must have a
        largest down-set among the child's maximal elements.

    Each class is still reached, by induction on the prefix size.  Take a
    prefix class Q and a maximal m of Q with a largest down-set.  Q - m
    keeps every meet, so it is a prefix, its class is met and its first
    representative P0 is extended.  An isomorphism Q - m -> P0 maps
    down(m) - m to a candidate of P0 that passes (b) and whose child is
    isomorphic to Q.
    The least member of its twin orbit passes (a), and (b) too, as (b) is
    invariant under automorphisms of P0; its child is isomorphic to Q as
    well.  Duplicates that both tests pass are still caught by ``seen``.
    """
    if n_max < 1:
        return
    labels = tuple(str(i) for i in range(n_max))
    if n_min <= 1:
        yield _assemble(labels, [], [], [], [], [], {}, 0)
    # invariant -> the down-sets of the one prefix met with it, or the set
    # of keys of the prefixes met with it once there are two or more;
    # invariants have the prefix's length, so one dict serves every level
    seen = {}
    down = [1]  # down-set masks of the prefix; element 0 is the bottom
    up = [1]
    strict = [0]
    # derived when a prefix is accepted, for its newest element
    lower = []
    upper = []
    parents = []
    element = {}

    # ``maximal`` is the mask of the prefix's maximal elements
    def extend(i, ideals, maximal):
        # (|down[x]|, |up[x]|) as one small int: both counts are at most i
        w = i + 1
        inv = tuple(sorted([d.bit_count() * w + u.bit_count()
                            for d, u in zip(down, up)]))
        bucket = seen.get(inv)
        if bucket is None:
            seen[inv] = tuple(down)
        else:
            if type(bucket) is tuple:
                first_up = [0] * i
                for y, d in enumerate(bucket):
                    for x in _bits(d):
                        first_up[x] |= 1 << y
                bucket = seen[inv] = {_order_key(first_up, bucket)}
            key = _order_key(up, down)
            if key in bucket:
                return  # an isomorphic prefix was extended earlier
            bucket.add(key)

        new = i - 1
        newbit = 1 << new
        covered, kids = _lower_covers(strict[new], down, strict)
        if new and not covered:
            raise NoBottom(f"2 minimal elements: 0, {new}")
        lower.append(covered)
        upper.append(0)
        parents.append([])
        element[down[new]] = new
        for x in kids:
            parents[x].append(new)
            upper[x] |= newbit
        if len(kids) > 1:
            _check_meets(labels, down, element, kids)

        if i + 1 >= n_min:
            yield _assemble(labels, down, up, lower, upper, parents, element,
                            maximal)
        if i + 1 < n_max:
            bit = 1 << i
            # (b): larger[s] holds the maximal elements whose down-set has
            # more than s members, which a candidate D with |D| + 1 = s must
            # hold
            larger = [0] * (i + 2)
            # (a): (first, second) bits of index-consecutive twins
            twins = []
            last = {}
            for x in range(i):
                dx, ux = down[x], up[x]
                xbit = 1 << x
                if ux == xbit:
                    for s in range(dx.bit_count()):
                        larger[s] |= xbit
                pair = (dx ^ xbit, ux ^ xbit)
                if pair in last:
                    twins.append((last[pair], xbit))
                last[pair] = xbit
            principal = set(down)
            up.append(bit)
            for dmask in ideals:
                if larger[dmask.bit_count() + 1] & ~dmask:
                    continue
                if any(dmask & b and not dmask & a for a, b in twins):
                    continue
                if all(dmask & dx in principal for dx in down):
                    down.append(dmask | bit)
                    strict.append(dmask)
                    for d in _bits(dmask):
                        up[d] |= bit
                    yield from extend(i + 1, ideals + [
                        m | bit for m in ideals if m & dmask == dmask],
                        maximal & ~dmask | bit)
                    for d in _bits(dmask):
                        up[d] ^= bit
                    strict.pop()
                    down.pop()
            up.pop()

        for x in kids:
            upper[x] ^= newbit
            parents[x].pop()
        del element[down[new]]
        parents.pop()
        upper.pop()
        lower.pop()

    if n_max > 1:
        yield from extend(1, [1], 1)


def _assemble(names, down, up, lower, upper, parents, element, maximal):
    """The lattice of a walk prefix plus the forced top, from the state
    :func:`_walk` keeps for the prefix; ``maximal`` masks the prefix's
    maximal elements, the top's lower covers.

    The top takes the next index, so index order still extends the order
    and is the linear extension.  It lies above everything, and it is the
    only parent of each maximal element.  The maximal elements are handed
    to :func:`core._check_meets` when there are two or more.  Every field
    is a new tuple or dict, so the walk's later edits never reach a
    lattice it has handed out.
    """
    top = len(down)
    n = top + 1
    bit = 1 << top
    full = bit | (bit - 1)
    down = (*down, full)
    element = {**element, full: top}
    if maximal & (maximal - 1):
        _check_meets(names, down, element, list(_bits(maximal)))
    top_only = (top,)
    return Lattice(
        n=n,
        names=names[:n],
        up=(*[u | bit for u in up], bit),
        down=down,
        covers=tuple([(x, p) for x, ps in enumerate(parents)
                      for p in ps or top_only]),
        upper=(*[u or bit for u in upper], 0),
        lower=(*lower, maximal),
        element=element,
        bottom=0,
        top=top,
        linext=tuple(range(n)),
    )


def enumerate_lattices(n):
    """Every lattice on n elements, exactly once up to isomorphism.

    The walk of :func:`_walk` up to size n, keeping size n: it tests and
    keys the same prefixes as a scan to n and assembles only the lattices
    it returns.  Deterministic order; every emitted structure has passed
    the checks :func:`core._from_down_masks` makes and has a top, so it is
    a lattice.
    """
    if not 1 <= n <= MAX_ENUM:
        raise TooLarge(f"enumeration guard is n <= {MAX_ENUM}")
    yield from _walk(n, n)


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """RC-vs-SSP tally for all lattices of one size.

    ``counterexamples`` holds (lattice, family) pairs where the RC status
    and the SSP verdict disagree; a non-empty list at any size is a
    reportable event.  ``inconclusive`` counts lattices whose family search
    ran out of budget (none up to n = 10 reaches it), which never count
    toward ``ssp_count``; agreements + counterexamples + inconclusive = total.
    """
    n: int
    total_lattices: int
    rc_count: int
    ssp_count: int
    inconclusive: int
    agreements: int
    counterexamples: tuple


def conjecture_scan(n_max):
    """One ScanReport per size 1..n_max.

    One walk of :func:`_walk` yields the lattices of every size, so each
    prefix is tested once for the whole scan, and each size is tallied as
    its lattices appear, in :func:`enumerate_lattices` order.  Each lattice
    gets one ``is_ssp(..., "auto")`` verdict in this process.  That verdict
    tests RC first and labels a non-RC counterexample ``CERT_NON_RC``, so
    RC is decided once per lattice; a lattice whose RC status and decided
    verdict disagree is recorded verbatim with its witness.  An ``n_max``
    above ``MAX_ENUM`` raises ``TooLarge`` before anything is enumerated.
    """
    if n_max > MAX_ENUM:
        raise TooLarge(f"enumeration guard is n <= {MAX_ENUM}")
    sizes = range(1, n_max + 1)
    total, rc, ssp, inconclusive, agreements = (
        dict.fromkeys(sizes, 0) for _ in range(5))
    counterexamples = {n: [] for n in sizes}
    for lattice in _walk(n_max):
        n = lattice.n
        verdict = is_ssp(lattice, "auto")
        is_rc_lattice = verdict.certificate_kind != CERT_NON_RC
        certified = verdict.outcome == CERTIFIED
        total[n] += 1
        rc[n] += is_rc_lattice
        ssp[n] += certified
        if verdict.outcome == INCONCLUSIVE:
            inconclusive[n] += 1
        elif is_rc_lattice == certified:
            agreements[n] += 1
        else:
            counterexamples[n].append((lattice, verdict.witness))
    return [ScanReport(n=n, total_lattices=total[n], rc_count=rc[n],
                       ssp_count=ssp[n], inconclusive=inconclusive[n],
                       agreements=agreements[n],
                       counterexamples=tuple(counterexamples[n]))
            for n in sizes]


def scan_report_text(reports):
    """Line-oriented human-readable report, counterexamples in full."""
    lines = []
    for r in reports:
        lines.append(
            f"n={r.n} total={r.total_lattices} rc={r.rc_count} "
            f"ssp={r.ssp_count} inconclusive={r.inconclusive} "
            f"counterexamples={len(r.counterexamples)}")
        for lattice, fam in r.counterexamples:
            lines.append("counterexample lattice:")
            lines.extend("  " + ln
                         for ln in emit_lattice_text(lattice).splitlines())
            lines.append("counterexample family: "
                         + format_family(lattice, fam))
    return "\n".join(lines) + "\n"


def scan_report_tsv(reports):
    """Machine-readable: one row per size."""
    lines = ["n\ttotal\trc\tssp\tinconclusive\tcounterexamples"]
    for r in reports:
        lines.append(f"{r.n}\t{r.total_lattices}\t{r.rc_count}\t{r.ssp_count}"
                     f"\t{r.inconclusive}\t{len(r.counterexamples)}")
    return "\n".join(lines) + "\n"
