"""Isomorph-free enumeration of small lattices and the RC-vs-SSP scan.

Lattices are generated by adding elements along a linear extension: each
new element picks a down-closed strict down-set that keeps every pairwise
meet unique, and the last element is forced to sit above everything.  A
finite meet-semilattice with a top is a lattice, so no separate join check
is needed.

Isomorphs are rejected inside the search tree, in the sense of orderly
generation (McKay 1998; Heitzig & Reinhold 2002): every partial structure
(prefix) is keyed by the canonical form of its raw down-masks, and a prefix
isomorphic to one met earlier is not extended.  The extension rule is
isomorphism-invariant, so the pruned subtree only holds relabelings of
leaves already emitted from the earlier prefix, which the depth-first order
has finished.  One :class:`Lattice` is built and validated per isomorphism
class.
"""

from dataclasses import dataclass

from .core import _bits, _from_down_masks, emit_lattice_text, format_family
from .errors import TooLarge
from .ssp import CERT_NON_RC, CERTIFIED, DEFAULT_BUDGET, INCONCLUSIVE, is_ssp

MAX_ENUM = 10


# ---------------------------------------------------------------------------
# canonical form / isomorphism
# ---------------------------------------------------------------------------

def _order_key(up, down):
    """Canonical form of the order given by reflexive up/down-set masks.

    Elements are coloured by (down-set size, up-set size), an
    isomorphism-invariant ordered partition.  The key is the
    lexicographically minimal encoding over all relabelings that fill the
    positions colour class by colour class, in ascending colour order,
    found by branch and bound: a branch is cut as soon as its encoding
    prefix exceeds the best one seen.  x < y implies |down x| < |down y|,
    so no element placed earlier is above the one being placed: a position
    holds one bit per earlier position, set iff that element is below it.

    Twins, elements with the same strict down-set and the same strict
    up-set, share a colour, and swapping two of them is an automorphism
    that fixes every other element.  So a node tries one unused member of
    each twin class, and when every colour class is one twin class, every
    relabeling has the same encoding, computed once without a search.
    """
    n = len(up)
    by_color = {}
    first = {}
    twin = []  # the first member of each element's twin class
    for x in range(n):
        dx, ux = down[x], up[x]
        by_color.setdefault((dx.bit_count(), ux.bit_count()), []).append(x)
        twin.append(first.setdefault((dx ^ (1 << x), ux ^ (1 << x)), x))
    classes = [by_color[c] for c in sorted(by_color)]

    # twins share a colour, so equal counts mean equal partitions; `place`
    # would make one descent here too, at a higher cost per position
    if len(first) == len(classes):
        enc = []
        chosen = []
        for cls in classes:
            for x in cls:
                bits = 0
                dx = down[x]
                for c in chosen:
                    bits = (bits << 1) | ((dx >> c) & 1)
                enc.append(bits)
                chosen.append(x)
        return (n, tuple(enc))

    slot_class = [cls for cls in classes for _ in cls]
    chosen = []
    enc = []
    used = [False] * n
    best = [None]

    # Invariant: place(pos, equal) runs with enc[0:pos] equal to the best
    # prefix when `equal`, strictly below it (or best unset) otherwise, so
    # a leaf reached with equal=False always improves.
    def place(pos, equal):
        if pos == n:
            if not equal:
                best[0] = tuple(enc)
            return
        cands = []
        tried = set()
        for x in slot_class[pos]:
            if used[x] or twin[x] in tried:
                continue
            tried.add(twin[x])
            bits = 0
            dx = down[x]
            for c in chosen:
                bits = (bits << 1) | ((dx >> c) & 1)
            cands.append((bits, x))
        cands.sort()
        for bits, x in cands:
            if equal:
                ref = best[0][pos]
                if bits > ref:
                    break  # sorted: every later sibling is worse too
                child_equal = bits == ref
            else:
                child_equal = False
            before = best[0]
            used[x] = True
            chosen.append(x)
            enc.append(bits)
            place(pos + 1, child_equal)
            enc.pop()
            chosen.pop()
            used[x] = False
            if best[0] is not before:
                # the new best came from this subtree and shares our prefix
                equal = True

    place(0, False)
    return (n, best[0])


def canonical_key(lattice):
    """Hashable form equal across isomorphic lattices.

    Isomorphism is a property of the order relation alone, so the key reads
    only the up- and down-set masks (:func:`_order_key`); the enumerator
    keys its raw down-masks the same way and rejects duplicates before
    building a :class:`Lattice`.
    """
    return _order_key(lattice.up, lattice.down)


def is_isomorphic(a, b):
    return a.n == b.n and canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _lattice_masks(n_max):
    """Down-masks of every lattice on 1..n_max elements, once per class.

    The one-element lattice comes first.  Then the walk grows prefixes of
    1 <= i < n_max elements depth first and keys each once, on entry; a
    prefix isomorphic to an earlier one is not extended.  A unique
    i-element prefix plus the forced top is the (i+1)-element lattice,
    yielded on entry before the prefix is extended, so each size comes out
    in the order a walk that stops at that size gives.  Isomorphic prefixes
    have isomorphic extensions, since candidates are down-closed, contain
    the bottom and keep meets unique, and depth-first order finishes the
    earlier prefix first.  The forced top does not change the isomorphism
    class, so distinct prefixes give distinct lattices.

    A candidate down-set is down-closed when every element it holds has
    its down-set inside it, and keeps meets unique when its intersection
    with each existing down-set is one of the prefix's down-sets (the set
    ``principal``, built once per prefix).  The up-masks that the key reads
    are updated as elements are pushed and popped.
    """
    if n_max < 1:
        return
    yield [1]
    seen = set()  # keys are (size, encoding), so one set serves every level
    down = [1]  # down-set masks of the prefix; element 0 is the bottom
    up = [1]

    def extend(i):
        key = _order_key(up, down)
        if key in seen:
            return  # an isomorphic prefix was extended earlier
        seen.add(key)
        bit = 1 << i
        full = bit - 1
        yield down + [full | bit]
        if i + 1 == n_max:
            return
        principal = set(down)
        up.append(bit)
        # odd masks: a strict down-set always contains the bottom
        for dmask in range(1, full + 1, 2):
            if (all(down[d] & ~dmask == 0 for d in _bits(dmask))
                    and all(dmask & dx in principal for dx in down)):
                down.append(dmask | bit)
                for d in _bits(dmask):
                    up[d] |= bit
                yield from extend(i + 1)
                for d in _bits(dmask):
                    up[d] ^= bit
                down.pop()
        up.pop()

    if n_max > 1:
        yield from extend(1)


def enumerate_lattices(n):
    """Every lattice on n elements, exactly once up to isomorphism.

    The walk of :func:`_lattice_masks` up to size n, keeping size n: it
    keys the same prefixes as a scan to n and builds only the lattices it
    returns.  Deterministic order; every emitted structure has passed full
    construction validation including join existence.
    """
    if not 1 <= n <= MAX_ENUM:
        raise TooLarge(f"enumeration guard is n <= {MAX_ENUM}")
    names = tuple(str(i) for i in range(n))
    for down in _lattice_masks(n):
        if len(down) == n:
            yield _from_down_masks(names, down)


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """RC-vs-SSP tally for all lattices of one size.

    ``counterexamples`` holds (lattice, family) pairs where the RC status
    and the SSP verdict disagree; a non-empty list at any size is a
    reportable event.  ``inconclusive`` counts budget-limited lattices,
    which never count toward ``ssp_count``; with an adequate budget
    agreements + counterexamples = total.
    """
    n: int
    total_lattices: int
    rc_count: int
    ssp_count: int
    inconclusive: int
    agreements: int
    counterexamples: tuple


def conjecture_scan(n_max, budget=DEFAULT_BUDGET):
    """One ScanReport per size 1..n_max.

    One walk of :func:`_lattice_masks` yields every size, so each prefix
    is keyed once for the whole scan, and each size is tallied as its
    lattices appear, in :func:`enumerate_lattices` order.  Each lattice
    gets one ``is_ssp(..., "auto")`` verdict in this process.  That verdict
    tests RC first and labels a non-RC counterexample ``CERT_NON_RC``, so
    RC is decided once per lattice; a lattice whose RC status and decided
    verdict disagree is recorded verbatim with its witness.  An ``n_max``
    above ``MAX_ENUM`` raises ``TooLarge`` before anything is enumerated.
    """
    if n_max > MAX_ENUM:
        raise TooLarge(f"enumeration guard is n <= {MAX_ENUM}")
    sizes = range(1, n_max + 1)
    names = {n: tuple(str(i) for i in range(n)) for n in sizes}
    total, rc, ssp, inconclusive, agreements = (
        dict.fromkeys(sizes, 0) for _ in range(5))
    counterexamples = {n: [] for n in sizes}
    for down in _lattice_masks(n_max):
        n = len(down)
        lattice = _from_down_masks(names[n], down)
        verdict = is_ssp(lattice, "auto", budget)
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
