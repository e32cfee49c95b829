"""Isomorph-free enumeration of small lattices and the RC-vs-SSP scan.

Lattices are generated by adding elements along a linear extension: each
new element picks a down-closed strict down-set that keeps every pairwise
meet unique, and the last element is forced to sit above everything.  A
finite meet-semilattice with a top is a lattice, so no separate join check
is needed; duplicates across labelings are rejected by canonical form.
"""

from dataclasses import dataclass

from .core import _bits, _from_up_masks, from_covers
from .errors import TooLarge
from .ssp import (CERTIFIED, DEFAULT_BUDGET, INCONCLUSIVE, is_rc, is_ssp,
                  parallel_map)

MAX_ENUM = 8


# ---------------------------------------------------------------------------
# canonical form / isomorphism
# ---------------------------------------------------------------------------

def _cover_lists(lattice):
    ups = [[] for _ in range(lattice.n)]
    downs = [[] for _ in range(lattice.n)]
    for c, p in lattice.covers:
        ups[c].append(p)
        downs[p].append(c)
    return ups, downs


def _refined_classes(lattice):
    """Isomorphism-invariant ordered partition of the elements.

    Initial colors are (level, up-degree, down-degree); the partition is
    refined by the multiset of neighbouring colors until stable.
    """
    n = lattice.n
    ups, downs = _cover_lists(lattice)
    level = [0] * n
    for x in lattice.linext:
        level[x] = max((level[c] + 1 for c in downs[x]), default=0)
    color = [(level[x], len(ups[x]), len(downs[x])) for x in range(n)]
    while True:
        sig = [(color[x],
                tuple(sorted(color[u] for u in ups[x])),
                tuple(sorted(color[d] for d in downs[x])))
               for x in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new_color = [palette[s] for s in sig]
        if len(set(new_color)) == len(set(color)):
            return [[x for x in range(n) if new_color[x] == c]
                    for c in sorted(set(new_color))]
        color = new_color


def canonical_key(lattice):
    """Hashable form equal across isomorphic lattices.

    The key is the lexicographically minimal pairwise-order encoding over
    all relabelings that respect the refined color partition, found by
    branch and bound: positions are filled class by class, and a branch is
    cut as soon as its encoding prefix exceeds the best one seen.
    """
    n = lattice.n
    up = lattice.up
    classes = _refined_classes(lattice)
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
        for x in slot_class[pos]:
            if used[x]:
                continue
            bits = 0
            ux = up[x]
            for c in chosen:
                bits = (bits << 2) | (((ux >> c) & 1) << 1) | ((up[c] >> x) & 1)
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


def is_isomorphic(a, b):
    return a.n == b.n and canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _lattice_from_downs(n, down):
    up = [0] * n
    for y in range(n):
        for x in _bits(down[y]):
            up[x] |= 1 << y
    return _from_up_masks(tuple(str(i) for i in range(n)), up)


def enumerate_lattices(n):
    """Every lattice on n elements, exactly once up to isomorphism.

    Deterministic order; every emitted structure has passed full
    construction validation including join existence.
    """
    if not 1 <= n <= MAX_ENUM:
        raise TooLarge(f"enumeration guard is n <= {MAX_ENUM}")
    if n == 1:
        yield from_covers(1, None, [])
        return

    seen = set()
    down = [1]  # down-set masks of the partial structure; element 0 is bottom

    def extend(i):
        if i == n:
            lattice = _lattice_from_downs(n, down)
            key = canonical_key(lattice)
            if key not in seen:
                seen.add(key)
                yield lattice
            return
        full = (1 << i) - 1
        candidates = [full] if i == n - 1 else range(1, full + 1)
        for dmask in candidates:
            if dmask & 1 == 0:
                continue  # a strict down-set always contains the bottom
            ok = True
            rest = dmask
            while rest:
                d = rest.bit_length() - 1
                if down[d] & ~dmask:
                    ok = False  # not down-closed
                    break
                rest &= ~(1 << d)
            if ok:
                # every meet with an existing element must stay unique
                for x in range(i):
                    t = dmask & down[x]
                    found = False
                    r = t
                    while r:
                        m = r.bit_length() - 1
                        if down[m] == t:
                            found = True
                            break
                        r &= ~(1 << m)
                    if not found:
                        ok = False
                        break
            if ok:
                down.append(dmask | (1 << i))
                yield from extend(i + 1)
                down.pop()

    yield from extend(1)


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


def _scan_one(args):
    lattice, budget = args
    return is_rc(lattice) is None, is_ssp(lattice, "auto", budget)


def conjecture_scan(n_max, budget=DEFAULT_BUDGET, jobs=1):
    """One ScanReport per size 1..n_max.

    Each lattice gets its RC status and an ``is_ssp(..., "auto")`` verdict;
    a lattice whose RC status and decided verdict disagree is recorded
    verbatim with its witness.  Reports do not depend on ``jobs``.
    """
    reports = []
    for n in range(1, n_max + 1):
        lattices = list(enumerate_lattices(n))
        outcomes = parallel_map(_scan_one, [(lat, budget) for lat in lattices],
                                jobs)
        rc = ssp = inconclusive = agreements = 0
        counterexamples = []
        for lattice, (is_rc_lattice, verdict) in zip(lattices, outcomes):
            certified = verdict.outcome == CERTIFIED
            rc += is_rc_lattice
            ssp += certified
            if verdict.outcome == INCONCLUSIVE:
                inconclusive += 1
            elif is_rc_lattice == certified:
                agreements += 1
            else:
                counterexamples.append((lattice, verdict.witness))
        reports.append(ScanReport(
            n=n, total_lattices=len(lattices), rc_count=rc, ssp_count=ssp,
            inconclusive=inconclusive, agreements=agreements,
            counterexamples=tuple(counterexamples)))
    return reports


def scan_report_text(reports):
    """Line-oriented human-readable report, counterexamples in full."""
    from .core import emit_lattice_text

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
            lines.append("counterexample family: {"
                         + ",".join(lattice.names[i] for i in sorted(fam)) + "}")
    return "\n".join(lines) + "\n"


def scan_report_tsv(reports):
    """Machine-readable: one row per size."""
    lines = ["n\ttotal\trc\tssp\tinconclusive\tcounterexamples"]
    for r in reports:
        lines.append(f"{r.n}\t{r.total_lattices}\t{r.rc_count}\t{r.ssp_count}"
                     f"\t{r.inconclusive}\t{len(r.counterexamples)}")
    return "\n".join(lines) + "\n"
