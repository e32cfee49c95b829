"""Shared corpus lattices and independent oracles for the test suite.

The oracles here deliberately re-derive results by definition-level loops
(or by exhaustive enumeration) so that the library's optimized paths are
checked against something that cannot share their bugs.
"""

import functools
import random
from dataclasses import dataclass
from itertools import combinations, product as iproduct

import pytest

import latticevc as lv
from latticevc import search, ssp
from latticevc.builders import (
    _is_prime,
    _ordered_bases,
    _subset_names,
    _subspace_labels,
    qbinom,
)
from latticevc.core import MAX_ELEMENTS, _bits, _check_size
from latticevc.errors import CheckFailed, NotMeetSemilattice, NotPrime
from latticevc.search import canonical_key


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _m3():
    # diamond with three atoms, as a geometric lattice of the uniform matroid
    spec = lv.MatroidSpec.make(3, [s for d in range(3)
                                   for s in combinations(range(3), d)])
    return lv.from_matroid(spec)


def build_corpus():
    return {
        "b1": lv.boolean(1),
        "b2": lv.boolean(2),
        "b3": lv.boolean(3),
        "b4": lv.boolean(4),
        "chain2": lv.chain(2),
        "chain3": lv.chain(3),
        "m3": _m3(),
        "fig1": lv.fig1(),
        "fig2": lv.fig2(),
        "fig3b": lv.fig3b(),
        "pg22": lv.subspace_lattice(2, 2),
        "pg23": lv.subspace_lattice(2, 3),
        "pg32": lv.subspace_lattice(3, 2),
        "prod_c2_b1": lv.product(lv.chain(2), lv.boolean(1)),
    }


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240611)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_meet_table(names, down):
    """The meet table by one lookup per unordered pair, in index order.

    The meet of x, y is the element whose down-set is down[x] & down[y];
    the masks are distinct, so a ``{mask: element}`` dict finds it or shows
    that the pair has no unique greatest common lower bound.  The first
    such pair raises NotMeetSemilattice with the message construction must
    give.
    """
    n = len(down)
    element = {mask: x for x, mask in enumerate(down)}
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[x][x] = x
        for y in range(x + 1, n):
            m = element.get(down[x] & down[y])
            if m is None:
                raise NotMeetSemilattice(
                    f"elements {names[x]!r}, {names[y]!r} have no unique "
                    "greatest common lower bound"
                )
            table[x][y] = table[y][x] = m
    return tuple(map(tuple, table))


@functools.lru_cache(maxsize=512)
def _cached_meet_table(names, down):
    return oracle_meet_table(names, down)


def oracle_meets(lattice):
    """``oracle_meet_table`` of a lattice's down-sets, computed once per
    lattice: ground truth that does not read ``lattice.element``."""
    return _cached_meet_table(lattice.names, lattice.down)


def naive_shatters(lattice, family, y):
    """Definition-level quantifier loops, no bitmask tricks."""
    fam = list(family)
    meet = oracle_meets(lattice)
    for x in range(lattice.n):
        if not lattice.leq(x, y):
            continue
        if not any(meet[z][y] == x for z in fam):
            return False
    return True


def naive_shattered_set(lattice, family):
    return frozenset(y for y in range(lattice.n)
                     if naive_shatters(lattice, family, y))


def naive_violating_families(lattice):
    """All violating families by unpruned enumeration of every subset."""
    n = lattice.n
    out = []
    for code in range(1 << n):
        fam = frozenset(i for i in range(n) if (code >> i) & 1)
        if len(naive_shattered_set(lattice, fam)) < len(fam):
            out.append(fam)
    return sorted(out, key=lambda f: (len(f), sum(1 << i for i in f)))


def oracle_family_search(lattice, budgets):
    """The family search visiting every child it does not prune, as a
    ``{budget: verdict}`` dict over ``budgets``.

    The same subset tree, packed state, pruning and budget rule as
    ``ssp._brute_force``, without its tail rule: each of a node's last
    |Str(F)| - |F| children is visited, ANDed and counted one by one.
    ``ssp._brute_force`` must return the same verdict at each budget.

    One walk answers every budget.  A search with budget b starts each
    branch with b less the families covered so far and spends one unit per
    visit, so it stops at the first visit where ``used``, the families
    covered at the branch's start plus the visits made in it, reaches b.
    ``used`` grows by one per visit and never falls between branches, so
    the walk answers the budgets in ascending order, and stops once every
    budget is answered.  A budget the walk outlasts gets its final verdict.
    """
    n = lattice.n
    nothing = ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 0)
    if ssp._packed_bytes(lattice) > ssp.MAX_PACKED_BYTES:
        return dict.fromkeys(budgets, nothing)
    answers = {b: nothing for b in budgets if b < 1}
    pending = sorted({b for b in budgets if b >= 1}, reverse=True)
    ones, guards, keep = ssp._packed_masks(lattice)
    members = []        # the current family, ascending
    states = [ones]     # states[i]: the state of members[:i]
    covered = 1
    j = 0               # the member to add next
    while True:
        if not members:
            # a new branch, of least member j
            if j == n:
                break
            used = covered
        while pending and pending[-1] <= used:
            answers[pending.pop()] = ssp.SspVerdict(
                ssp.INCONCLUSIVE, None, None, covered)
        if not pending:
            return answers
        used += 1
        covered += 1
        state = states[-1] & keep[j]
        str_cnt = n - ((state + ones) & guards).bit_count()
        members.append(j)
        size = len(members)
        if str_cnt < size:
            witness = frozenset(members)
            if len(naive_shattered_set(lattice, witness)) >= size:
                raise CheckFailed("claimed witness shatters at least |F|")
            answers.update(dict.fromkeys(pending, ssp.SspVerdict(
                ssp.VIOLATED, None, witness, covered)))
            return answers
        rem = n - 1 - j
        if str_cnt >= size + rem:
            covered += (1 << rem) - 1
        else:
            states.append(state)
            j += 1
            continue
        j = members.pop() + 1
        while j == n and members:
            j = members.pop() + 1
            states.pop()
    if covered != 1 << n:
        raise CheckFailed(f"search covered {covered} of 2^{n} families")
    answers.update(dict.fromkeys(pending, ssp.SspVerdict(
        ssp.CERTIFIED, ssp.CERT_BRUTE, None, covered)))
    return answers


def oracle_mobius_rows(lattice):
    """The Mobius rows by the interval sum of the defining recurrence.

    Row x is filled along the linear extension with mu(x, y) = -sum of
    mu(x, z) over z in [x, y), one term per element; the other entries of
    a row are 0.  ``mobius.mobius_table`` must produce the same rows.
    """
    up = lattice.up
    down = lattice.down
    rows = []
    for x in range(lattice.n):
        row = [0] * lattice.n
        row[x] = 1
        for y in lattice.linext:
            if y != x and (up[x] >> y) & 1:
                row[y] = -sum(row[z]
                              for z in _bits(up[x] & down[y] & ~(1 << y)))
        rows.append(row)
    return rows


def oracle_is_rc(lattice):
    """The first 3-element interval over all pairs x < y in (x, y) index
    order, or None; ``ssp.is_rc`` must return the same witness."""
    up = lattice.up
    down = lattice.down
    for x in range(lattice.n):
        for y in _bits(up[x] & ~(1 << x)):
            between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
            if between and between & (between - 1) == 0:
                return lv.RcWitness(x, between.bit_length() - 1, y)
    return None


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
    """A subspace of F_q^n held by its reduced row-echelon basis, for the
    vector-span oracle; ``subspace_lattice`` works on point masks instead.

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
        return _subspace_labels([self.basis])[0]


def all_subspaces(q, n):
    """Every subspace of F_q^n as a Subspace, ordered by (dim, basis): the
    element order of ``subspace_lattice``."""
    return [Subspace(q, n, basis) for basis in _ordered_bases(q, n)]


def relabel(lattice, perm):
    """The same order with element perm[i] moved to index i (labels are
    dropped)."""
    inv = [0] * lattice.n
    for new, old in enumerate(perm):
        inv[old] = new
    covers = [(inv[c], inv[p]) for c, p in lattice.covers]
    return lv.from_covers(lattice.n, None, covers)


def naive_mobius(lattice):
    """Memoized top-down recursion on the defining recurrence."""
    memo = {}

    def mu(x, y):
        if (x, y) in memo:
            return memo[(x, y)]
        if x == y:
            v = 1
        else:
            v = -sum(mu(x, z) for z in range(lattice.n)
                     if lattice.leq(x, z) and lattice.leq(z, y) and z != y)
        memo[(x, y)] = v
        return v

    return {(x, y): mu(x, y) for x in range(lattice.n)
            for y in range(lattice.n) if lattice.leq(x, y)}


def all_posets_leq(n):
    """Every labeled partial order on n elements, as tuples of up-masks.

    Enumerated by assigning each unordered pair one of three states
    (incomparable, i<j, j>i) and keeping the transitive ones; this path is
    independent of the package's extension-based generator.
    """
    pairs = list(combinations(range(n), 2))
    posets = []
    for states in iproduct(range(3), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                up[i] |= 1 << j
            elif s == 2:
                up[j] |= 1 << i
        ok = True
        for x in range(n):
            closure = up[x]
            m = up[x] & ~(1 << x)
            while m:
                z = (m & -m).bit_length() - 1
                closure |= up[z]
                m &= m - 1
            if closure != up[x]:
                ok = False
                break
        if ok:
            posets.append(tuple(up))
    return posets


def poset_is_lattice(up):
    """Bottom, top, and all meets/joins exist (checked by direct scans)."""
    n = len(up)
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if (up[x] >> y) & 1:
                down[y] |= 1 << x
    if sum(1 for x in range(n) if down[x] == 1 << x) != 1:
        return False
    if sum(1 for x in range(n) if up[x] == 1 << x) != 1:
        return False
    for masks in (down, up):
        for x in range(n):
            for y in range(x + 1, n):
                common = masks[x] & masks[y]
                best = [m for m in range(n) if (common >> m) & 1
                        and masks[m] == common]
                if not best:
                    return False
    return True


def poset_to_lattice(up):
    """Build a package Lattice from oracle up-masks (via cover pairs)."""
    n = len(up)
    covers = []
    for x in range(n):
        for y in range(n):
            if x != y and (up[x] >> y) & 1:
                if not any((up[x] >> z) & 1 and (up[z] >> y) & 1
                           for z in range(n) if z != x and z != y):
                    covers.append((x, y))
    return lv.from_covers(n, None, covers)


def oracle_lattice_count(n):
    """Lattices on n elements up to isomorphism, via the labeled oracle."""
    keys = set()
    for up in all_posets_leq(n):
        if poset_is_lattice(up):
            keys.add(canonical_key(poset_to_lattice(up)))
    return len(keys)


def oracle_order_key(up, down):
    """The canonical order key by plain branch and bound, with no pruning
    by twins and no search-free path.

    Colours are (down-set size, up-set size); the key is the least
    encoding over every relabeling that fills the positions colour class
    by colour class, in ascending colour order, a position holding one bit
    per earlier position, set iff that element is below it.  A branch is
    cut once its encoding prefix exceeds the best one seen.
    ``search._order_key`` must return the same value.
    """
    n = len(up)
    color = [(down[x].bit_count(), up[x].bit_count()) for x in range(n)]
    slot_class = []
    for c in sorted(set(color)):
        cls = [x for x in range(n) if color[x] == c]
        slot_class += [cls] * len(cls)

    chosen = []
    enc = []
    used = [False] * n
    best = [None]

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
            for c in chosen:
                bits = (bits << 1) | ((down[x] >> c) & 1)
            cands.append((bits, x))
        cands.sort()
        for bits, x in cands:
            if equal:
                ref = best[0][pos]
                if bits > ref:
                    break
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
                equal = True

    place(0, False)
    return (n, best[0])


def oracle_lattice_masks(n_max):
    """Down-masks of every lattice on 1..n_max elements, once per class,
    by orderly generation alone.

    The walk that ``search._lattice_masks`` refines: every prefix is keyed
    (by ``search._order_key``, looked up on each call) and extended when
    its key is new, and every ideal of the prefix that holds the bottom and
    keeps meets unique is tried as a child, with no filter by twins or by
    canonical deletion.  ``search._lattice_masks`` must emit the same
    isomorphism classes.
    """
    if n_max < 1:
        return
    yield [1]
    seen = set()
    down = [1]
    up = [1]

    def extend(i, ideals):
        key = search._order_key(up, down)
        if key in seen:
            return
        seen.add(key)
        bit = 1 << i
        yield down + [(bit - 1) | bit]
        if i + 1 == n_max:
            return
        principal = set(down)
        up.append(bit)
        for dmask in ideals:
            if all(dmask & dx in principal for dx in down):
                down.append(dmask | bit)
                for d in _bits(dmask):
                    up[d] |= bit
                yield from extend(i + 1, ideals + [
                    m | bit for m in ideals if m & dmask == dmask])
                for d in _bits(dmask):
                    up[d] ^= bit
                down.pop()
        up.pop()

    if n_max > 1:
        yield from extend(1, [1])


def random_family(lattice, rng):
    members = [i for i in range(lattice.n) if rng.random() < 0.5]
    return frozenset(members)


def graphic_matroid(vertices, edges):
    """The graphic matroid: edge sets without a cycle, by union-find."""
    def acyclic(subset):
        root = list(range(vertices))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v
        for i in subset:
            u, v = map(find, edges[i])
            if u == v:
                return False
            root[u] = v
        return True
    return lv.MatroidSpec.make(len(edges), [
        s for d in range(len(edges) + 1)
        for s in combinations(range(len(edges)), d) if acyclic(s)])


# ---------------------------------------------------------------------------
# builder oracles: the same lattices from cover lists through from_covers,
# with the builders' guards in the same order; the builders compute the
# down-masks themselves and must give identical fields and errors
# ---------------------------------------------------------------------------

def oracle_boolean(n):
    if n < 0:
        raise ValueError("boolean lattice dimension must be non-negative")
    _check_size(1 << min(n, MAX_ELEMENTS.bit_length()), f"boolean({n})")
    size = 1 << n
    names = _subset_names(n)
    covers = [(m, m | (1 << i))
              for m in range(size) for i in range(n) if not (m >> i) & 1]
    return lv.from_covers(size, names, covers)


def oracle_chain(k):
    if k < 0:
        raise ValueError("chain length must be non-negative")
    _check_size(k + 1, f"chain({k})")
    return lv.from_covers(k + 1, [str(i) for i in range(k + 1)],
                          [(i, i + 1) for i in range(k)])


def oracle_subspace_lattice(q, n):
    exponent = max(0, min(n, MAX_ELEMENTS.bit_length()))
    _check_size(min(q, MAX_ELEMENTS + 1) ** exponent,
                f"F_{q}^{n} in subspace_lattice({q}, {n})")
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    _check_size(sum(qbinom(n, d, q) for d in range(n + 1)),
                f"subspace_lattice({q}, {n})")
    subs = all_subspaces(q, n)
    vecsets = [s.vectors() for s in subs]
    by_dim = [[] for _ in range(n + 2)]
    for i, s in enumerate(subs):
        by_dim[s.dim()].append(i)
    covers = [(i, j) for i, s in enumerate(subs) for j in by_dim[s.dim() + 1]
              if vecsets[i] <= vecsets[j]]
    return lv.from_covers(len(subs), [s.name() for s in subs], covers)


def oracle_from_matroid(spec):
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
    names = [labels[sum(1 << x for x in s)] for s in flats]
    lattice = lv.from_covers(len(flats), names,
                             [(i, j) for i, s in enumerate(flats)
                              for j, t in enumerate(flats) if s < t])
    if lattice.rank is None:
        raise CheckFailed("the lattice of flats is not ranked")
    if any(lattice.rank[i] != rank_of[s] for i, s in enumerate(flats)):
        raise CheckFailed("lattice rank differs from matroid rank")
    return lattice
