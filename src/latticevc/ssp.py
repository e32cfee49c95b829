"""SSP verification, the RC decision, and family-level shattering bounds.

A lattice is SSP when every family F shatters at least |F| elements.  Three
routes are implemented: certificates (nonvanishing Mobius function, or RC
with mu vanishing only on the bottom-to-top pair), the constructive
counterexample on non-RC lattices, and exhaustive search over families with
sound subset pruning.
"""

from dataclasses import dataclass

from .core import _bits, product
from .errors import (
    CheckFailed,
    FactorNotSSP,
    NotALattice,
    NotMaximalAntichain,
    NotOneMinimal,
    NotRC,
    PreconditionViolated,
)
from .mobius import mobius_table, vanishing_pairs
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

    Uses the interval characterization: a finite lattice is RC iff no pair
    x < y has exactly one element strictly between.  Witnesses are scanned
    in (x, y) index order, so the result is deterministic.
    """
    up = lattice.up
    down = lattice.down
    for x in range(lattice.n):
        for y in _bits(up[x] & ~(1 << x)):
            between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
            if between and between & (between - 1) == 0:
                return RcWitness(x, between.bit_length() - 1, y)
    return None


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
# (|Str(F)| = 0 = |F|) and is counted without a branch.  Shattering data is
# maintained incrementally (adding a member only grows the realized meets
# at every y), and a subtree is skipped once |Str(F)| >= |F| + remaining
# capacity, which certifies every superset in it.  The search stops at the
# first violating family.  The budget is pre-allocated to branches by
# worst-case subtree size, which pins the family counts of partial runs.
# ---------------------------------------------------------------------------

def _scan_branch(lattice, first, quota):
    """DFS over the families whose least member is `first`, within `quota`
    visited families.

    Returns (complete, witness, covered): `complete` is False when the
    search stopped early, `witness` is the first violating family in DFS
    order or None, and `covered` counts the families examined or certified
    by pruning.
    """
    n = lattice.n
    down = lattice.down
    add_bits = [[1 << m for m in row] for row in lattice.meet]
    members = []
    witness = None
    visited = covered = 0

    def visit(j, str_cnt, unsat):
        # add member j; False stops the whole branch, so members is not popped
        nonlocal visited, covered, witness
        if visited >= quota:
            return False
        visited += 1
        covered += 1
        nb = add_bits[j]
        new_unsat = []
        for y, r in unsat:
            r |= nb[y]
            if down[y] & ~r == 0:
                str_cnt += 1
            else:
                new_unsat.append((y, r))
        members.append(j)
        size = len(members)
        if str_cnt < size:
            witness = frozenset(members)
            return False
        rem = n - 1 - j
        if str_cnt >= size + rem:
            # every superset G in this subtree has |G| <= size + rem
            # <= |Str(F)| <= |Str(G)|, so nothing below can violate
            covered += (1 << rem) - 1
        else:
            for k in range(j + 1, n):
                if not visit(k, str_cnt, new_unsat):
                    return False
        members.pop()
        return True

    complete = visit(first, 0, [(y, 0) for y in range(n)])
    return complete, witness, covered


def _brute_force(lattice, budget):
    """The family search as a verdict: the empty family is the first unit
    of the budget, the rest goes to the branches in order, each capped at
    its subtree size.  These quotas fix the family counts of partial runs.
    The first witness is re-verified."""
    n = lattice.n
    if budget < 1:
        return SspVerdict(INCONCLUSIVE, None, None, 0)
    rest = budget - 1
    covered = 1
    complete = True
    for first in range(n):
        quota = min(1 << (n - 1 - first), rest)
        if quota == 0:
            complete = False
            break
        rest -= quota
        done, witness, branch_covered = _scan_branch(lattice, first, quota)
        covered += branch_covered
        if witness is not None:
            _verify_witness(lattice, witness)
            return SspVerdict(VIOLATED, None, witness, covered)
        complete = complete and done
    if not complete:
        return SspVerdict(INCONCLUSIVE, None, None, covered)
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


def _certificate_verdict(lattice, rc):
    """The Mobius certificates; ``rc`` says whether the lattice is RC."""
    table = mobius_table(lattice)
    vanishing = vanishing_pairs(lattice, table)
    if not vanishing:
        return SspVerdict(CERTIFIED, CERT_NONVANISHING, None, 0)
    if (rc and lattice.top is not None
            and set(vanishing) <= {(lattice.bottom, lattice.top)}):
        return SspVerdict(CERTIFIED, CERT_RC_ONCE, None, 0)
    return SspVerdict(INCONCLUSIVE, None, None, 0)


def _verify_witness(lattice, fam):
    if len(shattered_set(lattice, fam)) >= len(fam):
        raise CheckFailed("claimed witness shatters at least |F| elements")


def is_ssp(lattice, strategy="auto", budget=DEFAULT_BUDGET):
    """Decide the SSP property.

    strategy "certificate" applies the Mobius-function certificates only;
    "brute" searches the families within the budget and stops at the first
    violator in DFS order, the lexicographic order of sorted members; "auto"
    gives the non-RC counterexample (kind ``CERT_NON_RC``), else tries the
    certificates, then brute force (a non-RC lattice has a 3-element
    interval [x, y] with mu(x, y) = 0, so no certificate applies to it).
    Resource exhaustion yields Inconclusive, never an exception.  Every
    Violated verdict is re-verified from the definition before returning.
    """
    if strategy not in ("auto", "brute", "certificate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("auto", "certificate"):
        witness = is_rc(lattice)
        if strategy == "auto" and witness is not None:
            fam = non_rc_family(lattice, witness)
            _verify_witness(lattice, fam)
            return SspVerdict(VIOLATED, CERT_NON_RC, fam, 1)
        verdict = _certificate_verdict(lattice, witness is None)
        if strategy == "certificate" or verdict.outcome == CERTIFIED:
            return verdict
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

    Requires a nonvanishing Mobius function and that F shatters no element
    of A; then |F| <= |F_A| where F_A = {x : x < a for some a in A}, and
    F_A itself shatters no element of A.  Both conclusions are recomputed
    and a failure raises CheckFailed.
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
    if vanishing_pairs(lattice):
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
                        k_verdict=None, prod=None, budget=DEFAULT_BUDGET):
    """Shattered set of size >= |F| for a family on the product K x L.

    ``family`` indexes ``product(k_factor, l_factor)``: pair (k, l) has
    index k * l_factor.n + l.  Per the potential construction, slice the
    family along K, shatter the slices in L, regroup along L and shatter in
    K; the disjoint union J of the results is returned after verifying that
    |J| >= |F| and that the family shatters every element of J.

    Both factors must come with a CertifiedSSP verdict (computed here with
    strategy "auto" when not supplied); otherwise FactorNotSSP is raised.
    """
    if l_verdict is None:
        l_verdict = is_ssp(l_factor, "auto", budget)
    if k_verdict is None:
        k_verdict = is_ssp(k_factor, "auto", budget)
    if l_verdict.outcome != CERTIFIED:
        raise FactorNotSSP("first factor is not verified SSP")
    if k_verdict.outcome != CERTIFIED:
        raise FactorNotSSP("second factor is not verified SSP")
    nl = l_factor.n
    nk = k_factor.n
    fam = frozenset(family)
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
    if lattice.join is None:
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
    dset = frozenset(u for u in range(lattice.n) if lattice.meet[x][u] == y)
    if dset & fam:
        raise CheckFailed("D intersects the family despite the choice of y")

    injection = []
    used = set()
    for a in sorted(nset):
        comp = next((c for c in lattice.linext
                     if lattice.leq(y, c) and lattice.leq(c, a)
                     and lattice.meet[c][x] == y and lattice.join[c][x] == a),
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
