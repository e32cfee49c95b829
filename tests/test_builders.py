from itertools import combinations, product as iproduct

import pytest

import latticevc as lv
from latticevc import builders
from latticevc.errors import (
    CheckFailed,
    DimensionTooSmall,
    NotAMatroid,
    NotPrime,
    OutOfRange,
    TooLarge,
)
from latticevc.search import canonical_key

from conftest import (
    Subspace,
    all_subspaces,
    graphic_matroid,
    oracle_boolean,
    oracle_chain,
    oracle_from_matroid,
    oracle_subspace_lattice,
)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called after the size check should have refused")


def test_boolean_degenerate():
    b0 = lv.boolean(0)
    assert b0.n == 1 and b0.rank == (0,)


def test_boolean_counts():
    b3 = lv.boolean(3)
    assert b3.n == 8
    assert lv.count_by_rank(b3, 2) == 3


def test_boolean_top_mobius_sign():
    b4 = lv.boolean(4)
    assert lv.mobius_table(b4).mu(b4.bottom, b4.top) == 1


def test_boolean_guard(monkeypatch):
    monkeypatch.setattr(builders, "_from_down_masks", _must_not_run)
    with pytest.raises(TooLarge):
        lv.boolean(21)
    with pytest.raises(TooLarge):
        lv.boolean(10**6)
    with pytest.raises(ValueError):
        lv.boolean(-1)


def test_chain():
    c2 = lv.chain(2)
    assert c2.n == 3 and c2.rank == (0, 1, 2)
    assert lv.chain(0).n == 1
    assert lv.is_rc(c2) is not None
    with pytest.raises(ValueError):
        lv.chain(-1)


def test_chain_guard_before_building(monkeypatch):
    monkeypatch.setattr(builders, "_from_down_masks", _must_not_run)
    with pytest.raises(TooLarge):
        lv.chain(10**6)
    with pytest.raises(TooLarge):
        lv.chain(builders.MAX_ELEMENTS)


# ---------------------------------------------------------------------------
# subspace lattices
# ---------------------------------------------------------------------------

def vector_sets(q, n):
    return [s.vectors() for s in all_subspaces(q, n)]


def brute_subspaces(q, n):
    """All subspaces of F_q^n as frozensets of vectors, by closure testing."""
    vectors = list(iproduct(range(q), repeat=n))
    subs = set()
    for d in range(n + 1):
        for basis in combinations(vectors, d):
            span = set()
            for coeffs in iproduct(range(q), repeat=d):
                v = tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % q
                          for j in range(n))
                span.add(v)
            if len(span) == q ** d:
                subs.add(frozenset(span))
    return subs


def test_subspace_lattice_22():
    lat = lv.subspace_lattice(2, 2)
    assert lat.n == 5
    assert [lv.count_by_rank(lat, d) for d in range(3)] == [1, 3, 1]


def test_subspace_lattice_23():
    lat = lv.subspace_lattice(2, 3)
    assert lat.n == 16
    assert [lv.count_by_rank(lat, d) for d in range(4)] == [1, 7, 7, 1]
    assert lv.weisner_check(lat)


def test_subspace_enumeration_matches_brute_closure():
    for q, n in ((2, 2), (2, 3), (3, 2)):
        vecsets = vector_sets(q, n)
        assert set(vecsets) == brute_subspaces(q, n)
        assert len(vecsets) == len(set(vecsets))


def test_subspace_meet_is_intersection():
    lat = lv.subspace_lattice(2, 2)
    vecsets = vector_sets(2, 2)
    for x in range(lat.n):
        for y in range(lat.n):
            m = lat.element[lat.down[x] & lat.down[y]]
            assert vecsets[m] == vecsets[x] & vecsets[y]


def test_subspace_type_canonical():
    full = Subspace(2, 2, ((1, 0), (0, 1)))
    assert full.dim() == 2
    assert full.vectors() == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert full.name() == "10.01"
    zero = Subspace(2, 2, ())
    assert zero.vectors() == frozenset({(0, 0)}) and zero.name() == "0"
    # echelon bases are canonical: distinct subspaces, distinct labels
    names = [s.name() for s in all_subspaces(2, 3)]
    assert len(set(names)) == len(names) == len(set(vector_sets(2, 3)))


def test_subspace_errors():
    with pytest.raises(NotPrime):
        lv.subspace_lattice(4, 2)
    with pytest.raises(NotPrime):
        lv.subspace_lattice(1, 2)
    with pytest.raises(TooLarge):
        lv.subspace_lattice(2, 18)
    with pytest.raises(ValueError):
        lv.subspace_lattice(2, 0)
    with pytest.raises(NotPrime):
        lv.subspace_lattice(-3, 2)


def test_subspace_guard_counts_vectors():
    # 13^3 = 2197 vectors: over the cap although the lattice has 368
    # elements (the labels of (1,1,12) and (1,11,2) would also collide)
    with pytest.raises(TooLarge):
        lv.subspace_lattice(13, 3)
    lat = lv.subspace_lattice(11, 3)
    assert lat.n == 1 + 133 + 133 + 1 == len(set(lat.names))


def test_subspace_guard_before_qbinom(monkeypatch):
    monkeypatch.setattr(builders, "qbinom", _must_not_run)
    with pytest.raises(TooLarge):
        lv.subspace_lattice(2, 10**6)


def test_subspace_guard_before_primality(monkeypatch):
    monkeypatch.setattr(builders, "_is_prime", _must_not_run)
    with pytest.raises(TooLarge):
        lv.subspace_lattice(10**9 + 7, 1)


def test_subspace_rank_counts_match_qbinom():
    for q, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        lat = lv.subspace_lattice(q, n)
        for d in range(n + 1):
            assert lv.count_by_rank(lat, d) == lv.qbinom(n, d, q), (q, n, d)


# ---------------------------------------------------------------------------
# matroids
# ---------------------------------------------------------------------------

def uniform_matroid(r, n):
    return lv.MatroidSpec.make(n, [s for d in range(r + 1)
                                   for s in combinations(range(n), d)])


def free_matroid(n):
    return uniform_matroid(n, n)


def test_from_matroid_free_is_boolean():
    lat = lv.from_matroid(free_matroid(3))
    assert canonical_key(lat) == canonical_key(lv.boolean(3))


def test_from_matroid_uniform_2_3():
    spec = lv.MatroidSpec.make(3, [s for d in range(3)
                                   for s in combinations(range(3), d)])
    lat = lv.from_matroid(spec)
    assert lat.n == 5
    assert [lv.count_by_rank(lat, d) for d in range(3)] == [1, 3, 1]


def test_from_matroid_linear_f2_cubed():
    # ground set: the 7 nonzero vectors of F_2^3; independence = linear
    vectors = [v for v in iproduct(range(2), repeat=3) if any(v)]

    def rank_of(subset):
        rows = [list(vectors[i]) for i in subset]
        r = 0
        for col in range(3):
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    independents = [s for d in range(4) for s in combinations(range(7), d)
                    if rank_of(s) == len(s)]
    lat = lv.from_matroid(lv.MatroidSpec.make(7, independents))
    assert canonical_key(lat) == canonical_key(lv.subspace_lattice(2, 3))


def test_from_matroid_weisner(corpus):
    for lat in (lv.from_matroid(free_matroid(3)), corpus["m3"],
                corpus["pg22"], corpus["pg23"], corpus["pg32"]):
        assert lv.weisner_check(lat)


def test_from_matroid_guard_before_enumerating(monkeypatch):
    monkeypatch.setattr(lv.MatroidSpec, "validate", _must_not_run)
    monkeypatch.setattr(lv.MatroidSpec, "subset_rank", _must_not_run)
    # the rank-0 matroid: every ground element is a loop
    for g in (12, 40, 10**6):
        with pytest.raises(TooLarge):
            lv.from_matroid(lv.MatroidSpec(g, (frozenset(),)))


def test_matroid_axioms_rejected():
    with pytest.raises(NotAMatroid):
        lv.from_matroid(lv.MatroidSpec.make(2, []))
    with pytest.raises(NotAMatroid):
        # not downward closed
        lv.from_matroid(lv.MatroidSpec(2, (frozenset(), frozenset({0, 1}))))
    with pytest.raises(NotAMatroid):
        # exchange fails: {0,1} independent but neither extends {2}
        lv.from_matroid(lv.MatroidSpec.make(
            3, [(), (0,), (1,), (2,), (0, 1)]))
    with pytest.raises(NotAMatroid):
        lv.from_matroid(lv.MatroidSpec.make(1, [(), (4,)]))
    # the axioms are checked on ground masks, which need integer elements
    for bad in (1.0, "1"):
        with pytest.raises(NotAMatroid, match=f"^independent set undefined: "
                                              f"{bad!r} is not an integer$"):
            lv.MatroidSpec(2, (frozenset(), frozenset({bad}))).validate()
        # make refuses them too, before its sort compares them: "1" next
        # to the 0 of another set would raise a bare TypeError there
        with pytest.raises(NotAMatroid, match=f"^independent set undefined: "
                                              f"{bad!r} is not an integer$"):
            lv.MatroidSpec.make(2, [(), (0,), (bad,)])
    # a negative ground size passes the power-set guard as 2 ** -1
    negative = lv.MatroidSpec(-1, (frozenset(),))
    with pytest.raises(NotAMatroid, match="^negative ground size -1$"):
        negative.validate()
    with pytest.raises(NotAMatroid, match="^negative ground size -1$"):
        lv.from_matroid(negative)
    # all subsets of {0,1,2}, plus {3}: no pair of {0,1,2} extends {3}
    spec = lv.MatroidSpec.make(
        4, [s for d in range(4) for s in combinations(range(3), d)] + [(3,)])
    with pytest.raises(NotAMatroid, match="exchange fails"):
        lv.from_matroid(spec)
    # the same sets largest first, given without make: the exchange check
    # groups them by size itself
    with pytest.raises(NotAMatroid, match="exchange fails"):
        lv.MatroidSpec(4, spec.independents[::-1]).validate()
    free = lv.MatroidSpec.make(
        3, [s for d in range(4) for s in combinations(range(3), d)])
    lv.MatroidSpec(3, free.independents[::-1]).validate()


# ---------------------------------------------------------------------------
# builders against their cover-list oracles
# ---------------------------------------------------------------------------

def _outcome(build, *args):
    """(None, every stored field of the result), or the error's type and
    text."""
    try:
        lattice = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None, vars(lattice)


def test_builders_match_cover_list_oracles():
    for n in [*range(12), -1, 12, 21]:
        assert _outcome(lv.boolean, n) == _outcome(oracle_boolean, n), n
    for k in [*range(61), 2047, 2048, -1]:
        assert _outcome(lv.chain, k) == _outcome(oracle_chain, k), k
    # every subspace lattice the cap admits for q <= 13, up to the first
    # refused n
    checked = 0
    for q in (2, 3, 5, 7, 11, 13):
        n = 1
        while True:
            outcome = _outcome(lv.subspace_lattice, q, n)
            assert outcome == _outcome(oracle_subspace_lattice, q, n), (q, n)
            if outcome[0] is TooLarge:
                break
            checked += 1
            n += 1
    for q, n in ((13, 3), (2, 6), (4, 2), (1, 2), (-3, 2), (2, 0), (2, 18)):
        outcome = _outcome(lv.subspace_lattice, q, n)
        assert outcome[0] is not None, (q, n)
        assert outcome == _outcome(oracle_subspace_lattice, q, n), (q, n)
    specs = [uniform_matroid(r, n) for n in range(8) for r in range(n + 1)]
    specs += [graphic_matroid(4, list(combinations(range(4), 2))),
              lv.MatroidSpec(12, (frozenset(),)),
              lv.MatroidSpec(2, (frozenset(), frozenset({0, 1}))),
              lv.MatroidSpec.make(3, [(), (0,), (1,), (2,), (0, 1)])]
    for spec in specs:
        assert (_outcome(lv.from_matroid, spec)
                == _outcome(oracle_from_matroid, spec)), spec
    # q = 2, 3, 5, 7, 11, 13 are admitted up to n = 5, 4, 4, 3, 3, 2
    assert checked == 21


def test_builders_do_not_call_from_covers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a builder went through from_covers")
    monkeypatch.setattr(builders, "from_covers", refuse)
    assert lv.boolean(3).n == 8
    assert lv.chain(3).n == 4
    assert lv.subspace_lattice(2, 3).n == 16
    assert lv.from_matroid(uniform_matroid(2, 3)).n == 5


def test_subspace_lattice_does_not_span():
    # the builder works on projective point masks: the vector-span helper
    # and the Subspace type live only in conftest, for the oracle, and every
    # subspace lattice of the oracle test above builds, or is refused by the
    # same typed error, without them
    assert not hasattr(builders, "_span")
    assert not hasattr(builders, "Subspace") and not hasattr(lv, "Subspace")
    built = 0
    for q in (2, 3, 5, 7, 11, 13):
        n = 1
        while True:
            try:
                lat = lv.subspace_lattice(q, n)
            except TooLarge:
                break
            assert lat.n == sum(lv.qbinom(n, d, q) for d in range(n + 1))
            built += 1
            n += 1
    assert built == 21
    for q, n, error in ((13, 3, TooLarge), (2, 6, TooLarge),
                        (4, 2, NotPrime), (1, 2, NotPrime),
                        (-3, 2, NotPrime), (2, 0, ValueError),
                        (2, 18, TooLarge)):
        with pytest.raises(error):
            lv.subspace_lattice(q, n)


def test_subspace_point_mask_size_is_checked(monkeypatch):
    # a point enumeration that yields no point of the smaller subspace S
    # leaves each 2-dimensional mask one point short: the count check
    # refuses it, also under python -O
    monkeypatch.setattr(builders, "_bits", lambda mask: iter(()))
    with pytest.raises(CheckFailed, match=r"^subspace 10\.01 has 2 points$"):
        lv.subspace_lattice(2, 2)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figures_validate_and_classify():
    f1, f2, f3 = lv.fig1(), lv.fig2(), lv.fig3b()
    assert (f1.n, f2.n, f3.n) == (9, 33, 11)
    assert lv.is_rc(f1) is None and lv.is_rc(f2) is None
    assert lv.is_rc(f3) is not None
    assert f1.rank is None
    assert [lv.count_by_rank(f2, d) for d in range(5)] == [1, 6, 15, 10, 1]
    assert [lv.count_by_rank(f3, d) for d in range(4)] == [1, 5, 4, 1]


def test_boolean_equals_free_matroid_and_b1_powers():
    for n in (1, 2, 3):
        bn = lv.boolean(n)
        assert canonical_key(bn) == canonical_key(lv.from_matroid(free_matroid(n)))
        power = lv.boolean(1)
        for _ in range(n - 1):
            power = lv.product(power, lv.boolean(1))
        assert canonical_key(bn) == canonical_key(power)


# ---------------------------------------------------------------------------
# q-binomials
# ---------------------------------------------------------------------------

def test_qbinom_edges():
    for n in range(6):
        assert lv.qbinom(n, 0, 2) == 1
        assert lv.qbinom(n, n, 3) == 1


def test_qbinom_values():
    assert lv.qbinom(3, 1, 2) == 7
    assert lv.qbinom(4, 2, 2) == 35
    assert lv.qbinom(2, 1, 3) == 4


def _qbinom_subset_sum(n, d, q):
    # sum over d-subsets A of {1..n} of q^(sum(A) - d(d+1)/2)
    return sum(q ** (sum(a) - d * (d + 1) // 2)
               for a in combinations(range(1, n + 1), d))


def test_qbinom_matches_subset_sum():
    for q in (2, 3, 5):
        for n in range(9):
            for d in range(n + 1):
                assert lv.qbinom(n, d, q) == _qbinom_subset_sum(n, d, q), (
                    q, n, d)


def test_qbinom_large_matches_q_pascal():
    # [n, d] = [n-1, d-1] + q^d [n-1, d], row by row up to n = 60; the
    # subset-sum formula would visit C(60, 30) subsets
    q = 2
    row = [1]
    for n in range(1, 61):
        row = [1] + [row[d - 1] + q ** d * row[d] for d in range(1, n)] + [1]
    assert lv.qbinom(60, 30, q) == row[30]
    assert [lv.qbinom(60, d, q) for d in range(61)] == row


def test_qbinom_errors():
    with pytest.raises(OutOfRange):
        lv.qbinom(2, 3, 2)
    with pytest.raises(OutOfRange):
        lv.qbinom(2, -1, 2)
    with pytest.raises(OutOfRange):
        lv.qbinom(2, 1, 1)


def test_qbinom_bounds():
    assert lv.qbinom_bounds_check(4, 2, 2)
    assert sum(lv.qbinom(4, e, 2) for e in range(3)) == 51
    assert 2 ** (2 * 2) <= 51 <= 2 * 4 ** 2 * 2 ** 8
    for d in range(4):
        assert lv.qbinom_bounds_check(3, d, 3)
    assert lv.qbinom_bounds_check(1, 0, 2)
    with pytest.raises(ValueError):
        lv.qbinom_bounds_check(0, 0, 2)


# ---------------------------------------------------------------------------
# the critical VC-1 family
# ---------------------------------------------------------------------------

def test_critical_family_2_3():
    lat, fam = lv.critical_family(2, 3)
    assert len(fam) == 6 == 2 ** 2 + 2
    assert lv.vc_dim(lat, fam) == 1
    assert lv.count_up_to(lat, 1) == 8 == 1 + (2 ** 3 - 1) // (2 - 1)


def test_critical_family_2_2():
    lat, fam = lv.critical_family(2, 2)
    assert len(fam) == 4 == lv.count_up_to(lat, 1)
    # the only absent element is the fixed hyperplane; adding it shatters top
    absent = frozenset(range(lat.n)) - fam
    assert len(absent) == 1
    assert lv.vc_dim(lat, fam | absent) == 2


def test_critical_family_3_2():
    lat, fam = lv.critical_family(3, 2)
    assert len(fam) == 5
    assert lv.vc_dim(lat, fam) == 1


def test_critical_family_guard():
    with pytest.raises(DimensionTooSmall):
        lv.critical_family(2, 1)
