from fractions import Fraction
from itertools import permutations

import pytest

import latticevc as lv
from latticevc import linalg
from latticevc.errors import (
    ElementIsShattered,
    EmptyFamily,
    ForbiddenFamily,
    NoNonvanishingWitness,
    NotRanked,
)
from latticevc.shattering import realized_meets

from conftest import naive_shattered_set, naive_shatters, random_family


def all_families(lattice):
    for code in range(1 << lattice.n):
        yield frozenset(i for i in range(lattice.n) if (code >> i) & 1)


# ---------------------------------------------------------------------------
# shatters / Str
# ---------------------------------------------------------------------------

def test_path_family_shatters_only_bottom():
    c2 = lv.chain(2)
    fam = frozenset({1, 2})
    assert lv.shatters(c2, fam, 0)
    assert not lv.shatters(c2, fam, 1)
    assert not lv.shatters(c2, fam, 2)


def test_full_family_shatters_everything(corpus):
    for name, lat in corpus.items():
        fam = frozenset(range(lat.n))
        assert lv.shattered_set(lat, fam) == fam, name


def test_empty_family_shatters_nothing(corpus):
    for name, lat in corpus.items():
        assert not lv.shatters(lat, frozenset(), lat.bottom), name
        assert lv.shattered_set(lat, frozenset()) == frozenset(), name


def test_str_examples():
    b2 = lv.boolean(2)
    fam = frozenset({b2.index("1"), b2.index("2"), b2.index("12")})
    assert lv.shattered_set(b2, fam) == {b2.index("0"), b2.index("1"),
                                         b2.index("2")}

    lat = lv.fig3b()
    fam = frozenset(range(lat.n)) - {lat.index("4")}
    sset = lv.shattered_set(lat, fam)
    assert lat.index("12") in sset
    assert len(frozenset(range(lat.n)) - sset) >= 2

    f1 = lv.fig1()
    fam = frozenset(range(f1.n)) - {f1.bottom}
    assert lv.shattered_set(f1, fam) == frozenset(range(f1.n)) - {f1.top}


def test_matches_naive_oracle_exhaustive(corpus):
    for name, lat in corpus.items():
        if lat.n > 12:
            continue
        for fam in all_families(lat):
            assert lv.shattered_set(lat, fam) == naive_shattered_set(lat, fam), name


def test_matches_naive_oracle_random(corpus, rng):
    for name, lat in corpus.items():
        if lat.n <= 12:
            continue
        for _ in range(50):
            fam = random_family(lat, rng)
            assert lv.shattered_set(lat, fam) == naive_shattered_set(lat, fam), name
            y = rng.randrange(lat.n)
            assert lv.shatters(lat, fam, y) == naive_shatters(lat, fam, y), name


def test_realized_meets_matches_definition(corpus, rng):
    for name, lat in corpus.items():
        for _ in range(20):
            fam = random_family(lat, rng)
            y = rng.randrange(lat.n)
            expected = sum(1 << x for x in {lat.meet[z][y] for z in fam})
            assert realized_meets(lat, fam, y) == expected, name


def test_hereditary_shattering(corpus, rng):
    # downward closure of Str(F): exhaustive at <= 12 elements, random above
    for name, lat in corpus.items():
        fams = (all_families(lat) if lat.n <= 12
                else (random_family(lat, rng) for _ in range(100)))
        for fam in fams:
            sset = lv.shattered_set(lat, fam)
            for y in sset:
                assert all(x in sset for x in lat.downset(y)), name


def test_monotonicity(corpus, rng):
    for name, lat in corpus.items():
        for _ in range(30):
            small = random_family(lat, rng)
            extra = random_family(lat, rng)
            big = small | extra
            assert lv.shattered_set(lat, small) <= lv.shattered_set(lat, big), name


# ---------------------------------------------------------------------------
# VC dimension
# ---------------------------------------------------------------------------

def test_vc_full_boolean():
    for n in range(1, 5):
        bn = lv.boolean(n)
        assert lv.vc_dim(bn, frozenset(range(bn.n))) == n


def test_vc_rank_layers(corpus):
    for name, lat in corpus.items():
        if lat.rank is None or lv.vanishing_pairs(lat):
            continue
        top_rank = max(lat.rank)
        for d in range(top_rank + 1):
            fam = frozenset(x for x in range(lat.n) if lat.rank[x] <= d)
            assert len(fam) == lv.count_up_to(lat, d), name
            assert lv.vc_dim(lat, fam) == d, name


def test_vc_path_example():
    assert lv.vc_dim(lv.chain(2), frozenset({1, 2})) == 0


def test_vc_errors():
    with pytest.raises(NotRanked):
        lv.vc_dim(lv.fig1(), frozenset({0}))
    with pytest.raises(EmptyFamily):
        lv.vc_dim(lv.boolean(2), frozenset())


# ---------------------------------------------------------------------------
# characteristic matrix
# ---------------------------------------------------------------------------

def test_char_matrix_b1():
    assert lv.char_matrix(lv.boolean(1)).dense() == ((1, 1), (0, 1))


def test_char_matrix_bottom_row_ones(corpus):
    for name, lat in corpus.items():
        cm = lv.char_matrix(lat)
        assert all(cm.entry(lat.bottom, y) == 1 for y in range(lat.n)), name


def test_char_matrix_products_of_rows():
    b2 = lv.boolean(2)
    cm = lv.char_matrix(b2)
    i1, i2, i12 = b2.index("1"), b2.index("2"), b2.index("12")
    for y in range(4):
        assert cm.entry(i12, y) == cm.entry(i1, y) * cm.entry(i2, y)


def test_char_matrix_unitriangular(corpus):
    for name, lat in corpus.items():
        cm = lv.char_matrix(lat)
        pos = {x: i for i, x in enumerate(lat.linext)}
        for x in range(lat.n):
            for y in range(lat.n):
                if pos[x] > pos[y]:
                    assert cm.entry(x, y) == 0, name
                elif pos[x] == pos[y]:
                    assert cm.entry(x, y) == 1, name


def test_basis_check(corpus):
    for name, lat in corpus.items():
        assert lv.basis_check(lat), name
    assert lv.basis_check(lv.from_covers(1, None, []))


def test_b3_determinant_is_plus_minus_one():
    # permutation-expansion oracle on the linext-reordered matrix
    b3 = lv.boolean(3)
    order = b3.linext
    m = [[(b3.up[order[i]] >> order[j]) & 1 for j in range(8)]
         for i in range(8)]
    det = 0
    for perm in permutations(range(8)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
            if not prod:
                break
        if prod:
            inv = sum(1 for a in range(8) for b in range(a + 1, 8)
                      if perm[a] > perm[b])
            det += (-1) ** inv
    assert det in (1, -1)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def test_elimination_inclusion_exclusion():
    b2 = lv.boolean(2)
    fam = frozenset({b2.index("1"), b2.index("2"), b2.index("12")})
    cert = lv.elimination(b2, fam, b2.index("12"))
    assert cert.witness_x == b2.index("0")
    assert cert.coeffs[b2.index("0")] == Fraction(-1)
    assert cert.coeffs[b2.index("1")] == Fraction(1)
    assert cert.coeffs[b2.index("2")] == Fraction(1)
    assert cert.verify(b2, fam)


def test_elimination_vanishing_restriction():
    b2 = lv.boolean(2)
    fam = frozenset({b2.index("0"), b2.index("1"), b2.index("2")})
    cert = lv.elimination(b2, fam, b2.index("12"))
    assert cert.witness_x == b2.index("12")
    assert all(g == 0 for g in cert.coeffs.values())


def test_elimination_shattered_rejected():
    b2 = lv.boolean(2)
    with pytest.raises(ElementIsShattered):
        lv.elimination(b2, frozenset(range(4)), 3)


def test_elimination_no_witness_on_fig1():
    f1 = lv.fig1()
    fam = frozenset(range(f1.n)) - {f1.bottom}
    with pytest.raises(NoNonvanishingWitness):
        lv.elimination(f1, fam, f1.top)
    # with any other non-bottom element removed, witnesses exist
    fam = frozenset(range(f1.n)) - {f1.index("4")}
    cert = lv.elimination(f1, fam, f1.top)
    assert cert.verify(f1, fam)


def test_elimination_certificates_verify_exhaustively():
    for lat in (lv.boolean(3), lv.subspace_lattice(2, 2)):
        for fam in all_families(lat):
            sset = lv.shattered_set(lat, fam)
            for z in range(lat.n):
                if z in sset:
                    continue
                cert = lv.elimination(lat, fam, z)
                assert cert.verify(lat, fam)


def test_elimination_rc_forbidden_families():
    f1 = lv.fig1()
    with pytest.raises(ForbiddenFamily):
        lv.elimination_rc(f1, frozenset(range(f1.n)), f1.top)
    with pytest.raises(ForbiddenFamily):
        lv.elimination_rc(f1, frozenset(range(f1.n)) - {f1.bottom}, f1.top)


def test_elimination_rc_top_certificates():
    f1 = lv.fig1()
    for drop in range(1, f1.n):
        fam = frozenset(range(f1.n)) - {drop}
        if lv.shatters(f1, fam, f1.top):
            continue
        cert = lv.elimination_rc(f1, fam, f1.top)
        assert cert.verify(f1, fam)
        assert cert.witness_x not in fam


def test_elimination_rc_delegates_below_top():
    f1 = lv.fig1()
    fam = frozenset({f1.bottom, f1.index("4")})
    z = f1.index("12")
    assert not lv.shatters(f1, fam, z)
    cert = lv.elimination_rc(f1, fam, z)
    assert cert.verify(f1, fam)


def test_fig1_dependency_space_is_one_dimensional():
    # columns v_a over rows chi_y (y below top): any dependency has
    # c_a = mu(a, top) * c_top
    f1 = lv.fig1()
    table = lv.mobius_table(f1)
    rows = [[(f1.up[y] >> a) & 1 for a in range(f1.n)]
            for y in range(f1.n) if y != f1.top]
    basis = linalg.nullspace(rows)
    assert len(basis) == 1
    vec = basis[0]
    scale = vec[f1.top]
    assert scale != 0
    for a in range(f1.n):
        assert vec[a] == table.mu(a, f1.top) * scale


# ---------------------------------------------------------------------------
# spanning certificate
# ---------------------------------------------------------------------------

def test_spanning_examples():
    b3 = lv.boolean(3)
    pairs = frozenset(x for x in range(8) if b3.rank[x] == 2)
    assert lv.spanning_certificate(b3, pairs) == 3
    for lat in (b3, lv.chain(2)):
        assert lv.spanning_certificate(lat, frozenset({lat.bottom})) == 1
    c2 = lv.chain(2)
    assert lv.spanning_certificate(c2, frozenset({1, 2})) == 1


def test_spanning_bounds(corpus, rng):
    for name, lat in corpus.items():
        for _ in range(20):
            fam = random_family(lat, rng)
            r = lv.spanning_certificate(lat, fam)
            assert r <= len(fam), name
            assert r <= len(lv.shattered_set(lat, fam)), name


def test_spanning_equality_when_nonvanishing(corpus):
    checked = 0
    for name, lat in corpus.items():
        if lat.n > 12 or lv.vanishing_pairs(lat):
            continue
        checked += 1
        for fam in all_families(lat):
            assert lv.spanning_certificate(lat, fam) == len(fam), name
    assert checked >= 4


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def test_linalg_rank_and_nullspace():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([]) == 0
    ns = linalg.nullspace([[1, 2], [2, 4]])
    assert len(ns) == 1
    assert ns[0][0] * 1 + ns[0][1] * 2 == 0


def test_linalg_solve_combination():
    rows = [[1, 0, 1], [0, 1, 1]]
    sol = linalg.solve_combination(rows, [2, 3, 5])
    assert sol == [Fraction(2), Fraction(3)]
    assert linalg.solve_combination(rows, [1, 0, 0]) is None
