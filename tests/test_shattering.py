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

from conftest import (
    naive_shattered_set,
    naive_shatters,
    oracle_meets,
    random_family,
)


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
        meet = oracle_meets(lat)
        for _ in range(20):
            fam = random_family(lat, rng)
            y = rng.randrange(lat.n)
            expected = sum(1 << x for x in {meet[z][y] for z in fam})
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


@pytest.mark.parametrize("call", [
    "shattered_set(b2, [-1])",
    "shattered_set(b2, [4])",
    "shatters(b2, [0], -1)",
    "shatters(b2, [-1], 3)",
    "realized_meets(b2, [-1], 3)",
    "realized_meets(b2, [0], 4)",
    "char_rows(b2, [-1], range(4))",
    "char_rows(b2, [0], [4])",
    "vc_dim(b2, [-1])",
    "b2.leq(-1, 3)",
    "b2.leq(0, 4)",
    "b2.upset(-1)",
    "b2.downset(4)",
    "interval(b2, -1, 3)",
    "mobius_table(b2).mu(0, -1)",
    "antichain_check(b2, [-1], [0])",
    "antichain_check(b2, [1, 2], [-1])",
    "elimination(b2, [0], -1)",
    "elimination_rc(b2, [-1], 3)",
    "spanning_certificate(b2, [-1])",
    "one_minimal_check(b2, [-1])",
    "product_ssp_witness(b1, b1, [-1])",
    "product_ssp_witness(b1, b1, [7])",
])
def test_element_index_out_of_range(call):
    # a negative index would wrap to the top, a large one raise IndexError;
    # boolean(2) and the product of two boolean(1) both have 4 elements
    names = {"b2": lv.boolean(2), "b1": lv.boolean(1),
             "realized_meets": realized_meets, **vars(lv)}
    with pytest.raises(ValueError, match=r"is outside 0\.\.3$"):
        eval(call, names)


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
    with pytest.raises(EmptyFamily):
        lv.vc_dim(lv.boolean(2), iter([]))


def test_one_shot_family_reads_like_a_frozenset():
    # an iterator is read once, so every check sees the same family
    b2 = lv.boolean(2)
    for fam in all_families(b2):
        if fam:
            assert lv.vc_dim(b2, iter(fam)) == lv.vc_dim(b2, fam)
        for z in range(b2.n):
            if z in lv.shattered_set(b2, fam):
                with pytest.raises(ElementIsShattered):
                    lv.elimination(b2, iter(fam), z)
                continue
            cert = lv.elimination(b2, iter(fam), z)
            expected = lv.elimination(b2, fam, z)
            assert (cert.witness_x, cert.coeffs) == (expected.witness_x,
                                                     expected.coeffs)
            assert cert.verify(b2, fam)


# ---------------------------------------------------------------------------
# characteristic matrix
# ---------------------------------------------------------------------------

def test_char_matrix_b1():
    b1 = lv.boolean(1)
    assert lv.char_rows(b1, range(2), range(2)) == [[1, 1], [0, 1]]


def test_char_matrix_bottom_row_ones(corpus):
    for name, lat in corpus.items():
        rows = lv.char_rows(lat, [lat.bottom], range(lat.n))
        assert rows == [[1] * lat.n], name


def test_char_matrix_products_of_rows():
    b2 = lv.boolean(2)
    r1, r2, r12 = lv.char_rows(b2, [b2.index(s) for s in ("1", "2", "12")],
                               range(4))
    assert r12 == [a * b for a, b in zip(r1, r2)]


def test_char_matrix_unitriangular(corpus):
    for name, lat in corpus.items():
        m = lv.char_rows(lat, lat.linext, lat.linext)
        for i in range(lat.n):
            assert m[i][i] == 1, name
            assert not any(m[i][:i]), name


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


def test_elimination_cert_detects_tampered_coefficient():
    b2 = lv.boolean(2)
    fam = frozenset({b2.index("1"), b2.index("2"), b2.index("12")})
    cert = lv.elimination(b2, fam, b2.index("12"))
    for y, gamma in cert.coeffs.items():
        tampered = lv.EliminationCert(cert.z, cert.witness_x,
                                      {**cert.coeffs, y: gamma + 1})
        assert not tampered.verify(b2, fam), y


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
    fam = frozenset(range(f1.n)) - {f1.index("0"), f1.index("4")}
    with pytest.raises(ElementIsShattered):
        lv.elimination_rc(f1, fam, f1.index("12"))
    # on chain:3, mu(0, top) = 0, and chi_top restricted to F = {2, top} is
    # (0, 1) while every other row is (1, 1): not in their span
    c3 = lv.chain(3)
    with pytest.raises(NoNonvanishingWitness):
        lv.elimination_rc(c3, frozenset({2, c3.top}), c3.top)


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
    rows = lv.char_rows(f1, [y for y in range(f1.n) if y != f1.top],
                        range(f1.n))
    # rank n - 1 leaves a one-dimensional kernel (rank-nullity) ...
    assert linalg.rank(rows) == f1.n - 1
    # ... and the nonzero vector (mu(a, top))_a lies in it, so spans it
    vec = [table.mu(a, f1.top) for a in range(f1.n)]
    assert vec[f1.top] != 0
    for row in rows:
        assert sum(r * v for r, v in zip(row, vec)) == 0


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
    # rank 1 on 2 columns: the kernel is one-dimensional, spanned by (2, -1)
    for row in ([1, 2], [2, 4]):
        assert row[0] * 2 + row[1] * -1 == 0


def test_linalg_solve_combination():
    rows = [[1, 0, 1], [0, 1, 1]]
    sol = linalg.solve_combination(rows, [2, 3, 5])
    assert sol == [Fraction(2), Fraction(3)]
    assert linalg.solve_combination(rows, [1, 0, 0]) is None
