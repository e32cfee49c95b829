import random
from fractions import Fraction

import pytest

import latticevc as lv
from latticevc.cli import load_source
from latticevc.core import _bits
from latticevc.errors import NotRanked

from conftest import naive_mobius, oracle_mobius_rows, relabel


def test_boolean_closed_form():
    b3 = lv.boolean(3)
    table = lv.mobius_table(b3)
    for x in range(8):
        for y in range(8):
            if b3.leq(x, y):
                diff = (y & ~x).bit_count()
                assert table.mu(x, y) == (-1) ** diff


def test_figure_captions():
    f1 = lv.fig1()
    assert lv.mobius_table(f1).mu(f1.bottom, f1.top) == 0
    f2 = lv.fig2()
    assert lv.mobius_table(f2).mu(f2.bottom, f2.top) == 0


def test_mu_incomparable_rejected():
    b2 = lv.boolean(2)
    table = lv.mobius_table(b2)
    with pytest.raises(ValueError):
        table.mu(b2.index("1"), b2.index("2"))
    # out-of-range indices, including a negative one a list would wrap
    for x in (-1, b2.n):
        with pytest.raises(ValueError):
            table.mu(x, b2.top)
        with pytest.raises(ValueError):
            table.mu(b2.bottom, x)


def test_vanishing_pairs():
    for n in range(1, 5):
        assert lv.vanishing_pairs(lv.boolean(n)) == []
    f1 = lv.fig1()
    assert lv.vanishing_pairs(f1) == [(f1.bottom, f1.top)]
    c2 = lv.chain(2)
    assert lv.vanishing_pairs(c2) == [(0, 2)]


def test_defining_identity(corpus):
    # sum over x <= z <= y of mu(x, z) is 1 when x == y and 0 otherwise
    for name, lat in corpus.items():
        table = lv.mobius_table(lat)
        for x in range(lat.n):
            for y in _bits(lat.up[x]):
                s = sum(table.mu(x, z)
                        for z in _bits(lat.up[x] & lat.down[y]))
                assert s == (1 if x == y else 0), name


def test_against_naive_recursion(corpus):
    for name, lat in corpus.items():
        if lat.n > 20:
            continue
        table = lv.mobius_table(lat)
        oracle = naive_mobius(lat)
        for (x, y), v in oracle.items():
            assert table.mu(x, y) == v, name
        assert list(table.pairs()) == [
            (x, y, v) for (x, y), v in sorted(oracle.items())], name
        assert len(table) == len(oracle), name


def test_rows_match_interval_sum_oracle():
    # every lattice with n <= 8, and larger ones that the naive recursion
    # skips; the last product has many distinct values per row.  Each is
    # also checked under a seeded relabeling, so that index order and the
    # linear extension differ
    lattices = [lat for n in range(1, 9) for lat in lv.enumerate_lattices(n)]
    lattices += [load_source(spec) for spec in (
        "boolean:7", "subspace:2:4", "subspace:3:3", "chain:60",
        "product(fig1,fig3b)", "product(subspace:2:3,subspace:3:2)")]
    rng = random.Random(16)
    for lat in lattices:
        perm = list(range(lat.n))
        rng.shuffle(perm)
        for case in (lat, relabel(lat, perm)):
            assert lv.mobius_table(case)._rows == oracle_mobius_rows(case), (
                lv.emit_lattice_text(case))


def test_product_multiplicativity(corpus):
    small = [lat for lat in corpus.values() if lat.n <= 8]
    for a in small:
        for b in small:
            p = lv.product(a, b)
            tp = lv.mobius_table(p)
            ta = lv.mobius_table(a)
            tb = lv.mobius_table(b)
            m = b.n
            for x1 in range(a.n):
                for y1 in range(a.n):
                    if not a.leq(x1, y1):
                        continue
                    for x2 in range(b.n):
                        for y2 in range(b.n):
                            if not b.leq(x2, y2):
                                continue
                            lhs = tp.mu(x1 * m + x2, y1 * m + y2)
                            assert lhs == ta.mu(x1, y1) * tb.mu(x2, y2)


def test_inversion_zero_function(corpus):
    for lat in corpus.values():
        assert lv.check_inversion(lat, [0] * lat.n)


def test_inversion_indicator():
    b3 = lv.boolean(3)
    g = [0] * 8
    g[b3.bottom] = 1
    assert lv.check_inversion(b3, g)


def test_inversion_random_integers(corpus, rng):
    for name, lat in corpus.items():
        table = lv.mobius_table(lat)
        for _ in range(100):
            g = [rng.randrange(-50, 51) for _ in range(lat.n)]
            assert lv.check_inversion(lat, g, table), name


def test_inversion_needs_one_value_per_element():
    b2 = lv.boolean(2)
    for g in ([1] * (b2.n - 1), [1] * (b2.n + 1)):
        with pytest.raises(ValueError, match="^expected 4 values of g, got "):
            lv.check_inversion(b2, g)


def test_inversion_rationals(corpus, rng):
    for lat in list(corpus.values())[:3]:
        g = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
             for _ in range(lat.n)]
        assert lv.check_inversion(lat, g)


def test_inversion_detects_tampered_table():
    # g = [top] sums to 1 over every up-set, so the up-set recovery at x
    # reads every mu(x, y) once and sees any single wrong entry
    b3 = lv.boolean(3)
    g = [0] * b3.n
    g[b3.top] = 1
    table = lv.mobius_table(b3)
    assert lv.check_inversion(b3, g, table)
    rows = [[0] * b3.n for _ in range(b3.n)]
    for x, y, mu in table.pairs():
        rows[x][y] = mu
    for x, y, mu in table.pairs():
        rows[x][y] = mu + 1
        assert not lv.check_inversion(b3, g, lv.MobiusTable(b3, rows)), (x, y)
        rows[x][y] = mu


def test_foreign_table_refused():
    # mu depends on the order alone: a table of another order is refused,
    # not read at indices that mean other elements
    b2 = lv.boolean(2)
    c2_table = lv.mobius_table(lv.chain(2))
    foreign = "^the Mobius table is of a lattice with another order$"
    with pytest.raises(ValueError, match=foreign):
        lv.vanishing_pairs(b2, c2_table)
    with pytest.raises(ValueError, match=foreign):
        lv.elimination(b2, [b2.bottom], b2.top, table=c2_table)
    with pytest.raises(ValueError, match=foreign):
        lv.check_inversion(b2, [1, 2, 3, 4], lv.mobius_table(lv.boolean(3)))


def test_weisner_examples():
    assert lv.weisner_check(lv.boolean(4))
    assert lv.weisner_check(lv.subspace_lattice(2, 3))
    with pytest.raises(NotRanked):
        lv.weisner_check(lv.fig1())


def test_weisner_fails_on_ranked_vanishing():
    # the 33-element example is ranked but mu(0, top) = 0
    assert not lv.weisner_check(lv.fig2())
