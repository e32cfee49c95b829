import pytest

import latticevc as lv
from latticevc.core import _bits
from latticevc.errors import (
    LatticeFormatError,
    NoBottom,
    NotAPoset,
    NotComparable,
    NotMeetSemilattice,
    NotRanked,
    NoTop,
)
from latticevc.search import canonical_key

from conftest import build_corpus


def test_from_covers_path():
    lat = lv.from_covers(3, ["0", "1", "2"], [(0, 1), (1, 2)])
    assert lat.n == 3
    assert lat.bottom == 0 and lat.top == 2
    assert lat.rank == (0, 1, 2)
    assert lat.leq(0, 2) and not lat.leq(2, 0)


def test_from_covers_single_element():
    lat = lv.from_covers(1, ["x"], [])
    assert lat.bottom == lat.top == 0
    assert lat.rank == (0,)
    assert lat.join == ((0,),)


def test_fig1_is_unranked_with_mixed_chain_lengths():
    lat = lv.fig1()
    assert lat.rank is None
    # longest / shortest maximal chain lengths from bottom to top differ
    top = lat.top

    def chains(x, length, best):
        if x == top:
            best.add(length)
            return
        for c, p in lat.covers:
            if c == x:
                chains(p, length + 1, best)

    lengths = set()
    chains(lat.bottom, 0, lengths)
    assert lengths == {2, 3}


def test_from_covers_rejects_cycle():
    with pytest.raises(NotAPoset):
        lv.from_covers(2, None, [(0, 1), (1, 0)])
    with pytest.raises(NotAPoset):
        lv.from_covers(1, None, [(0, 0)])


def test_from_covers_rejects_two_minimals():
    with pytest.raises(NoBottom):
        lv.from_covers(3, None, [(0, 2), (1, 2)])


def test_from_covers_rejects_non_semilattice():
    # two atoms under two coatoms: meets of the coatoms are not unique
    with pytest.raises(NotMeetSemilattice):
        lv.from_covers(5, None, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])


def test_from_covers_normalizes_redundant_edges():
    lat = lv.from_covers(3, None, [(0, 1), (1, 2), (0, 2)])
    assert lat.covers == ((0, 1), (1, 2))


def test_duplicate_and_bad_labels_rejected():
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "a"], [(0, 1)])
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "b,c"], [(0, 1)])
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "b c"], [(0, 1)])


def test_interval_boolean():
    b3 = lv.boolean(3)
    sub, carrier = lv.interval(b3, b3.index("0"), b3.index("12"))
    assert sub.n == 4
    assert canonical_key(sub) == canonical_key(lv.boolean(2))
    assert [b3.names[i] for i in carrier] == ["0", "1", "2", "12"]


def test_interval_single_point():
    b3 = lv.boolean(3)
    sub, carrier = lv.interval(b3, 3, 3)
    assert sub.n == 1 and carrier == (3,)


def test_interval_fig3b_chain():
    lat = lv.fig3b()
    sub, carrier = lv.interval(lat, lat.index("4"), lat.index("[5]"))
    assert sub.n == 3
    assert [lat.names[i] for i in carrier] == ["4", "45", "[5]"]
    assert canonical_key(sub) == canonical_key(lv.chain(2))


def test_interval_not_comparable():
    b2 = lv.boolean(2)
    with pytest.raises(NotComparable):
        lv.interval(b2, b2.index("1"), b2.index("2"))


def test_interval_bottom_top_is_whole_lattice(corpus):
    for name, lat in corpus.items():
        if lat.top is None:
            continue
        sub, carrier = lv.interval(lat, lat.bottom, lat.top)
        assert sub.n == lat.n, name
        assert carrier == tuple(range(lat.n))
        assert sub.covers == lat.covers


def test_product_b1_b1_is_b2():
    p = lv.product(lv.boolean(1), lv.boolean(1))
    assert canonical_key(p) == canonical_key(lv.boolean(2))


def test_product_path_b1_ranked():
    p = lv.product(lv.chain(2), lv.boolean(1))
    assert p.n == 6
    assert p.rank is not None
    assert p.rank[p.top] == 3


def test_product_cardinality():
    p = lv.product(lv.fig1(), lv.boolean(1))
    assert p.n == 18


def test_product_componentwise_tables():
    a, b = lv.chain(2), lv.boolean(2)
    p = lv.product(a, b)
    m = b.n
    for i1 in range(a.n):
        for j1 in range(m):
            for i2 in range(a.n):
                for j2 in range(m):
                    x, y = i1 * m + j1, i2 * m + j2
                    assert p.leq(x, y) == (a.leq(i1, i2) and b.leq(j1, j2))
                    assert p.meet[x][y] == a.meet[i1][i2] * m + b.meet[j1][j2]
                    assert p.join[x][y] == a.join[i1][i2] * m + b.join[j1][j2]
                    assert p.rank[x] == a.rank[i1] + b.rank[j1]


def test_product_associative():
    # nested products coincide index-for-index, which is stronger than
    # isomorphism: (a*|B|+b)*|C|+c == a*(|B||C|) + (b*|C|+c)
    small = [lv.boolean(1), lv.chain(2), lv.boolean(2), lv.chain(3)]
    for a in small:
        for b in small:
            for c in small:
                left = lv.product(lv.product(a, b), c)
                right = lv.product(a, lv.product(b, c))
                assert left.up == right.up
                assert left.rank == right.rank
    one = lv.product(lv.product(lv.boolean(1), lv.chain(2)), lv.boolean(1))
    two = lv.product(lv.boolean(1), lv.product(lv.chain(2), lv.boolean(1)))
    assert canonical_key(one) == canonical_key(two)


def test_atoms_examples():
    b3 = lv.boolean(3)
    assert {b3.names[a] for a in lv.atoms(b3)} == {"1", "2", "3"}
    f1 = lv.fig1()
    assert {f1.names[a] for a in lv.atoms(f1)} == {"1", "2", "3", "4"}
    assert lv.atoms(lv.chain(2)) == {1}


def test_is_atomic():
    assert lv.is_atomic(lv.boolean(3))
    assert not lv.is_atomic(lv.chain(2))
    assert lv.is_atomic(lv.fig2())
    # RC lattices are atomic
    for lat in (lv.fig1(), lv.fig2(), lv.boolean(2)):
        assert lv.is_rc(lat) is None
        assert lv.is_atomic(lat)


def test_is_atomic_needs_top():
    # meet-semilattice with two maximal elements
    v = lv.from_covers(3, None, [(0, 1), (0, 2)])
    assert v.top is None and v.join is None
    with pytest.raises(NoTop):
        lv.is_atomic(v)


def test_count_by_rank():
    b4 = lv.boolean(4)
    assert lv.count_by_rank(b4, 2) == 6
    assert lv.count_up_to(b4, 2) == 11
    assert lv.count_up_to(lv.fig3b(), 2) == 10 == lv.fig3b().n - 1
    assert lv.count_by_rank(lv.subspace_lattice(2, 3), 1) == 7
    with pytest.raises(NotRanked):
        lv.count_by_rank(lv.fig1(), 1)


def test_meet_is_greatest_lower_bound(corpus):
    for name, lat in corpus.items():
        for x in range(lat.n):
            for y in range(lat.n):
                m = lat.meet[x][y]
                assert lat.leq(m, x) and lat.leq(m, y), name
                for z in range(lat.n):
                    if lat.leq(z, x) and lat.leq(z, y):
                        assert lat.leq(z, m), name


def test_join_is_least_upper_bound(corpus):
    for name, lat in corpus.items():
        if lat.join is None:
            continue
        for x in range(lat.n):
            for y in range(lat.n):
                j = lat.join[x][y]
                assert lat.leq(x, j) and lat.leq(y, j), name
                for z in range(lat.n):
                    if lat.leq(x, z) and lat.leq(y, z):
                        assert lat.leq(j, z), name


def test_covers_and_leq_mutually_inverse(corpus):
    for name, lat in corpus.items():
        # closure of the covers reproduces leq
        up = [1 << i for i in range(lat.n)]
        for x in reversed(lat.linext):
            for c, p in lat.covers:
                if c == x:
                    up[x] |= up[p]
        assert tuple(up) == lat.up, name
        # reduction of leq reproduces the covers
        red = []
        for x in range(lat.n):
            for y in _bits(lat.up[x] & ~(1 << x)):
                if lat.up[x] & lat.down[y] & ~(1 << x) & ~(1 << y) == 0:
                    red.append((x, y))
        assert tuple(sorted(red)) == lat.covers, name


def test_ranked_means_uniform_chain_lengths(corpus):
    for name, lat in corpus.items():
        if lat.rank is None:
            continue
        children = [[] for _ in range(lat.n)]
        for c, p in lat.covers:
            children[p].append(c)
        lo = [0] * lat.n
        hi = [0] * lat.n
        for x in lat.linext:
            if x == lat.bottom:
                continue
            lo[x] = min(lo[c] + 1 for c in children[x])
            hi[x] = max(hi[c] + 1 for c in children[x])
        for x in range(lat.n):
            assert lo[x] == hi[x] == lat.rank[x], name


def test_bottom_below_everything(corpus):
    for name, lat in corpus.items():
        assert all(lat.leq(lat.bottom, x) for x in range(lat.n)), name


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_text_round_trip(corpus):
    for name, lat in corpus.items():
        text = lv.emit_lattice_text(lat)
        again = lv.parse_lattice_text(text)
        assert again.names == lat.names, name
        assert again.covers == lat.covers, name
        assert lv.emit_lattice_text(again) == text, name


def test_parse_comments_and_blanks():
    lat = lv.parse_lattice_text(
        "# a path\n\nelem a  # the bottom\nelem b\ncover a b\n")
    assert lat.n == 2 and lat.names == ("a", "b")


def test_parse_errors_cite_line_numbers():
    with pytest.raises(LatticeFormatError) as err:
        lv.parse_lattice_text("elem a\nelem a\n")
    assert err.value.lineno == 2
    with pytest.raises(LatticeFormatError) as err:
        lv.parse_lattice_text("elem a\ncover a b\n")
    assert err.value.lineno == 2
    with pytest.raises(LatticeFormatError) as err:
        lv.parse_lattice_text("elem a\nfrob a\n")
    assert err.value.lineno == 2
    with pytest.raises(LatticeFormatError) as err:
        lv.parse_lattice_text("# nothing\n")
    assert err.value.lineno == 1


def test_corpus_is_diverse():
    corpus = build_corpus()
    assert len(corpus) >= 10
    keys = {canonical_key(lat) for lat in corpus.values()}
    # only intentional coincidences: m3 == pg22 as abstract lattices
    assert len(keys) == len(corpus) - 1


_FIELDS = ("n", "names", "up", "down", "covers", "meet", "join", "bottom",
           "top", "rank", "linext")


def _mask_built_lattices():
    """Lattices built from up/down masks: corpus intervals and enumerations."""
    for lat in build_corpus().values():
        for x in range(lat.n):
            for y in _bits(lat.up[x]):
                yield lv.interval(lat, x, y)[0]
    for n in range(1, 8):
        yield from lv.enumerate_lattices(n)


def test_mask_constructor_matches_from_covers():
    checked = 0
    for lat in _mask_built_lattices():
        again = lv.from_covers(lat.n, lat.names, lat.covers)
        for field in _FIELDS:
            assert getattr(lat, field) == getattr(again, field), (lat, field)
        checked += 1
    assert checked > 500
