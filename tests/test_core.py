import hashlib
import io
import random

import pytest

import latticevc as lv
from latticevc import builders, cli, core, search
from latticevc.core import _bits
from latticevc.errors import (
    LatticeFormatError,
    NoBottom,
    NotAPoset,
    NotComparable,
    NotMeetSemilattice,
    NotRanked,
    NoTop,
    TooLarge,
)
from latticevc.search import canonical_key
from latticevc.shattering import realized_meets

from conftest import build_corpus, oracle_meet_table, oracle_meets


def _meet(lat, x, y):
    """x ^ y as the library reads it: the element whose down-set is
    down[x] & down[y], from ``lat.element``."""
    return lat.element[lat.down[x] & lat.down[y]]


def _meet_table(lat):
    """The library's meet of every pair, as an n x n tuple of tuples."""
    return tuple(tuple(_meet(lat, x, y) for y in range(lat.n))
                 for x in range(lat.n))


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
    assert _meet(lat, 0, 0) == 0


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


def test_from_covers_refuses_bad_input():
    with pytest.raises(NoBottom):
        lv.from_covers(0, None, [])
    with pytest.raises(ValueError, match="^expected 2 names, got 1$"):
        lv.from_covers(2, ["a"], [(0, 1)])
    for pair in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError,
                           match=r"^cover pair undefined: -?\d+ is outside 0\.\.1$"):
            lv.from_covers(2, None, [pair])


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
    with pytest.raises(NotMeetSemilattice) as exc:
        lv.from_covers(5, None, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    assert str(exc.value) == (
        "elements '3', '4' have no unique greatest common lower bound")


def test_bounded_non_lattice_message():
    # 0 < {5, 6} < {3, 4} < {1, 2} < 7, each level above both of the level
    # below: the cover check first fails on 3, 4 (the lower covers of 1),
    # and the message names 1, 2, the first pair in index order
    covers = [(0, 5), (0, 6), (5, 3), (6, 3), (5, 4), (6, 4),
              (3, 1), (4, 1), (3, 2), (4, 2), (1, 7), (2, 7)]
    with pytest.raises(NotMeetSemilattice) as exc:
        lv.from_covers(8, None, covers)
    assert str(exc.value) == (
        "elements '1', '2' have no unique greatest common lower bound")


def _bottomed_posets(n):
    """Down-set masks of every poset on 0..n-1 with bottom 0 in which each
    element comes after those below it: each element's strict down-set is
    an order ideal of the elements before it that holds 0."""
    def extend(down):
        if len(down) == n:
            yield down
            return
        i = len(down)
        for ideal in range(1, 1 << i, 2):
            if all(down[x] & ~ideal == 0 for x in _bits(ideal)):
                yield from extend(down + [ideal | 1 << i])

    yield from extend([1])


def _meet_outcome(build, down):
    """What ``build(names, down)`` returns, or the message it raises."""
    try:
        return build(tuple(map(str, range(len(down)))), down)
    except NotMeetSemilattice as exc:
        return str(exc)


def _assert_meet_check_agrees(down):
    """Construction and the pairwise oracle raise the same message, or
    both accept the masks with the same meet table; True when accepted."""
    got = _meet_outcome(core._from_down_masks, down)
    want = _meet_outcome(oracle_meet_table, down)
    if isinstance(got, str):
        assert got == want, down
        return False
    assert _meet_table(got) == want, down
    return True


def test_meet_check_matches_oracle_exhaustive():
    accepted = rejected = 0
    for n in range(1, 8):
        for down in _bottomed_posets(n):
            variants = [down]
            if n < 7:
                variants.append(down + [(1 << (n + 1)) - 1])  # a top
            for masks in variants:
                if _assert_meet_check_agrees(masks):
                    accepted += 1
                else:
                    rejected += 1
    # 1 + 1 + 2 + 7 + 40 + 357 + 4824 posets, 408 of them with a top added
    assert accepted + rejected == 5232 + 408
    assert accepted > 500 and rejected > 1000


def _random_posets(count):
    """Seeded down-set masks of posets of 2 to 13 elements with a bottom,
    half of them with a top added, relabeled at random so that index order
    need not be a linear extension."""
    rng = random.Random(17)
    for _ in range(count):
        n = rng.randint(2, 12)
        density = rng.random()
        down = [1]
        for i in range(1, n):
            mask = 1 | 1 << i
            for j in range(1, i):
                if rng.random() < density:
                    mask |= down[j]
            down.append(mask)
        if rng.random() < 0.5:
            down.append((1 << (n + 1)) - 1)
        perm = list(range(len(down)))
        rng.shuffle(perm)
        moved = [0] * len(down)
        for x, mask in enumerate(down):
            moved[perm[x]] = sum(1 << perm[z] for z in _bits(mask))
        yield moved


def test_meet_check_matches_oracle_random():
    outcomes = [0, 0]
    for down in _random_posets(3000):
        outcomes[_assert_meet_check_agrees(down)] += 1
    assert min(outcomes) > 300


def _oracle_linext(down):
    """The smallest index whose strict down-set is already emitted, again
    and again."""
    order = []
    emitted = 0
    while len(order) < len(down):
        x = min(x for x in range(len(down)) if not emitted >> x & 1
                and down[x] & ~emitted == 1 << x)
        order.append(x)
        emitted |= 1 << x
    return tuple(order)


def _oracle_rank(down, covers, order):
    """The length of every saturated chain from the bottom, or None unless
    all those to each element have the same length."""
    lengths = [set() for _ in down]
    for y in order:
        below = [x for x, p in covers if p == y]
        lengths[y] = {r + 1 for x in below for r in lengths[x]} or {0}
    if any(len(ls) > 1 for ls in lengths):
        return None
    return tuple(min(ls) for ls in lengths)


def test_order_fields_match_definition():
    # up-sets, covers, cover masks, linear extension and rank of masks in
    # any index order, and again renumbered along the linear extension, so
    # that index order extends the order
    checked = 0
    for shuffled in _random_posets(1000):
        n = len(shuffled)
        order = _oracle_linext(shuffled)
        position = {x: i for i, x in enumerate(order)}
        renumbered = [sum(1 << position[z] for z in _bits(shuffled[x]))
                      for x in order]
        for down in (shuffled, renumbered):
            try:
                lat = core._from_down_masks(tuple(map(str, range(n))), down)
            except NotMeetSemilattice:
                break
            up = tuple(sum(1 << y for y in range(n) if down[y] >> x & 1)
                       for x in range(n))
            assert lat.up == up
            assert lat.covers == tuple(
                (x, y) for x in range(n) for y in range(n)
                if x != y and up[x] & down[y] == 1 << x | 1 << y)
            assert lat.upper == tuple(
                sum(1 << y for c, y in lat.covers if c == x) for x in range(n))
            assert lat.lower == tuple(
                sum(1 << x for x, p in lat.covers if p == y) for y in range(n))
            assert lat.linext == _oracle_linext(down)
            assert lat.rank == _oracle_rank(down, lat.covers, lat.linext)
            checked += 1
        else:
            assert lat.linext == tuple(range(n))
    assert checked > 1000


def _derived_fields(lat):
    """The derived fields a lattice has computed so far: construction
    leaves the rank and the label index to their first read."""
    return {"rank", "_index"} & vars(lat).keys()


def test_rank_and_label_index_derived_on_first_read(monkeypatch):
    built = []
    for shuffled in _random_posets(300):
        n = len(shuffled)
        order = _oracle_linext(shuffled)
        position = {x: i for i, x in enumerate(order)}
        renumbered = [sum(1 << position[z] for z in _bits(shuffled[x]))
                      for x in order]
        for down in (shuffled, renumbered):
            try:
                lat = core._from_down_masks(tuple(map(str, range(n))), down)
            except NotMeetSemilattice:
                break
            pairs = list(lat.covers)
            random.Random(n).shuffle(pairs)
            again = lv.from_covers(n, lat.names, pairs)
            assert not _derived_fields(lat) and not _derived_fields(again)
            built.append((lat, down))
    assert any(lat.linext != tuple(range(lat.n)) for lat, _ in built)

    # the ssp-auto and scan paths read neither field; m3 is left out, as
    # from_matroid checks the rank of its flats
    for name, lat in build_corpus().items():
        if name != "m3":
            lv.is_ssp(lat, "auto")
            assert not _derived_fields(lat), name
    scanned = []

    def keep(names, down):
        scanned.append(core._from_down_masks(names, down))
        return scanned[-1]

    monkeypatch.setattr(search, "_from_down_masks", keep)
    lv.conjecture_scan(7)
    assert len(scanned) == 1 + 1 + 1 + 2 + 5 + 15 + 53
    assert not any(_derived_fields(lat) for lat in scanned)

    # the first read computes the field by definition, and keeps it
    for lat, down in built:
        assert lat.rank == _oracle_rank(down, lat.covers, lat.linext)
        assert _derived_fields(lat) == {"rank"}
        assert lat.rank is vars(lat)["rank"]
    assert any(lat.rank is None for lat, _ in built)
    lat = lv.fig1()
    assert lat.index("12") == lat.names.index("12")
    with pytest.raises(ValueError, match="^no element labelled 'missing'$"):
        lat.index("missing")
    assert _derived_fields(lat) == {"_index"}


def test_meets_equal_oracle_table():
    for lat in [*build_corpus().values(),
                *(lat for n in range(1, 8) for lat in lv.enumerate_lattices(n))]:
        table = oracle_meet_table(lat.names, lat.down)
        assert _meet_table(lat) == table
        everyone = range(lat.n)
        for y in everyone:
            for z in everyone:
                assert realized_meets(lat, [z], y) == 1 << table[z][y]
            assert realized_meets(lat, everyone, y) == sum(
                1 << m for m in set(table[y]))


def test_from_covers_normalizes_redundant_edges():
    lat = lv.from_covers(3, None, [(0, 1), (1, 2), (0, 2)])
    assert lat.covers == ((0, 1), (1, 2))
    twice = lv.from_covers(2, None, [(0, 1), (0, 1)])
    once = lv.from_covers(2, None, [(0, 1)])
    for field in _STORED:
        assert getattr(twice, field) == getattr(once, field), field


def test_duplicate_and_bad_labels_rejected():
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "a"], [(0, 1)])
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "b,c"], [(0, 1)])
    with pytest.raises(ValueError):
        lv.from_covers(2, ["a", "b c"], [(0, 1)])
    # every character str.split() or str.splitlines() breaks at is refused,
    # so an accepted label always survives the text round trip
    # a label that is not a str is refused by the same rule: an int has no
    # characters to test, and a tuple's text holds a comma
    for label in ("a\xa0b", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", 1,
                  ("a",)):
        with pytest.raises(ValueError, match="^bad element label "):
            lv.from_covers(2, ["0", label], [(0, 1)])


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


@pytest.mark.parametrize("x, y", [(-1, 3), (0, 4), (0, -1)])
def test_interval_endpoint_out_of_range(x, y):
    b2 = lv.boolean(2)
    with pytest.raises(ValueError, match=r"outside 0\.\.3$"):
        lv.interval(b2, x, y)


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


def test_element_cap_refuses_before_construction(monkeypatch):
    b6 = lv.boolean(6)
    built = []
    construct = core._from_down_masks

    def recording(names, down):
        built.append(len(names))
        if len(names) > core.MAX_ELEMENTS:
            raise AssertionError("an over-cap structure reached construction")
        return construct(names, down)

    monkeypatch.setattr(core, "_from_down_masks", recording)
    monkeypatch.setattr(builders, "_from_down_masks", recording)
    with pytest.raises(TooLarge):
        lv.from_covers(core.MAX_ELEMENTS + 1, None, [])
    with pytest.raises(TooLarge):
        lv.product(b6, b6)
    assert built == []
    out = io.StringIO()
    assert cli.run(["build", "product(boolean:6,boolean:6)"], out=out) == 2
    assert out.getvalue() == ""
    assert built == [64, 64]  # the two factors, never their product


def test_product_refuses_colliding_labels():
    # ("0", "1|2") and ("0|1", "2") would both be labelled "(0|1|2)"
    a = lv.parse_lattice_text("elem 0\nelem 0|1\ncover 0 0|1\n")
    b = lv.parse_lattice_text("elem 1|2\nelem 2\ncover 1|2 2\n")
    with pytest.raises(ValueError, match="^element labels must be unique$"):
        lv.product(a, b)


def _join(lat, x, y):
    """x v y, read off the up-masks: the one element whose up-set is
    up[x] & up[y] (unpacking fails unless there is exactly one)."""
    (j,) = [a for a in range(lat.n) if lat.up[a] == lat.up[x] & lat.up[y]]
    return j


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
                    assert _meet(p, x, y) == (_meet(a, i1, i2) * m
                                              + _meet(b, j1, j2))
                    assert _join(p, x, y) == (_join(a, i1, i2) * m
                                              + _join(b, j1, j2))
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
    assert v.top is None
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
    with pytest.raises(NotRanked):
        lv.count_up_to(lv.fig1(), 1)


def test_meet_is_greatest_lower_bound(corpus):
    for name, lat in corpus.items():
        for x in range(lat.n):
            for y in range(lat.n):
                m = _meet(lat, x, y)
                assert lat.leq(m, x) and lat.leq(m, y), name
                for z in range(lat.n):
                    if lat.leq(z, x) and lat.leq(z, y):
                        assert lat.leq(z, m), name


def test_join_is_least_upper_bound(corpus):
    for name, lat in corpus.items():
        if lat.top is None:
            continue
        for x in range(lat.n):
            for y in range(lat.n):
                j = _join(lat, x, y)
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
    for text, lineno, message in (
            ("elem\n", 1, "expected: elem <label>"),
            ("elem a,b\n", 1, "bad element label 'a,b'"),
            ("elem a\nelem b\ncover a\n", 3,
             "expected: cover <child-label> <parent-label>")):
        with pytest.raises(LatticeFormatError) as err:
            lv.parse_lattice_text(text)
        assert err.value.lineno == lineno
        assert str(err.value).startswith(f"line {lineno}: {message}")


def test_corpus_is_diverse():
    corpus = build_corpus()
    assert len(corpus) >= 10
    keys = {canonical_key(lat) for lat in corpus.values()}
    # only intentional coincidences: m3 == pg22 as abstract lattices
    assert len(keys) == len(corpus) - 1


_FIELDS = ("n", "names", "up", "down", "covers", "meet", "bottom", "top",
           "rank", "linext")
# the attributes compared field by field: ``element`` in place of the meet
# table, which is no attribute
_STORED = tuple("element" if f == "meet" else f for f in _FIELDS)


def _field(lat, field):
    """A pinned field; the meet table comes from the oracle."""
    return oracle_meets(lat) if field == "meet" else getattr(lat, field)


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
        for field in _STORED:
            assert getattr(lat, field) == getattr(again, field), (lat, field)
        checked += 1
    assert checked > 500


# sha256 of all ten fields of every structure below, each built twice: as
# it comes and by from_covers from its strict order relation, shuffled, with
# every pair listed twice
FIELDS_SHA256 = (
    "4320c569a000a2622bc3292b27a9b4a5a39f1f453a8aeb42522d8cfed5c70926")


def _pinned_structures():
    """Every lattice with n <= 7, the corpus, the intervals [bottom, y] of
    the corpus, and the products of corpus pairs up to 130 elements."""
    for n in range(1, 8):
        yield from lv.enumerate_lattices(n)
    corpus = list(build_corpus().values())
    for lat in corpus:
        yield lat
        for y in _bits(lat.up[lat.bottom]):
            yield lv.interval(lat, lat.bottom, y)[0]
    for a in corpus:
        for b in corpus:
            if a.n * b.n <= 130:
                yield lv.product(a, b)


def test_lattice_fields_pinned():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for lat in _pinned_structures():
        pairs = [(x, y) for y in range(lat.n) for x in _bits(lat.down[y])
                 if x != y] * 2
        rng.shuffle(pairs)
        for built in (lat, lv.from_covers(lat.n, lat.names, pairs)):
            digest.update(repr(tuple(_field(built, field)
                                     for field in _FIELDS)).encode())
    assert digest.hexdigest() == FIELDS_SHA256
