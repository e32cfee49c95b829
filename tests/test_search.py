import hashlib
import io
import random

import pytest

import latticevc as lv
from latticevc import cli, search, ssp
from latticevc.core import _from_down_masks
from latticevc.errors import NotMeetSemilattice, TooLarge

from conftest import (
    oracle_lattice_count,
    oracle_lattice_masks,
    oracle_order_key,
    relabel,
)


KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


def test_counts_match_labeled_poset_oracle():
    for n in range(1, 6):
        assert len(list(lv.enumerate_lattices(n))) == oracle_lattice_count(n)


def test_counts_frozen():
    for n, expect in KNOWN_COUNTS.items():
        if n <= 6:
            assert len(list(lv.enumerate_lattices(n))) == expect


def test_two_element_case():
    (lat,) = lv.enumerate_lattices(2)
    assert search.is_isomorphic(lat, lv.chain(1))


def test_emitted_lattices_are_valid_and_distinct():
    for n in range(1, 9):
        lats = list(lv.enumerate_lattices(n))
        keys = [search.canonical_key(lat) for lat in lats]
        assert len(set(keys)) == len(keys)
        for lat in lats:
            assert lat.bottom is not None
            assert lat.top is not None
            assert lat.down[lat.top] == (1 << lat.n) - 1


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        list(lv.enumerate_lattices(0))
    with pytest.raises(TooLarge):
        list(lv.enumerate_lattices(search.MAX_ENUM + 1))


def test_scan_guard_refuses_before_enumerating(monkeypatch):
    def fail(*args):
        raise AssertionError("enumeration work started")

    monkeypatch.setattr(search, "_order_key", fail)
    monkeypatch.setattr(search, "_assemble", fail)
    with pytest.raises(TooLarge):
        lv.conjecture_scan(search.MAX_ENUM + 1)
    out = io.StringIO()
    assert cli.run(["scan", "--max-n", str(search.MAX_ENUM + 1)], out) == 2
    assert out.getvalue() == ""


def test_one_construction_per_emitted_lattice(monkeypatch):
    # duplicates are rejected on the raw down-masks, before assembly, and
    # enumerate_lattices(n) assembles only its size-n lattices
    calls = []
    build = search._assemble

    def counting(*state):
        calls.append(1)
        return build(*state)

    monkeypatch.setattr(search, "_assemble", counting)
    for n, expect in KNOWN_COUNTS.items():
        calls.clear()
        assert len(list(lv.enumerate_lattices(n))) == expect
        assert len(calls) == expect
    calls.clear()
    lv.conjecture_scan(8)
    assert len(calls) == sum(KNOWN_COUNTS.values()) == 300


# _order_key calls per n: a prefix that passes the twin and
# canonical-deletion tests is keyed only when an earlier prefix has its
# (down-set size, up-set size) invariant, and then each stored prefix of
# that invariant is keyed once too; no emitted lattice is keyed.  Keying
# every such prefix took 328 keys to reach n = 8, and the unfiltered
# oracle walk keys 695
PREFIX_KEYS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 9, 8: 63}


def test_keys_only_on_invariant_collision(monkeypatch):
    calls = []
    key = search._order_key

    def counting(up, down):
        calls.append(1)
        return key(up, down)

    monkeypatch.setattr(search, "_order_key", counting)
    for n, expect in PREFIX_KEYS.items():
        calls.clear()
        assert len(list(lv.enumerate_lattices(n))) == KNOWN_COUNTS[n]
        assert len(calls) == expect
    # one walk serves every size: a scan to 8 keys the prefixes of
    # enumerate_lattices(8) alone, not those of every smaller size again
    calls.clear()
    reports = lv.conjecture_scan(8)
    assert [r.total_lattices for r in reports] == list(KNOWN_COUNTS.values())
    assert len(calls) == PREFIX_KEYS[8] == 63


def _keys_by_size(walk):
    keys = {}
    for down in walk:
        lattice = _from_down_masks(tuple(map(str, range(len(down)))), down)
        keys.setdefault(len(down), []).append(search.canonical_key(lattice))
    return keys


def _walk_masks(n_max):
    """The raw down-mask lists of the walk's lattices, in walk order."""
    return [list(lat.down) for lat in search._walk(n_max)]


def test_walk_matches_oracle_walk():
    # the twin and canonical-deletion filters drop only children whose
    # class another child reaches: every size up to 9 has the oracle's
    # classes, and up to 7 the oracle's very sequence
    keys = _keys_by_size(_walk_masks(9))
    expect = _keys_by_size(oracle_lattice_masks(9))
    assert sorted(keys) == list(range(1, 10))
    for n in range(1, 10):
        assert sorted(keys[n]) == sorted(expect[n]), n
    assert _walk_masks(7) == list(oracle_lattice_masks(7))


def test_walk_lattices_equal_mask_constructor():
    # every lattice is collected before any is compared, so walk state
    # edited after a yield would show in a lattice already handed out
    lattices = list(search._walk(9))
    assert len(lattices) == sum(KNOWN_COUNTS.values()) + 1078 == 1378
    for lat in lattices:
        again = _from_down_masks(lat.names, list(lat.down))
        for field in ("n", "names", "up", "down", "covers", "upper", "lower",
                      "element", "bottom", "top", "linext", "rank"):
            assert getattr(lat, field) == getattr(again, field), (lat, field)


def test_walk_runs_the_meet_check(monkeypatch):
    groups = []

    def refuse(names, down, element, group):
        groups.append(list(group))
        raise NotMeetSemilattice("refused")

    # the first group is boolean:2's two atoms, the top's lower covers
    monkeypatch.setattr(search, "_check_meets", refuse)
    with pytest.raises(NotMeetSemilattice, match="^refused$"):
        lv.conjecture_scan(4)
    assert groups == [[1, 2]]

    # the lower covers of an element as the walk adds it, highest first,
    # are checked too: at n = 5, element 3 above the atoms 1 and 2
    groups.clear()
    monkeypatch.setattr(search, "_check_meets",
                        lambda names, down, element, group:
                        groups.append(list(group)))
    assert [r.total_lattices for r in lv.conjecture_scan(5)] == [
        1, 1, 1, 2, 5]
    assert [2, 1] in groups


# sha256 of the sorted canonical keys of each size n = 1..9 in turn: the
# classes emitted, whatever labeling the walk picks for them
CANONICAL_KEYS_SHA256_N9 = (
    "5e33808ff973f7eb597dffeacd9443f5150dac8d9e50463e023c6e58f9131f73")


def test_enumerated_classes_pinned():
    digest = hashlib.sha256()
    for n in range(1, 10):
        keys = sorted(map(search.canonical_key, lv.enumerate_lattices(n)))
        digest.update(repr(keys).encode())
    assert digest.hexdigest() == CANONICAL_KEYS_SHA256_N9


# sha256 of every emitted lattice text for n = 1..7 and n = 1..8, in
# enumeration order; at n = 8 the filtered walk reaches three classes
# (positions 60-62) by other prefixes than the oracle walk, so their texts
# are other labelings of the same lattices
ENUMERATION_SHA256_N7 = (
    "42d5c0172bcb6a5b871c59f265af034f72662dd6d041c6f352e9a879eb528733")
ENUMERATION_SHA256_N8 = (
    "30e0166883686eaa2f3511a6fd75477908fc1c62e7b7704e7d1b0505d6781906")


def test_enumeration_deterministic():
    a = [lv.emit_lattice_text(lat) for lat in lv.enumerate_lattices(6)]
    b = [lv.emit_lattice_text(lat) for lat in lv.enumerate_lattices(6)]
    assert a == b
    digest = hashlib.sha256()
    for n in range(1, 9):
        for lat in lv.enumerate_lattices(n):
            digest.update(lv.emit_lattice_text(lat).encode())
        if n == 7:
            assert digest.hexdigest() == ENUMERATION_SHA256_N7
    assert digest.hexdigest() == ENUMERATION_SHA256_N8


# sha256 of repr(list(lat.down)) for every lattice that _walk(10) yields,
# in order (7,372 lattices, OEIS A006966 summed to n = 10): which
# prefixes the walk accepts and rejects, and the labeling of each class
WALK_SHA256_N10 = (
    "aba2711b2fa5ae05371c0ba9b1d4c5546d06276cd7d1ce14d3f01d897c55c07f")


def test_walk_sequence_pinned():
    digest = hashlib.sha256()
    count = 0
    for down in _walk_masks(10):
        digest.update(repr(down).encode())
        count += 1
    assert count == 7372
    assert digest.hexdigest() == WALK_SHA256_N10


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_isomorphism_invariant_under_relabeling():
    lat = lv.fig3b()
    # reverse the declaration order of everything except the forced bottom
    perm = [0] + list(range(lat.n - 1, 0, -1))
    assert search.is_isomorphic(lat, relabel(lat, perm))
    rng = random.Random(4)
    for lat in (lv.fig1(), lv.boolean(4), lv.product(lv.fig1(), lv.chain(1)),
                lv.subspace_lattice(3, 2)):
        perm = list(range(lat.n))
        rng.shuffle(perm)
        relabeled = relabel(lat, perm)
        assert relabeled.up != lat.up
        assert search.canonical_key(relabeled) == search.canonical_key(lat)
    # every lattice of up to 7 elements: the (down-set size, up-set size)
    # colouring leaves many classes unsplit, so the search over ties decides
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            perm = list(range(lat.n))
            rng.shuffle(perm)
            assert (search.canonical_key(relabel(lat, perm))
                    == search.canonical_key(lat))


def _relabel_masks(masks, perm):
    """Masks of the same relation with element perm[i] moved to index i."""
    inv = [0] * len(masks)
    for new, old in enumerate(perm):
        inv[old] = new
    return [sum(1 << inv[y] for y in range(len(masks)) if masks[old] >> y & 1)
            for old in perm]


def test_order_key_values_match_oracle(monkeypatch):
    # every prefix that the unfiltered oracle walk to 9 elements keys (the
    # walk keys a subset of them), as met and under a seeded relabeling:
    # twin pruning and the level-by-level tie set keep the key values
    # themselves
    met = []
    key = search._order_key

    def recording(up, down):
        met.append((tuple(up), tuple(down)))
        return key(up, down)

    monkeypatch.setattr(search, "_order_key", recording)
    assert sum(len(down) == 9 for down in oracle_lattice_masks(9)) == 1078
    assert len(met) == 3556
    rng = random.Random(9)
    for up, down in met:
        expect = oracle_order_key(up, down)
        assert key(up, down) == expect
        perm = list(range(len(up)))
        rng.shuffle(perm)
        up2, down2 = _relabel_masks(up, perm), _relabel_masks(down, perm)
        assert key(up2, down2) == oracle_order_key(up2, down2) == expect


def test_isomorphism_distinguishes():
    assert not search.is_isomorphic(lv.chain(3), lv.boolean(2))
    assert not search.is_isomorphic(lv.chain(2), lv.boolean(2))
    assert search.is_isomorphic(lv.subspace_lattice(2, 2),
                                lv.product(lv.boolean(1), lv.boolean(1))) is False
    assert search.is_isomorphic(lv.boolean(2),
                                lv.product(lv.boolean(1), lv.boolean(1)))


def test_canonical_key_on_symmetric_lattice():
    # the two rank layers of 7 elements are colour classes that only the
    # search over tied partial relabelings can order
    lat = lv.subspace_lattice(2, 3)
    key = search.canonical_key(lat)
    assert key[0] == 16
    perm = list(range(lat.n))
    perm[1], perm[5] = perm[5], perm[1]
    perm[9], perm[12] = perm[12], perm[9]
    assert search.canonical_key(relabel(lat, perm)) == key
    # M_k (bottom, k atoms, top), relabeled: one colour class of k twin
    # atoms, with a closed-form key; the oracle on M_9 visits 9! tied leaves
    rng = random.Random(6)
    for k in (6, 9):
        m_k = lv.from_covers(k + 2, None, [(0, a) for a in range(1, k + 1)]
                             + [(a, k + 1) for a in range(1, k + 1)])
        perm = list(range(k + 2))
        rng.shuffle(perm)
        lat = relabel(m_k, perm)
        assert lat.up != m_k.up
        expect = (k + 2, (0,) + tuple(1 << a for a in range(k))
                  + ((1 << (k + 1)) - 1,))
        assert search.canonical_key(lat) == expect
        if k == 6:
            assert oracle_order_key(lat.up, lat.down) == expect


def test_canonical_key_on_large_lattices():
    # the key's search does not recurse per element: a 1,044-element product
    # has a colour class per atom pair, and a 2,048-element chain has one
    # element per colour class
    a = lv.product(lv.boolean(2), lv.chain(260))
    b = lv.product(lv.chain(260), lv.boolean(2))
    assert a.n == 1044 and a.up != b.up
    assert search.is_isomorphic(a, b) is True
    chain = lv.chain(2047)
    key = search.canonical_key(chain)
    assert key == (2048, tuple((1 << i) - 1 for i in range(2048)))


def test_canonical_key_refuses_a_tie_set_over_the_guard(monkeypatch):
    # subspace:2:3's 7 atoms tie in every order: the tie set peaks at 5,040
    # partial relabelings of its 16 elements; the guard is lowered so that
    # the refusal allocates little
    lat = lv.subspace_lattice(2, 3)
    monkeypatch.setattr(search, "MAX_TIE_CELLS", 16 * 5040)
    key = search.canonical_key(lat)
    monkeypatch.setattr(search, "MAX_TIE_CELLS", 16 * 5040 - 1)
    with pytest.raises(TooLarge):
        search.canonical_key(lat)
    with pytest.raises(TooLarge):
        search.is_isomorphic(lat, lat)
    monkeypatch.undo()
    assert search.canonical_key(lat) == key


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

def test_scan_small():
    reports = lv.conjecture_scan(5)
    assert [r.total_lattices for r in reports] == [1, 1, 1, 2, 5]
    for r in reports:
        assert r.counterexamples == ()
        assert r.inconclusive == 0
        assert r.ssp_count <= r.rc_count
        assert r.agreements + len(r.counterexamples) == r.total_lattices
    # chains of >= 3 elements are neither RC nor SSP
    assert reports[2].rc_count == 0 and reports[2].ssp_count == 0


def test_scan_report_formats():
    reports = lv.conjecture_scan(4)
    text = search.scan_report_text(reports)
    assert "n=4 total=2 rc=1 ssp=1 inconclusive=0 counterexamples=0" in text
    tsv = search.scan_report_tsv(reports)
    lines = tsv.strip().splitlines()
    assert lines[0] == "n\ttotal\trc\tssp\tinconclusive\tcounterexamples"
    assert lines[4] == "4\t2\t1\t1\t0\t0"


def test_scan_reports_counterexample_and_inconclusive(monkeypatch):
    # no lattice up to n = 10 disagrees with the conjecture, so fake the
    # verdicts: the 4-element Boolean lattice "violated" by {1,2}, the
    # 2-element chain undecided; every other lattice keeps its real verdict
    real = search.is_ssp

    def fake(lattice, strategy):
        if lattice.n == 4 and lv.is_rc(lattice) is None:
            return ssp.SspVerdict(ssp.VIOLATED, None, frozenset({1, 2}), 7)
        if lattice.n == 2:
            return ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 3)
        return real(lattice, strategy)

    monkeypatch.setattr(search, "is_ssp", fake)
    reports = lv.conjecture_scan(4)
    assert [(r.total_lattices, r.rc_count, r.ssp_count, r.inconclusive,
             r.agreements, len(r.counterexamples)) for r in reports] == [
        (1, 1, 1, 0, 1, 0), (1, 1, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0),
        (2, 1, 0, 0, 1, 1)]
    ((lattice, fam),) = reports[3].counterexamples
    assert search.is_isomorphic(lattice, lv.boolean(2))
    assert fam == frozenset({1, 2})
    assert search.scan_report_text(reports) == (
        "n=1 total=1 rc=1 ssp=1 inconclusive=0 counterexamples=0\n"
        "n=2 total=1 rc=1 ssp=0 inconclusive=1 counterexamples=0\n"
        "n=3 total=1 rc=0 ssp=0 inconclusive=0 counterexamples=0\n"
        "n=4 total=2 rc=1 ssp=0 inconclusive=0 counterexamples=1\n"
        "counterexample lattice:\n"
        "  elem 0\n  elem 1\n  elem 2\n  elem 3\n"
        "  cover 0 1\n  cover 0 2\n  cover 1 3\n  cover 2 3\n"
        "counterexample family: {1,2}\n")
    assert search.scan_report_tsv(reports).splitlines()[2:] == [
        "2\t1\t1\t0\t1\t0", "3\t1\t0\t0\t0\t0", "4\t2\t1\t0\t0\t1"]
    assert cli.run(["scan", "--max-n", "4"], out=io.StringIO()) == 1
