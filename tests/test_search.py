import hashlib
import io
import random

import pytest

import latticevc as lv
from latticevc import cli, search, ssp
from latticevc.errors import TooLarge

from conftest import oracle_lattice_count, oracle_order_key


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
            assert lat.join is not None


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        list(lv.enumerate_lattices(0))
    with pytest.raises(TooLarge):
        list(lv.enumerate_lattices(search.MAX_ENUM + 1))


def test_scan_guard_refuses_before_enumerating(monkeypatch):
    def fail(*args):
        raise AssertionError("enumeration work started")

    monkeypatch.setattr(search, "_order_key", fail)
    monkeypatch.setattr(search, "_from_down_masks", fail)
    with pytest.raises(TooLarge):
        lv.conjecture_scan(search.MAX_ENUM + 1)
    out = io.StringIO()
    assert cli.run(["scan", "--max-n", str(search.MAX_ENUM + 1)], out) == 2
    assert out.getvalue() == ""


def test_one_construction_per_emitted_lattice(monkeypatch):
    # duplicates are rejected on the raw down-masks, before construction
    calls = []
    build = search._from_down_masks

    def counting(names, down):
        calls.append(1)
        return build(names, down)

    monkeypatch.setattr(search, "_from_down_masks", counting)
    for n, expect in KNOWN_COUNTS.items():
        calls.clear()
        assert len(list(lv.enumerate_lattices(n))) == expect
        assert len(calls) == expect
    calls.clear()
    lv.conjecture_scan(8)
    assert len(calls) == sum(KNOWN_COUNTS.values()) == 300


# _order_key calls per n: one per prefix that is not isomorphic to an
# earlier one, and none for the emitted lattices themselves
PREFIX_KEYS = {1: 0, 2: 1, 3: 2, 4: 4, 5: 11, 6: 38, 7: 154, 8: 695}


def test_one_key_per_prefix(monkeypatch):
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
    assert len(calls) == PREFIX_KEYS[8] == 695


# sha256 of every emitted lattice text for n = 1..7 and n = 1..8, in
# enumeration order
ENUMERATION_SHA256_N7 = (
    "42d5c0172bcb6a5b871c59f265af034f72662dd6d041c6f352e9a879eb528733")
ENUMERATION_SHA256_N8 = (
    "5d795807f588a3549b5cf21afc8992ba0e0aa97efd46aa41180715408beaddb8")


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


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _relabel(lat, perm):
    """The same order with element perm[i] moved to index i."""
    inv = [0] * lat.n
    for new, old in enumerate(perm):
        inv[old] = new
    covers = [(inv[c], inv[p]) for c, p in lat.covers]
    return lv.from_covers(lat.n, None, covers)


def test_isomorphism_invariant_under_relabeling():
    lat = lv.fig3b()
    # reverse the declaration order of everything except the forced bottom
    perm = [0] + list(range(lat.n - 1, 0, -1))
    assert search.is_isomorphic(lat, _relabel(lat, perm))
    rng = random.Random(4)
    for lat in (lv.fig1(), lv.boolean(4), lv.product(lv.fig1(), lv.chain(1)),
                lv.subspace_lattice(3, 2)):
        perm = list(range(lat.n))
        rng.shuffle(perm)
        relabeled = _relabel(lat, perm)
        assert relabeled.up != lat.up
        assert search.canonical_key(relabeled) == search.canonical_key(lat)
    # every lattice of up to 7 elements: the (down-set size, up-set size)
    # colouring leaves many classes unsplit, so the branch and bound decides
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            perm = list(range(lat.n))
            rng.shuffle(perm)
            assert (search.canonical_key(_relabel(lat, perm))
                    == search.canonical_key(lat))


def _relabel_masks(masks, perm):
    """Masks of the same relation with element perm[i] moved to index i."""
    inv = [0] * len(masks)
    for new, old in enumerate(perm):
        inv[old] = new
    return [sum(1 << inv[y] for y in range(len(masks)) if masks[old] >> y & 1)
            for old in perm]


def test_order_key_values_match_oracle(monkeypatch):
    # every prefix that the walk to 9 elements keys (each enumeration to
    # n <= 9 keys a subset of them), as met and under a seeded relabeling:
    # twin pruning and the search-free path keep the key values themselves
    met = []
    key = search._order_key

    def recording(up, down):
        met.append((tuple(up), tuple(down)))
        return key(up, down)

    monkeypatch.setattr(search, "_order_key", recording)
    assert len(list(lv.enumerate_lattices(9))) == 1078
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
    # branch and bound can order
    lat = lv.subspace_lattice(2, 3)
    key = search.canonical_key(lat)
    assert key[0] == 16
    perm = list(range(lat.n))
    perm[1], perm[5] = perm[5], perm[1]
    perm[9], perm[12] = perm[12], perm[9]
    assert search.canonical_key(_relabel(lat, perm)) == key
    # M_k (bottom, k atoms, top), relabeled: one colour class of k twin
    # atoms, with a closed-form key; the oracle on M_9 visits 9! tied leaves
    rng = random.Random(6)
    for k in (6, 9):
        m_k = lv.from_covers(k + 2, None, [(0, a) for a in range(1, k + 1)]
                             + [(a, k + 1) for a in range(1, k + 1)])
        perm = list(range(k + 2))
        rng.shuffle(perm)
        lat = _relabel(m_k, perm)
        assert lat.up != m_k.up
        expect = (k + 2, (0,) + tuple(1 << a for a in range(k))
                  + ((1 << (k + 1)) - 1,))
        assert search.canonical_key(lat) == expect
        if k == 6:
            assert oracle_order_key(lat.up, lat.down) == expect


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

    def fake(lattice, strategy, budget):
        if lattice.n == 4 and lv.is_rc(lattice) is None:
            return ssp.SspVerdict(ssp.VIOLATED, None, frozenset({1, 2}), 7)
        if lattice.n == 2:
            return ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 3)
        return real(lattice, strategy, budget)

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


def test_scan_zero_budget_still_resolves_small_sizes():
    # every RC lattice below 8 elements carries a Mobius certificate, so a
    # zero family budget changes nothing there
    reports = lv.conjecture_scan(5, budget=0)
    assert all(r.inconclusive == 0 for r in reports)
    assert all(r.counterexamples == () for r in reports)
