import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import latticevc as lv
from latticevc import ssp
from latticevc.cli import load_source
from latticevc.core import _bits
from latticevc.errors import (
    FactorNotSSP,
    NotALattice,
    NotMaximalAntichain,
    NotOneMinimal,
    NotRC,
    PreconditionViolated,
)

from conftest import (
    graphic_matroid,
    naive_shattered_set,
    naive_violating_families,
    oracle_family_search,
    oracle_is_rc,
    oracle_meets,
    oracle_mobius_rows,
    random_family,
    relabel,
)


def all_families(lattice):
    for code in range(1 << lattice.n):
        yield frozenset(i for i in range(lattice.n) if (code >> i) & 1)


# ---------------------------------------------------------------------------
# relative complementation
# ---------------------------------------------------------------------------

def test_is_rc_path():
    w = lv.is_rc(lv.chain(2))
    assert (w.x, w.z, w.y) == (0, 1, 2)


def test_is_rc_figures():
    assert lv.is_rc(lv.fig1()) is None
    assert lv.is_rc(lv.fig2()) is None
    lat = lv.fig3b()
    w = lv.is_rc(lat)
    assert (lat.names[w.x], lat.names[w.z], lat.names[w.y]) == ("4", "45", "[5]")


def test_is_rc_boolean():
    for n in range(3):
        assert lv.is_rc(lv.boolean(n)) is None


def test_auto_verdict_carries_rc_status():
    # the scan reads RC off the verdict instead of calling is_rc again
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            kind = lv.is_ssp(lat).certificate_kind
            assert (lv.is_rc(lat) is None) == (kind != ssp.CERT_NON_RC)


_SSP_AUTO_SOURCES = (
    "boolean:7", "boolean:8", "boolean:9", "subspace:2:5", "subspace:3:4",
    "subspace:7:3", "product(boolean:3,subspace:2:3)",
    "product(subspace:2:3,subspace:3:2)", "fig1", "fig2", "fig3b",
    "chain:60", "product(fig3b,fig3b)", "product(chain:2,boolean:4)")


def test_is_rc_matches_all_pairs_oracle(corpus):
    # the route (atomistic test, cover condition, then the two-step cover
    # walk) finds the witness that the scan of all pairs finds first, or
    # None with it, as met and under two seeded relabelings: on every
    # lattice with n <= 9 and its topless version, every interval of the
    # corpus, the ssp-auto benchmark's lattices, boolean:4 without its top
    # and the two-atom V
    lattices = [lat for n in range(1, 10) for lat in lv.enumerate_lattices(n)]
    assert len(lattices) == 1378
    lattices += [_topless(lat) for lat in lattices if lat.n > 1]
    for lat in corpus.values():
        for x in range(lat.n):
            for y in _bits(lat.up[x]):
                lattices.append(lv.interval(lat, x, y)[0])
    lattices += [load_source(source) for source in _SSP_AUTO_SOURCES]
    lattices.append(_topless(lv.boolean(4)))
    lattices.append(lv.from_covers(3, ["0", "a", "b"], [(0, 1), (0, 2)]))
    rng = random.Random(16)
    for lat in lattices:
        cases = [lat]
        for _ in range(2):
            perm = list(range(lat.n))
            rng.shuffle(perm)
            cases.append(relabel(lat, perm))
        for case in cases:
            text = lv.emit_lattice_text(case)
            assert lv.is_rc(case) == oracle_is_rc(case), text
            assert ssp._atomistic(case) == _oracle_atomistic(case), text


def _oracle_atomistic(lattice):
    # every y is the least element above all the atoms below it
    atoms = lv.atoms(lattice)
    for y in range(lattice.n):
        above = lattice.up[lattice.bottom]
        for a in atoms & lattice.downset(y):
            above &= lattice.up[a]
        if above & lattice.down[y] != 1 << y:
            return False
    return True


def test_rc_route_scans_only_when_needed(monkeypatch):
    scanned = []
    scan = ssp._interval_scan

    def counted_scan(lattice):
        scanned.append(lattice.n)
        return scan(lattice)
    monkeypatch.setattr(ssp, "_interval_scan", counted_scan)
    # geometric: atomistic with the cover condition, so RC with no scan
    for source in ("boolean:9", "subspace:2:5",
                   "product(boolean:3,subspace:2:3)"):
        lat = load_source(source)
        assert lv.is_rc(lat) is None
        assert lv.is_ssp(lat) == ssp.SspVerdict(
            ssp.CERTIFIED, ssp.CERT_NONVANISHING, None, 0)
    assert scanned == []
    # fig3b is atomistic but fails the cover condition (atoms 1 and 4 have
    # no common upper cover): the scan finds its witness
    f3 = lv.fig3b()
    assert ssp._atomistic(f3) and not ssp._cover_condition(f3)
    w = lv.is_rc(f3)
    assert (f3.names[w.x], f3.names[w.z], f3.names[w.y]) == ("4", "45", "[5]")
    assert scanned == [11]
    # fig1 is RC, but its atom 4 shares no upper cover with atom 1
    assert lv.is_rc(lv.fig1()) is None
    assert scanned == [11, 9]


def test_cover_condition_runs_once_per_verdict(monkeypatch):
    calls = []
    cover = ssp._cover_condition

    def counted_cover(lattice):
        calls.append(lattice.n)
        return cover(lattice)
    monkeypatch.setattr(ssp, "_cover_condition", counted_cover)
    b3 = lv.boolean(3)
    for strategy in ("auto", "certificate"):
        assert lv.is_ssp(b3, strategy).certificate_kind == ssp.CERT_NONVANISHING
    report = lv.antichain_check(b3, [1, 2, 4], [])
    assert report.bound_size == 1
    assert calls == [8, 8, 8]


def test_non_rc_family_path():
    c2 = lv.chain(2)
    fam = lv.non_rc_family(c2, lv.is_rc(c2))
    assert fam == {1, 2}
    assert len(lv.shattered_set(c2, fam)) == len(fam) - 1


def test_non_rc_family_fig3b():
    lat = lv.fig3b()
    fam = lv.non_rc_family(lat, lv.is_rc(lat))
    assert fam == frozenset(range(lat.n)) - {lat.index("4")}
    assert len(lv.shattered_set(lat, fam)) < len(fam)


def test_rc_witness_interval_is_three_elements(corpus):
    for name, lat in corpus.items():
        w = lv.is_rc(lat)
        if w is None:
            continue
        between = [z for z in range(lat.n)
                   if z not in (w.x, w.y)
                   and lat.leq(w.x, z) and lat.leq(z, w.y)]
        assert between == [w.z], name


def test_non_rc_family_always_violates(corpus):
    for name, lat in corpus.items():
        w = lv.is_rc(lat)
        if w is None:
            continue
        fam = lv.non_rc_family(lat, w)
        assert len(lv.shattered_set(lat, fam)) <= len(fam) - 1, name


# ---------------------------------------------------------------------------
# is_ssp
# ---------------------------------------------------------------------------

def test_fig1_brute():
    verdict = lv.is_ssp(lv.fig1(), "brute")
    assert verdict.outcome == ssp.CERTIFIED
    assert verdict.certificate_kind == ssp.CERT_BRUTE
    assert verdict.families_examined == 512


def test_fig2_certificate():
    verdict = lv.is_ssp(lv.fig2(), "certificate")
    assert verdict.outcome == ssp.CERTIFIED
    assert verdict.certificate_kind == ssp.CERT_RC_ONCE
    verdict = lv.is_ssp(lv.fig2(), "auto")
    assert verdict.certificate_kind == ssp.CERT_RC_ONCE


def test_boolean_nonvanishing_certificate():
    verdict = lv.is_ssp(lv.boolean(3), "certificate")
    assert (verdict.outcome, verdict.certificate_kind) == (ssp.CERTIFIED,
                                                           ssp.CERT_NONVANISHING)


def test_certificate_route_certifies_boolean_9():
    verdict = lv.is_ssp(lv.boolean(9), "auto")
    assert (verdict.outcome, verdict.certificate_kind) == (
        ssp.CERTIFIED, ssp.CERT_NONVANISHING)


def test_path_auto_violated():
    verdict = lv.is_ssp(lv.chain(2), "auto")
    assert verdict.outcome == ssp.VIOLATED
    assert verdict.witness == {1, 2}


def test_path_certificate_inconclusive():
    verdict = lv.is_ssp(lv.chain(2), "certificate")
    assert verdict.outcome == ssp.INCONCLUSIVE


def _no_mobius(*args, **kwargs):
    raise AssertionError("this lattice needs no Mobius table")


def test_non_rc_lattice_builds_no_mobius_table(monkeypatch):
    monkeypatch.setattr(ssp, "vanishing_pairs", _no_mobius)
    verdict = lv.is_ssp(lv.fig3b(), "certificate")
    assert verdict == ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 0)
    assert lv.is_ssp(lv.fig3b(), "auto").certificate_kind == ssp.CERT_NON_RC
    c2 = lv.chain(2)
    with pytest.raises(PreconditionViolated,
                       match="^Mobius function vanishes on this lattice$"):
        lv.antichain_check(c2, frozenset({1}), frozenset({0}))


def test_geometric_lattice_builds_no_mobius_table(monkeypatch):
    monkeypatch.setattr(ssp, "vanishing_pairs", _no_mobius)
    certified = ssp.SspVerdict(ssp.CERTIFIED, ssp.CERT_NONVANISHING, None, 0)
    for source in ("boolean:9", "subspace:2:5",
                   "product(boolean:3,subspace:2:3)"):
        lat = load_source(source)
        assert lv.is_ssp(lat, "auto") == certified, source
        assert lv.is_ssp(lat, "certificate") == certified, source
    b4 = lv.boolean(4)
    report = lv.antichain_check(b4, lv.atoms(b4), frozenset({b4.bottom}))
    assert report.bound_size == 1


def _partition_lattice_4():
    # the flats of the graphic matroid of K4: the 15 partitions of 4 points
    return lv.from_matroid(graphic_matroid(4, list(combinations(range(4), 2))))


def test_rc_lattice_without_cover_condition_reads_mobius_table(monkeypatch):
    calls = []

    def counted(lattice):
        calls.append(lattice.n)
        return lv.vanishing_pairs(lattice)
    monkeypatch.setattr(ssp, "vanishing_pairs", counted)
    # the dual of the partition lattice Pi_4 is RC with nonvanishing mu,
    # but two of its atoms, the coatoms 12|34 and 13|24 of Pi_4, have no
    # common upper cover
    pi4 = _partition_lattice_4()
    pi4_dual = lv.from_covers(pi4.n, pi4.names,
                              [(p, c) for c, p in pi4.covers])
    assert pi4_dual.n == 15 and oracle_is_rc(pi4_dual) is None
    assert not ssp._cover_condition(pi4_dual)
    for strategy in ("auto", "certificate"):
        assert lv.is_ssp(pi4_dual, strategy) == ssp.SspVerdict(
            ssp.CERTIFIED, ssp.CERT_NONVANISHING, None, 0)
    assert calls == [15, 15]
    for lat in (lv.fig1(), lv.fig2()):
        calls.clear()
        assert lv.is_ssp(lat, "auto") == ssp.SspVerdict(
            ssp.CERTIFIED, ssp.CERT_RC_ONCE, None, 0)
        assert calls == [lat.n]
    # every element of a chain has at most one upper cover, so the cover
    # condition holds, but a 3-element chain is not RC
    calls.clear()
    c2 = lv.chain(2)
    assert ssp._cover_condition(c2)
    verdict = lv.is_ssp(c2, "auto")
    assert (verdict.outcome, verdict.certificate_kind) == (ssp.VIOLATED,
                                                           ssp.CERT_NON_RC)
    assert calls == []


def _certificate_by_definition(lattice):
    # RC by the all-pairs oracle, then the pairs x <= y with mu(x, y) = 0
    # from the interval-sum rows
    if oracle_is_rc(lattice) is not None:
        return ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 0)
    rows = oracle_mobius_rows(lattice)
    vanishing = {(x, y) for x in range(lattice.n) for y in range(lattice.n)
                 if (lattice.up[x] >> y) & 1 and rows[x][y] == 0}
    if not vanishing:
        return ssp.SspVerdict(ssp.CERTIFIED, ssp.CERT_NONVANISHING, None, 0)
    if lattice.top is not None and vanishing == {(lattice.bottom,
                                                  lattice.top)}:
        return ssp.SspVerdict(ssp.CERTIFIED, ssp.CERT_RC_ONCE, None, 0)
    return ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 0)


def _topless(lattice):
    # the lattice without its top: a meet-semilattice with the same
    # intervals below the top
    covers = [(c, p) for c, p in lattice.covers if p != lattice.top]
    keep = [i for i in range(lattice.n) if i != lattice.top]
    index = {old: new for new, old in enumerate(keep)}
    return lv.from_covers(len(keep), [lattice.names[i] for i in keep],
                          [(index[c], index[p]) for c, p in covers])


def _oracle_cover_condition(lattice):
    # any two distinct upper covers of an element have a common upper
    # cover, tested pair by pair
    covers = set(lattice.covers)
    return all(any((a, c) in covers and (b, c) in covers
                   for c in range(lattice.n))
               for x in range(lattice.n)
               for a, b in combinations(
                   [p for z, p in lattice.covers if z == x], 2))


def _uniform_matroid(rank, size):
    return lv.MatroidSpec.make(size, [s for d in range(rank + 1)
                                      for s in combinations(range(size), d)])


def test_certificate_matches_definition(corpus):
    # product(fig1, chain:1) without its top is RC, has no top, and mu
    # vanishes there only on (bottom, y) for the maximal y = (top of fig1, 0)
    lattices = list(corpus.values())
    lattices.append(lv.product(lv.fig1(), lv.chain(1)))
    lattices += [lv.from_matroid(_uniform_matroid(rank, size))
                 for size in range(1, 6) for rank in range(1, size + 1)]
    lattices.append(_partition_lattice_4())
    for n in range(1, 10):
        lattices += lv.enumerate_lattices(n)
    lattices += [_topless(lat) for lat in lattices if lat.n > 1]
    geometric = 0
    accepted = 0
    for lat in lattices:
        text = lv.emit_lattice_text(lat)
        expected = _certificate_by_definition(lat)
        assert lv.is_ssp(lat, "certificate") == expected, text
        if lat.n >= 2:
            # the coatoms, or the maximal elements when there is no top, are
            # a maximal antichain, and the empty family shatters none of them
            if lat.top is None:
                aset = frozenset(x for x in range(lat.n)
                                 if lat.up[x] == 1 << x)
            else:
                aset = frozenset(_bits(lat.lower[lat.top]))
            if expected.certificate_kind == ssp.CERT_NONVANISHING:
                lv.antichain_check(lat, aset, frozenset())
                accepted += 1
            else:
                with pytest.raises(PreconditionViolated,
                                   match="^Mobius function vanishes"):
                    lv.antichain_check(lat, aset, frozenset())
        cover = ssp._cover_condition(lat)
        assert cover == _oracle_cover_condition(lat), text
        if cover and oracle_is_rc(lat) is None:
            # the cover route's claim: mu never vanishes, and it alternates
            # in sign as on every geometric lattice
            geometric += 1
            rows = oracle_mobius_rows(lat)
            assert all(rows[x][y] for x in range(lat.n)
                       for y in lat.upset(x)), text
            assert lv.weisner_check(lat), text
    # 33 lattices with a top (9 of the 10 RC lattices with n <= 9, all but
    # fig1; 8 of the corpus; the 15 uniform matroids; Pi_4) and 15 topless
    # variants; the count would fall if the cover test stopped passing
    assert geometric == 48
    assert accepted == 92


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
        lv.is_ssp(lv.boolean(1), "bogus")


def test_brute_budget_semantics():
    f1 = lv.fig1()
    verdict = lv.is_ssp(f1, "brute", budget=0)
    assert verdict.outcome == ssp.INCONCLUSIVE
    assert verdict.families_examined == 0
    verdict = lv.is_ssp(f1, "brute", budget=100)
    assert verdict.outcome == ssp.INCONCLUSIVE
    # a violated lattice can still be falsified under a small budget
    verdict = lv.is_ssp(lv.chain(2), "brute", budget=8)
    assert verdict.outcome == ssp.VIOLATED


# sha256 of the family search's verdicts on every lattice with n <= 7, at
# every budget from 0 to 2^n, together with the oracle's full
# violating-family lists
FAMILY_SEARCH_SHA256_N7 = (
    "85c18df61a50afd7df5a1110fd33e95bdee0cd6b4a8cdca6c96ffb26ded8c2ad")


def test_family_search_deterministic():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            for b in range((1 << n) + 1):
                v = lv.is_ssp(lat, "brute", budget=b)
                w = None if v.witness is None else sorted(v.witness)
                digest.update(repr((v.outcome, v.certificate_kind, w,
                                    v.families_examined)).encode())
            digest.update(repr([sorted(f) for f in
                                naive_violating_families(lat)]).encode())
    assert digest.hexdigest() == FAMILY_SEARCH_SHA256_N7


def test_in_process_search_stops_at_first_witness():
    # chain:1 x fig3b has 22 elements; the first branch alone spans 2^21
    # families and holds a witness, so 54 families means no later branch
    # ran
    lat = lv.product(lv.chain(1), lv.fig3b())
    verdict = lv.is_ssp(lat, "brute")
    assert (verdict.outcome, verdict.families_examined) == (ssp.VIOLATED, 54)
    assert min(verdict.witness) == 0


def test_family_search_needs_no_recursion():
    # chain:300 is searched 300 members deep; a search that recursed once
    # per member would raise RecursionError under a limit of 200 frames
    verdict = lv.is_ssp(lv.chain(300), "brute", budget=1000)
    assert (verdict.outcome, verdict.families_examined) == (ssp.VIOLATED, 305)
    src = Path(lv.__file__).resolve().parents[1]
    code = ("import sys, latticevc as lv; sys.setrecursionlimit(200); "
            "v = lv.is_ssp(lv.chain(300), 'brute', budget=1000); "
            "print(v.outcome, v.families_examined, sorted(v.witness))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == (f"{verdict.outcome} {verdict.families_examined} "
                             f"{sorted(verdict.witness)}\n")


def test_oversized_masks_refused_before_allocation(monkeypatch):
    def _must_not_run(lattice):
        raise AssertionError("the masks were built")

    fig2 = lv.fig2()
    assert ssp._packed_bytes(lv.boolean(9)) <= ssp.MAX_PACKED_BYTES
    monkeypatch.setattr(ssp, "_packed_masks", _must_not_run)
    monkeypatch.setattr(ssp, "MAX_PACKED_BYTES", ssp._packed_bytes(fig2) - 1)
    # one byte over the cap: Inconclusive, with no family examined
    verdict = lv.is_ssp(fig2, "brute")
    assert verdict == ssp.SspVerdict(ssp.INCONCLUSIVE, None, None, 0)


def _blocks(lattice):
    """(offset, width) of each element's block, from the down-sets alone:
    one bit per x <= y, then a guard bit."""
    out = []
    offset = 0
    for d in lattice.down:
        width = bin(d).count("1")
        out.append((offset, width))
        offset += width + 1
    return out


def _check_packed_state(lattice, families):
    ones, guards, keep = ssp._packed_masks(lattice)
    blocks = _blocks(lattice)
    meet = oracle_meets(lattice)
    below = [[x for x in range(lattice.n) if lattice.leq(x, y)]
             for y in range(lattice.n)]
    for fam in families:
        state = ones
        for j in fam:
            state &= keep[j]
        shattered = naive_shattered_set(lattice, fam)
        for y, (offset, width) in enumerate(blocks):
            block = (state >> offset) & ((1 << (width + 1)) - 1)
            # bit r: the r-th x <= y in index order is no member's meet with y
            realized = {meet[z][y] for z in fam}
            expect = sum(1 << r for r, x in enumerate(below[y])
                         if x not in realized)
            assert block == expect, (sorted(fam), y)
            assert (block == 0) == (y in shattered), (sorted(fam), y)
        assert state >> sum(w + 1 for _, w in blocks) == 0


def test_packed_state_matches_definition():
    # the search reads a block as zero exactly when its element is
    # shattered; decode each block by offset and width and check it bit by
    # bit against the meets, for every family of every lattice with n <= 6
    for n in range(1, 7):
        for lat in lv.enumerate_lattices(n):
            _check_packed_state(lat, all_families(lat))
    rng = random.Random(27)
    for spec in ("fig2", "boolean:5", "subspace:3:3",
                 "product(fig2,chain:1)"):
        lat = load_source(spec)
        _check_packed_state(lat, [random_family(lat, rng)
                                  for _ in range(200)])


def test_packed_state_matches_definition_out_of_index_order():
    # the masks read each meet off its down-set by the highest bit only
    # when index order extends the order; shuffled labels take the dict
    rng = random.Random(29)
    for spec in ("fig2", "boolean:4", "product(fig1,chain:1)", "chain:40"):
        lat = load_source(spec)
        perm = [0] + rng.sample(range(1, lat.n), lat.n - 1)
        shuffled = relabel(lat, perm)
        assert shuffled.linext != tuple(range(lat.n))
        _check_packed_state(shuffled, [random_family(shuffled, rng)
                                       for _ in range(50)])


@pytest.mark.parametrize("spec", [
    "chain:0", "boolean:3", "fig2", "boolean:5", "subspace:3:3",
    "product(fig2,chain:1)", "boolean:9",
])
def test_packed_bytes_match_masks(spec):
    # the cap is checked on bytes computed before any mask is built: they
    # are the bytes of the n keep masks as built, one bit per pair x <= y
    # and one guard per element
    lat = load_source(spec)
    ones, guards, keep = ssp._packed_masks(lat)
    offset, width = _blocks(lat)[-1]
    assert guards.bit_length() == offset + width + 1
    assert all((~k).bit_length() <= guards.bit_length() for k in keep)
    assert len(keep) == lat.n
    assert ssp._packed_bytes(lat) == lat.n * ((guards.bit_length() + 7) // 8)


@pytest.mark.parametrize("spec, budget, expected", [
    ("fig2", 1 << 16, (ssp.INCONCLUSIVE, 81913)),
    ("boolean:5", 1 << 16, (ssp.INCONCLUSIVE, 126918)),
    ("subspace:3:3", 1 << 16, (ssp.INCONCLUSIVE, 81296)),
    ("product(fig1,chain:1)", ssp.DEFAULT_BUDGET, (ssp.CERTIFIED, 262144)),
])
def test_family_search_pinned_above_n8(spec, budget, expected):
    # 18 to 33 elements: the search's per-element state spans more than a
    # machine word, and the family counts pin the tree it visits
    verdict = lv.is_ssp(load_source(spec), "brute", budget=budget)
    assert (verdict.outcome, verdict.families_examined) == expected


# the ssp-brute benchmark's pools (b) and (c), searched at its budget, and a
# lattice whose first branch holds a witness
ORACLE_SEARCH_SOURCES = (
    "boolean:4", "subspace:2:3", "product(chain:1,boolean:3)",
    "product(chain:1,fig1)", "product(fig1,chain:1)",
    "fig2", "boolean:5", "subspace:3:3", "product(chain:1,fig3b)",
)


def _search_key(verdict):
    witness = None if verdict.witness is None else sorted(verdict.witness)
    return (verdict.outcome, verdict.certificate_kind, witness,
            verdict.families_examined)


@pytest.mark.parametrize("spec", ORACLE_SEARCH_SOURCES)
def test_family_search_matches_oracle(spec, monkeypatch):
    # the tail rule counts a node's last |Str(F)| - |F| children without
    # computing their states; it must count, stop and answer exactly as a
    # search that visits each of them does
    lat = load_source(spec)
    # both searches read the same masks: build them once, not per budget
    masks = ssp._packed_masks(lat)
    monkeypatch.setattr(ssp, "_packed_masks", lambda lattice: masks)
    budgets = [262143, 262144, 262145]
    if spec in ("fig2", "boolean:5"):
        # small budgets: on boolean:5, 191 of them run out partway
        # through a tail, and 931 more just before one
        budgets += range(1, 5001)
    expect = oracle_family_search(lat, budgets)
    for b in budgets:
        assert (_search_key(ssp._brute_force(lat, b))
                == _search_key(expect[b])), (spec, b)


def test_verdict_witness_sound(corpus):
    for name, lat in corpus.items():
        if lat.n > 12:
            continue
        verdict = lv.is_ssp(lat, "brute")
        if verdict.outcome == ssp.VIOLATED:
            fam = verdict.witness
            assert len(naive_shattered_set(lat, fam)) < len(fam), name


def test_never_certified_on_non_rc(corpus):
    for name, lat in corpus.items():
        if lv.is_rc(lat) is None:
            continue
        for strategy in ("auto", "certificate", "brute"):
            verdict = lv.is_ssp(lat, strategy,
                                budget=1 << lat.n if lat.n <= 16 else 4096)
            assert verdict.outcome != ssp.CERTIFIED, (name, strategy)


# ---------------------------------------------------------------------------
# violating families: the first-witness search against the unpruned oracle
# ---------------------------------------------------------------------------

def _least_violator(lattice):
    # the DFS visits families in the lexicographic order of their sorted
    # members, so a sound first-witness search returns the oracle's least
    # violator in that order, and no witness when the oracle finds none
    return min(naive_violating_families(lattice), key=sorted, default=None)


def test_violating_families_fig3b():
    lat = lv.fig3b()
    full = frozenset(range(lat.n))
    expected = [full - {lat.index("4")}, full - {lat.index("5")}]
    assert naive_violating_families(lat) == sorted(
        expected, key=lambda f: (len(f), sum(1 << i for i in f)))
    verdict = lv.is_ssp(lat, "brute")
    assert verdict.outcome == ssp.VIOLATED
    assert verdict.witness == min(expected, key=sorted)


def test_violating_families_boolean_empty():
    b3 = lv.boolean(3)
    assert naive_violating_families(b3) == []
    verdict = lv.is_ssp(b3, "brute")
    assert verdict.outcome == ssp.CERTIFIED
    assert verdict.witness is None


def test_violating_families_path():
    path = lv.chain(2)
    assert frozenset({1, 2}) in naive_violating_families(path)
    verdict = lv.is_ssp(path, "brute")
    assert verdict.outcome == ssp.VIOLATED
    assert verdict.witness == _least_violator(path)


def test_pruned_matches_naive(corpus):
    # the pruned first-witness search and the unpruned oracle agree on every
    # lattice small enough to enumerate
    lattices = [lat for lat in corpus.values() if lat.n <= 12]
    for n in range(1, 8):
        lattices += lv.enumerate_lattices(n)
    for lat in lattices:
        witness = lv.is_ssp(lat, "brute").witness
        assert witness == _least_violator(lat), lv.emit_lattice_text(lat)


def test_rc_iff_brute_ssp_small():
    # conjecture consistency on everything enumerable quickly here;
    # the acceptance suite extends this to n = 7
    for n in range(1, 7):
        for lat in lv.enumerate_lattices(n):
            rc = lv.is_rc(lat) is None
            verdict = lv.is_ssp(lat, "brute")
            assert verdict.outcome != ssp.INCONCLUSIVE
            if verdict.outcome == ssp.VIOLATED:
                fam = verdict.witness
                assert len(naive_shattered_set(lat, fam)) < len(fam), (
                    "counterexample lattice:\n" + lv.emit_lattice_text(lat)
                    + f"family: {sorted(fam)}")
            assert rc == (verdict.outcome == ssp.CERTIFIED), (
                "RC/SSP disagreement:\n" + lv.emit_lattice_text(lat))


# ---------------------------------------------------------------------------
# antichain bound
# ---------------------------------------------------------------------------

def test_antichain_boolean_rank_layer():
    b3 = lv.boolean(3)
    aset = frozenset(x for x in range(8) if b3.rank[x] == 2)
    fam = frozenset(x for x in range(8) if b3.rank[x] <= 1)
    report = lv.antichain_check(b3, aset, fam)
    assert report.family_size == 4
    assert report.bound_size == 4
    assert report.below_antichain == fam


def test_antichain_b2_singletons():
    b2 = lv.boolean(2)
    aset = frozenset({b2.index("1"), b2.index("2")})
    report = lv.antichain_check(b2, aset, frozenset({b2.bottom}))
    assert report.family_size == 1 and report.bound_size == 1


def test_antichain_subspace_lines():
    lat = lv.subspace_lattice(2, 2)
    lines = frozenset(x for x in range(lat.n) if lat.rank[x] == 1)
    report = lv.antichain_check(lat, lines, frozenset({lat.bottom}))
    assert report.bound_size == 1
    assert report.below_antichain == {lat.bottom}


def test_antichain_errors():
    b2 = lv.boolean(2)
    with pytest.raises(NotMaximalAntichain, match="empty antichain"):
        lv.antichain_check(b2, frozenset(), frozenset())
    with pytest.raises(NotMaximalAntichain):
        lv.antichain_check(b2, frozenset({b2.index("1"), b2.index("12")}),
                           frozenset())
    with pytest.raises(NotMaximalAntichain):
        lv.antichain_check(lv.boolean(3), frozenset({1}), frozenset())
    with pytest.raises(PreconditionViolated):
        lv.antichain_check(b2, frozenset({b2.index("1"), b2.index("2")}),
                           frozenset(range(4)))
    with pytest.raises(PreconditionViolated):
        # vanishing Mobius function
        f1 = lv.fig1()
        lv.antichain_check(f1, frozenset({f1.index("4"), f1.index("12"),
                                          f1.index("13"), f1.index("23")}),
                           frozenset())


# ---------------------------------------------------------------------------
# product witness
# ---------------------------------------------------------------------------

def test_product_witness_example():
    b1 = lv.boolean(1)
    fam = frozenset({0 * 2 + 1, 1 * 2 + 0})  # {(0,1), (1,0)}
    j = lv.product_ssp_witness(b1, b1, fam)
    assert j == frozenset({0, 2})  # {(0,0), (1,0)}


def test_product_witness_trivial_families():
    b1 = lv.boolean(1)
    assert lv.product_ssp_witness(b1, b1, frozenset()) == frozenset()
    full = frozenset(range(4))
    assert lv.product_ssp_witness(b1, b1, full) == full


def test_product_witness_requires_ssp_factors():
    with pytest.raises(FactorNotSSP):
        lv.product_ssp_witness(lv.chain(2), lv.boolean(1), frozenset())
    with pytest.raises(FactorNotSSP):
        lv.product_ssp_witness(lv.boolean(1), lv.chain(2), frozenset())


def test_product_witness_random(rng):
    k, l = lv.boolean(2), lv.subspace_lattice(2, 2)
    prod = lv.product(k, l)
    kv = lv.is_ssp(k, "auto")
    lv_ = lv.is_ssp(l, "auto")
    for _ in range(200):
        fam = random_family(prod, rng)
        j = lv.product_ssp_witness(l, k, fam, l_verdict=lv_, k_verdict=kv,
                                   prod=prod)
        assert len(j) >= len(fam)
        for idx in j:
            assert lv.shatters(prod, fam, idx)


# ---------------------------------------------------------------------------
# unique minimal non-shattered element
# ---------------------------------------------------------------------------

def test_one_minimal_b2_example():
    b2 = lv.boolean(2)
    fam = frozenset({b2.index("1"), b2.index("2"), b2.index("12")})
    report = lv.one_minimal_check(b2, fam)
    assert report.x == b2.index("12")
    assert report.y == b2.bottom
    assert report.meets_at_y == {b2.bottom}
    assert report.injection == ((b2.index("12"), b2.bottom),)
    assert report.family_size == 3 == report.shattered_size


def test_one_minimal_full_family_rejected():
    b2 = lv.boolean(2)
    with pytest.raises(NotOneMinimal):
        lv.one_minimal_check(b2, frozenset(range(4)))


def test_one_minimal_fig1():
    f1 = lv.fig1()
    fam = frozenset(range(f1.n)) - {f1.bottom}
    report = lv.one_minimal_check(f1, fam)
    assert report.x == f1.top
    assert report.family_size == 8 == report.shattered_size


def test_one_minimal_requires_rc():
    lat = lv.fig3b()
    fam = frozenset(range(lat.n)) - {lat.index("4")}
    with pytest.raises(NotRC):
        lv.one_minimal_check(lat, fam)


def test_one_minimal_requires_joins():
    v = lv.from_covers(3, None, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice):
        lv.one_minimal_check(v, frozenset({1}))


def test_one_minimal_exhaustive_small_rc(corpus):
    for name in ("b1", "b2", "b3", "pg22", "m3", "fig1"):
        lat = corpus[name]
        meet = oracle_meets(lat)
        assert lv.is_rc(lat) is None
        for fam in all_families(lat):
            sset = lv.shattered_set(lat, fam)
            nset = frozenset(range(lat.n)) - sset
            minimals = [u for u in nset
                        if all(v == u or not lat.leq(v, u) for v in nset)]
            if len(minimals) != 1:
                continue
            report = lv.one_minimal_check(lat, fam)
            assert report.family_size <= report.shattered_size, name
            # injection maps N into D, one-to-one, through complements
            targets = [c for _, c in report.injection]
            assert len(set(targets)) == len(report.not_shattered)
            for a, c in report.injection:
                assert meet[c][report.x] == report.y
                assert lat.up[c] & lat.up[report.x] == lat.up[a]
