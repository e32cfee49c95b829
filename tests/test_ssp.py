import hashlib

import pytest

import latticevc as lv
from latticevc import ssp
from latticevc.errors import (
    FactorNotSSP,
    NotALattice,
    NotMaximalAntichain,
    NotOneMinimal,
    NotRC,
    PreconditionViolated,
)

from conftest import naive_shattered_set, naive_violating_families, random_family


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


def test_path_auto_violated():
    verdict = lv.is_ssp(lv.chain(2), "auto")
    assert verdict.outcome == ssp.VIOLATED
    assert verdict.witness == {1, 2}


def test_path_certificate_inconclusive():
    verdict = lv.is_ssp(lv.chain(2), "certificate")
    assert verdict.outcome == ssp.INCONCLUSIVE


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
# budgets that stop it before, inside and after each branch, together with
# the oracle's full violating-family lists
FAMILY_SEARCH_SHA256_N7 = (
    "97170881e317525a6f4c6ef098c1acc94a41e2d38d3d67e35ac2c78ca421de8d")


def test_family_search_deterministic():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            for b in (0, 1, 2, 3, 5, 17, 100, (1 << n) - 1, 1 << n):
                v = lv.is_ssp(lat, "brute", budget=b)
                w = None if v.witness is None else sorted(v.witness)
                digest.update(repr((v.outcome, v.certificate_kind, w,
                                    v.families_examined)).encode())
            digest.update(repr([sorted(f) for f in
                                naive_violating_families(lat)]).encode())
    assert digest.hexdigest() == FAMILY_SEARCH_SHA256_N7


def test_in_process_search_stops_at_first_witness(monkeypatch):
    # the first branch of chain:1 x fig3b holds a witness; no later branch
    # runs
    lat = lv.product(lv.chain(1), lv.fig3b())
    calls = []
    scan = ssp._scan_branch

    def counting(lattice, first, quota):
        calls.append(first)
        return scan(lattice, first, quota)

    monkeypatch.setattr(ssp, "_scan_branch", counting)
    verdict = lv.is_ssp(lat, "brute")
    assert (verdict.outcome, verdict.families_examined) == (ssp.VIOLATED, 54)
    assert calls == [0]


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
                assert lat.meet[c][report.x] == report.y
                assert lat.join[c][report.x] == a
