"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
lines).  Every check is exact; the stated wall-clock bounds are asserted
too.
"""

import random
import time
from itertools import combinations

import latticevc as lv
from latticevc import cli, ssp
from conftest import (
    naive_violating_families,
    oracle_lattice_count,
    oracle_meets,
)


def _report(num, elapsed, detail):
    print(f"ACCEPTANCE criterion {num}: PASS ({elapsed:.2f}s) {detail}")


def all_families(lattice):
    for code in range(1 << lattice.n):
        yield frozenset(i for i in range(lattice.n) if (code >> i) & 1)


def max_family_size_by_vc(lattice):
    """Largest family size per VC dimension, over every non-empty family."""
    n = lattice.n
    meet = oracle_meets(lattice)
    groups = []
    for y in sorted(range(n), key=lambda y: -lattice.rank[y]):
        masks = []
        for x in range(n):
            if lattice.leq(x, y):
                m = 0
                for z in range(n):
                    if meet[z][y] == x:
                        m |= 1 << z
                masks.append(m)
        groups.append((lattice.rank[y], masks))
    best = {}
    for fam in range(1, 1 << n):
        vc = None
        for r, masks in groups:
            ok = True
            for m in masks:
                if not fam & m:
                    ok = False
                    break
            if ok:
                vc = r
                break
        size = fam.bit_count()
        if size > best.get(vc, 0):
            best[vc] = size
    return best


def vc_of_mask(lattice, groups, fam_mask):
    for r, masks in groups:
        ok = True
        for m in masks:
            if not fam_mask & m:
                ok = False
                break
        if ok:
            return r
    return None


def test_criterion_01_figure_reproduction():
    t0 = time.perf_counter()
    f1, f2 = lv.fig1(), lv.fig2()
    assert lv.mobius_table(f1).mu(f1.bottom, f1.top) == 0
    assert lv.mobius_table(f2).mu(f2.bottom, f2.top) == 0
    assert lv.is_rc(f1) is None and lv.is_rc(f2) is None

    t1 = time.perf_counter()
    verdict = lv.is_ssp(f1, "brute")
    assert verdict.outcome == ssp.CERTIFIED
    assert verdict.certificate_kind == ssp.CERT_BRUTE
    assert verdict.families_examined == 512
    assert time.perf_counter() - t1 < 1.0

    t2 = time.perf_counter()
    verdict = lv.is_ssp(f2, "certificate")
    assert verdict.outcome == ssp.CERTIFIED
    assert verdict.certificate_kind == ssp.CERT_RC_ONCE
    assert lv.vanishing_pairs(f2) == [(f2.bottom, f2.top)]
    assert time.perf_counter() - t2 < 1.0
    _report(1, time.perf_counter() - t0,
            "mu(0,top)=0 on both figures; brute 512 families; RC certificate")


def test_criterion_02_path_lattice():
    t0 = time.perf_counter()
    c2 = lv.chain(2)
    fam = frozenset({1, 2})
    assert lv.shattered_set(c2, fam) == {0}
    assert lv.vc_dim(c2, fam) == 0
    assert len(fam) == 2 > lv.count_up_to(c2, 0) == 1
    import io
    out = io.StringIO()
    code = cli.run(["ssp", "chain:2"], out=out)
    assert code == 1
    assert out.getvalue().startswith("Violated")
    _report(2, time.perf_counter() - t0,
            "Str({1,2})={0}, VC=0, |F|=2 > 1; CLI reports Violated")


def test_criterion_03_fig3b_violating_families():
    t0 = time.perf_counter()
    lat = lv.fig3b()
    full = frozenset(range(lat.n))
    expected = {full - {lat.index("4")}, full - {lat.index("5")}}
    got = naive_violating_families(lat)  # exhaustive over 2^11 families
    assert set(got) == expected
    for fam in got:
        assert lv.shatters(lat, fam, lat.index("12"))
        assert lv.vc_dim(lat, fam) == 2
    assert lv.count_up_to(lat, 2) == 10 == lat.n - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, elapsed, "violators are exactly L\\{4}, L\\{5}; both VC 2")


def test_criterion_04_tightness():
    t0 = time.perf_counter()
    cases = [lv.boolean(3), lv.boolean(4), lv.subspace_lattice(2, 3)]
    for lat in cases:
        top_rank = max(lat.rank)
        for d in range(top_rank + 1):
            layer = frozenset(x for x in range(lat.n) if lat.rank[x] <= d)
            assert len(layer) == lv.count_up_to(lat, d)
            assert lv.vc_dim(lat, layer) == d

    # exhaustive search over all families of B_3 and B_4
    for lat in (lv.boolean(3), lv.boolean(4)):
        best = max_family_size_by_vc(lat)
        for d, size in best.items():
            assert size <= lv.count_up_to(lat, d), (lat.n, d)

    # F_2^3: exhausting 2^16 families per dimension bound is replaced by
    # the spanning certificate (nonvanishing Mobius function makes every
    # family satisfy |F| <= |Str(F)|, hence the layer bound), plus a
    # 100000-family random sample checked directly
    pg = lv.subspace_lattice(2, 3)
    assert lv.vanishing_pairs(pg) == []
    meet = oracle_meets(pg)
    groups = []
    for y in sorted(range(pg.n), key=lambda y: -pg.rank[y]):
        masks = []
        for x in range(pg.n):
            if pg.leq(x, y):
                m = 0
                for z in range(pg.n):
                    if meet[z][y] == x:
                        m |= 1 << z
                masks.append(m)
        groups.append((pg.rank[y], masks))
    rng = random.Random(1234)
    upto = [lv.count_up_to(pg, d) for d in range(4)]
    for _ in range(100_000):
        fam_mask = rng.randrange(1, 1 << pg.n)
        vc = vc_of_mask(pg, groups, fam_mask)
        assert fam_mask.bit_count() <= upto[vc]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, elapsed,
            "layer families tight on B_3, B_4, F_2^3; no family beats the bound")


def test_criterion_05_certificate_soundness():
    t0 = time.perf_counter()
    for lat in (lv.boolean(3), lv.subspace_lattice(2, 2)):
        table = lv.mobius_table(lat)
        for fam in all_families(lat):
            sset = lv.shattered_set(lat, fam)
            assert len(sset) >= len(fam)
            assert lv.spanning_certificate(lat, fam) == len(fam)
            for z in range(lat.n):
                if z not in sset:
                    cert = lv.elimination(lat, fam, z, table=table)
                    assert cert.verify(lat, fam)
    _report(5, time.perf_counter() - t0,
            "spanning rank equals |F| exhaustively; all eliminations verify")


def test_criterion_06_qbinom():
    t0 = time.perf_counter()
    for q in (2, 3):
        for n in range(1, 6):
            for d in range(n + 1):
                assert lv.qbinom_bounds_check(n, d, q), (q, n, d)
    for q, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        lat = lv.subspace_lattice(q, n)
        for d in range(n + 1):
            assert lv.count_by_rank(lat, d) == lv.qbinom(n, d, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, elapsed, "layer bounds and subspace counts agree exactly")


def test_criterion_07_critical_family():
    t0 = time.perf_counter()
    lat, fam = lv.critical_family(2, 3)
    assert len(fam) == 6 == 2 ** 2 + 2
    assert lv.vc_dim(lat, fam) == 1
    absent = [x for x in range(lat.n) if x not in fam]
    assert len(absent) == 10
    for extra in absent:
        assert lv.vc_dim(lat, fam | {extra}) >= 2
    assert lv.count_up_to(lat, 1) == 8 == 1 + (2 ** 3 - 1) // (2 - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, elapsed, "6-member family, VC 1, inclusion-maximal")


def test_criterion_08_product_ssp():
    t0 = time.perf_counter()
    ssp_lattices = []
    for n in range(1, 6):
        for lat in lv.enumerate_lattices(n):
            verdict = lv.is_ssp(lat, "brute")
            assert verdict.outcome != ssp.INCONCLUSIVE
            if verdict.outcome == ssp.CERTIFIED:
                ssp_lattices.append((lat, verdict))
    assert [lat.n for lat, _ in ssp_lattices] == [1, 2, 4, 5]

    rng = random.Random(97531)
    pairs = [(a, b) for i, a in enumerate(ssp_lattices)
             for b in ssp_lattices[i:]]
    for (ka, va), (lb, vb) in pairs:
        prod = lv.product(ka, lb)
        if (1 << prod.n) <= (1 << 20):
            verdict = lv.is_ssp(prod, "brute", budget=1 << 20)
            assert verdict.outcome == ssp.CERTIFIED, prod.n
        for _ in range(1000):
            fam = frozenset(i for i in range(prod.n) if rng.random() < 0.5)
            j = lv.product_ssp_witness(lb, ka, fam, l_verdict=vb,
                                       k_verdict=va, prod=prod)
            assert len(j) >= len(fam)
            for idx in j:
                assert lv.shatters(prod, fam, idx)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(8, elapsed,
            f"{len(pairs)} products brute-checked; 1000 witnesses each verified")


def test_criterion_09_one_minimal():
    t0 = time.perf_counter()
    corpus = [lv.boolean(1), lv.boolean(2), lv.boolean(3),
              lv.subspace_lattice(2, 2), lv.fig1()]
    applicable = 0
    for lat in corpus:
        assert lat.n <= 12
        assert lv.is_rc(lat) is None
        meet = oracle_meets(lat)
        for fam in all_families(lat):
            sset = lv.shattered_set(lat, fam)
            nset = frozenset(range(lat.n)) - sset
            minimals = [u for u in nset
                        if all(v == u or not lat.leq(v, u) for v in nset)]
            if len(minimals) != 1:
                continue
            applicable += 1
            report = lv.one_minimal_check(lat, fam)
            assert report.family_size <= report.shattered_size
            targets = set()
            for a, c in report.injection:
                assert meet[c][report.x] == report.y
                assert lat.up[c] & lat.up[report.x] == lat.up[a]
                assert c in report.meets_at_y
                targets.add(c)
            assert len(targets) == len(report.not_shattered)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, elapsed,
            f"{applicable} applicable families, all injections verified")


def test_criterion_10_conjecture_scan():
    t0 = time.perf_counter()
    reports = lv.conjecture_scan(10)
    for r in reports:
        assert r.counterexamples == ()
        assert r.inconclusive == 0
        assert r.agreements == r.total_lattices
        assert r.ssp_count <= r.rc_count
    # every non-RC lattice is falsified through the interval family
    for n in range(1, 8):
        for lat in lv.enumerate_lattices(n):
            w = lv.is_rc(lat)
            if w is not None:
                fam = lv.non_rc_family(lat, w)
                assert len(lv.shattered_set(lat, fam)) < len(fam)
    # independent labeled-poset oracle for the counts
    for n in range(1, 6):
        assert reports[n - 1].total_lattices == oracle_lattice_count(n)
    # OEIS A006966
    assert [r.total_lattices for r in reports] == \
        [1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(10, elapsed, "zero disagreements through n=10; counts match oracle")


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    from conftest import build_corpus
    corpus = build_corpus()
    rng = random.Random(8642)

    # Mobius inversion on 100 random integer functions per corpus lattice
    for lat in corpus.values():
        table = lv.mobius_table(lat)
        for _ in range(100):
            g = [rng.randrange(-100, 101) for _ in range(lat.n)]
            assert lv.check_inversion(lat, g, table)

    # hereditary shattering, exhaustive at <= 12 elements
    for lat in corpus.values():
        if lat.n > 12:
            continue
        for fam in all_families(lat):
            sset = lv.shattered_set(lat, fam)
            for y in sset:
                assert lat.downset(y) <= sset

    # characteristic rows are unitriangular in any linear extension
    for lat in corpus.values():
        m = lv.char_rows(lat, lat.linext, lat.linext)
        for i in range(lat.n):
            assert m[i][i] == 1
            assert not any(m[i][:i])
        assert lv.basis_check(lat)

    # Weisner signs on every geometric lattice built here
    free3 = lv.MatroidSpec.make(
        3, [s for d in range(4) for s in combinations(range(3), d)])
    geometric = [lv.boolean(2), lv.boolean(3), lv.boolean(4),
                 lv.subspace_lattice(2, 2), lv.subspace_lattice(2, 3),
                 lv.subspace_lattice(2, 4), lv.subspace_lattice(3, 2),
                 lv.subspace_lattice(3, 3), lv.from_matroid(free3),
                 corpus["m3"]]
    for lat in geometric:
        assert lv.weisner_check(lat)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(11, elapsed,
            "inversion, hereditary Str, unitriangularity, Weisner signs")
