import hashlib
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from mwb.bounds import (WALKUP_GAMMA, Facts, TopologyHints, arnoux_marin_min,
                        bound_report, brehm_kuehnel, cyclic_f,
                        heawood_min_vertices, homology_sphere, kuehnel_4d,
                        kuehnel_kalai, kuehnel_triangle, lbt, novik, surface,
                        surface_f_from_n, ubt, walkup)
from mwb.constructions import boundary_simplex, stack
from mwb.core import FVector, from_facets
from mwb.errors import InvalidArgument


def _facts(C, hints=TopologyHints(), **changes):
    """The facts of C under hints, with the named ones replaced."""
    return replace(Facts.of(C, hints), **changes)


def _rows(row, f):
    return {e.bound_id: e for e in row(f)}


def test_heawood_minimum_vertices():
    assert heawood_min_vertices(2) == 4
    assert heawood_min_vertices(1) == 6
    assert heawood_min_vertices(0) == 7
    assert heawood_min_vertices(-2, exceptional=True) == 10
    assert heawood_min_vertices(-10) == 12


def test_heawood_monotone_in_chi():
    values = [heawood_min_vertices(chi) for chi in range(2, -30, -1)]
    assert values == sorted(values)


def test_brehm_kuehnel_lower_bounds():
    def bk(d, n, bound_id, **hints):
        # a d-sphere told the hints, renumbered to n vertices
        f = _facts(boundary_simplex(d), TopologyHints(**hints), n=n)
        return _rows(brehm_kuehnel, f)[bound_id]

    # each bound is sharp at its minimum n
    assert bk(5, 12, "bk-non-sphere", is_sphere=False).sharp
    # raw bound; 13 only via the projective-plane clause
    assert bk(6, 12, "bk-non-sphere", is_sphere=False).sharp
    assert bk(4, 9, "bk-non-sphere", is_sphere=False).sharp
    assert bk(3, 9, "bk-non-simply-connected", simply_connected=False).sharp
    assert bk(2, 6, "bk-non-simply-connected", simply_connected=False).sharp
    assert bk(5, 12, "bk-connectivity", connectivity=2).sharp
    assert not bk(5, 12, "bk-non-sphere").applicable
    [e] = homology_sphere(_facts(boundary_simplex(6),
                                 TopologyHints(is_homology_sphere="Z"), n=15))
    assert e.bound_id == "bk-homology-sphere" and e.sharp  # 2d + 3


def test_kuehnel_4d_bound():
    base = Facts.of(boundary_simplex(4), TopologyHints())

    def flags(n, chi):
        [e] = kuehnel_4d(replace(base, n=n, chi=chi))
        return e.satisfied, e.sharp

    assert flags(9, 3) == (True, True)
    assert flags(16, 24) == (True, True)  # C(12,3) = 220 = 10*22
    assert flags(10, 4) == (True, True)
    assert flags(11, 4) == (True, False)
    assert flags(9, 4) == (False, False)


def test_kuehnel_kalai_specializes_to_heawood(csaszar):
    # on a surface that is not exceptional, the heawood row is k = 1
    base = Facts.of(csaszar, TopologyHints())
    for chi in range(2, -8, -1):
        for n in range(4, 14):
            heawood = comb(n - 3, 2) >= 3 * (2 - chi)
            f = replace(base, n=n, chi=chi, orientable=chi != -2)
            assert _rows(surface, f)["heawood"].satisfied == heawood


def test_kuehnel_kalai_cases():
    base = Facts.of(boundary_simplex(6), TopologyHints())
    [e] = kuehnel_4d(replace(base, d=4, n=9, chi=3))
    assert e.satisfied and e.sharp
    [e] = kuehnel_kalai(replace(base, n=15, chi=3))
    assert e.satisfied and e.conjectural
    [e] = kuehnel_kalai(replace(base, d=8, n=15, chi=3))
    assert e.satisfied and e.sharp  # C(9,5) = 126 = 126


def test_kuehnel_triangle_rows():
    def row(d, n, betti, j):
        f = _facts(boundary_simplex(d), n=n, betti=betti)
        return _rows(kuehnel_triangle, f)[f"kuehnel-triangle-j{j}"]

    # j = 0 row is n >= d+2
    e = row(5, 7, (1, 0, 0, 0, 0, 1), 0)
    assert e.satisfied and e.slack == 0
    # first Betti number 1 forces n >= 2d+3 (sharp at 9 for d=3)
    assert row(3, 9, (1, 1, 1, 1), 1).sharp
    # sphere product S^3 x S^2: the j=2 bound is sharp at n = 2d+4-i = 12
    assert row(5, 12, (1, 0, 1, 1, 0, 1), 2).sharp
    # halved middle bound for even d: torus j=1 row reproduces Heawood at n=7
    e = row(2, 7, (1, 2, 1), 1)
    assert e.sharp and isinstance(e.slack, Fraction)  # C(4,2) * 2 / 2 = 6


def test_lbt_rows(complexes):
    e = _rows(lbt, _facts(complexes["RP3-11"]))["lbt-k1"]
    assert e.satisfied and e.slack == 51 - 34
    e = _rows(lbt, _facts(boundary_simplex(4)))["lbt-k1"]
    assert e.sharp  # f_1 = 15
    f = _facts(boundary_simplex(3), n=5, F=FVector((5, 10, 10, 5), 0))
    e = _rows(lbt, f)["lbt-k3"]
    assert e.satisfied and e.sharp


def test_lbt_on_a_1_dimensional_pseudomanifold():
    # the 3-cycle is a pseudomanifold; the theorem starts in dimension 2
    e = bound_report(from_facets([(1, 2), (2, 3), (1, 3)])).entry("lbt")
    assert (e.applicable, e.notes) == (False, "dimension below 2")


@pytest.mark.parametrize("name", ["", " "])
def test_an_empty_manifold_hint_is_refused(name):
    with pytest.raises(InvalidArgument, match="manifold hint is empty"):
        bound_report(boundary_simplex(3), TopologyHints(known_manifold=name))


def test_lbt_equality_for_stacked_spheres():
    C = boundary_simplex(3)
    for _ in range(4):
        C = stack(C, C.facets[0])
        assert _rows(lbt, _facts(C))["lbt-k1"].sharp, \
            "k=1 equality must hold for stacked spheres"


def test_cyclic_f_vectors():
    assert cyclic_f(3, 9).counts[1] == 36  # 2-neighborly
    assert cyclic_f(3, 6).counts == (6, 15, 18, 9)
    assert cyclic_f(4, 11).counts[:2] == (11, 55)


def _h_vector(counts, d):
    """The h-vector of a d-dimensional f-vector (f_0, ..., f_d)."""
    D = d + 1
    f = (1,) + tuple(counts)
    return tuple(sum((-1) ** (k - i) * comb(D - i, k - i) * f[i]
                     for i in range(k + 1)) for k in range(D + 1))


def test_cyclic_f_satisfies_dehn_sommerville():
    for d, n in ((2, 8), (3, 9), (4, 12), (5, 13), (6, 15)):
        h = _h_vector(cyclic_f(d, n).counts, d)
        assert h == tuple(reversed(h))


def test_ubt_rows(complexes):
    rows = ubt(_facts(complexes["L31-12"]))
    assert all(e.satisfied for e in rows)
    assert rows[0].bound_id == "ubt-k1" and rows[0].sharp  # f1 = 66 = C(12,2)


def test_walkup_relation(complexes):
    for name, hint in (("RP3-11", "RP3"), ("L31-12", "L(3,1)")):
        f = _facts(complexes[name], TopologyHints(known_manifold=hint))
        rows = _rows(walkup, f)
        assert rows["3-manifold-f-relation"].satisfied
        assert rows["walkup-gamma"].satisfied and rows["walkup-gamma"].slack == 0
    assert WALKUP_GAMMA["L(3,1)"].conjectural
    assert WALKUP_GAMMA["S3"].gamma == -10
    f = _facts(boundary_simplex(3), TopologyHints(known_manifold="S2xS1"),
               n=10, F=FVector((10, 40, 59, 30), 0))
    rows = _rows(walkup, f)
    assert not rows["3-manifold-f-relation"].satisfied  # f_2 != 2 f_1 - 2n
    assert rows["walkup-gamma"].slack == 0


def test_novik_torus_is_sharp(csaszar):
    e = _rows(novik, _facts(csaszar))["novik-even-reduced"]
    assert e.applicable and e.satisfied and e.sharp  # C(4,2) = 6 = 3 * 2


def test_novik_windows(csaszar, complexes):
    e = _rows(novik, _facts(csaszar, n=6, betti=(1, 0, 1)))["novik-even-reduced"]
    assert e.applicable  # n <= 3k+3 = 6
    f = _facts(complexes["S2xS2-11"], n=10)  # F_2 Betti numbers (1, 0, 2, 0, 1)
    e = _rows(novik, f)["novik-even-reduced"]
    assert not e.applicable  # 9 < 10 < 11: between the stated windows
    assert e.satisfied is None


def test_novik_odd_dimension(complexes):
    e = _rows(novik, _facts(complexes["RP3-11"]))["novik-odd"]
    assert e.applicable and e.satisfied
    # lhs 2n/(n+k+2) C(n-k-2, k), rhs C(2k-1, k) * 2 b_1
    assert e.slack == Fraction(2 * 11, 11 + 2 + 2) * 21 - 6


def test_surface_f_from_n():
    assert surface_f_from_n(7, 0).counts == (7, 21, 14)
    assert surface_f_from_n(6, 1).counts == (6, 15, 10)


def test_arnoux_marin_and_bagchi_datta():
    assert arnoux_marin_min("RP", 2) == 6
    assert arnoux_marin_min("RP", 4) == 16
    assert arnoux_marin_min("CP", 2) == 9
    assert arnoux_marin_min("CP", 3) == 17
    f = _facts(boundary_simplex(3), TopologyHints(is_homology_sphere="Z2"), n=12)
    [e] = homology_sphere(f)
    assert e.bound_id == "bagchi-datta" and e.sharp  # d + 9


def test_bound_report_catalog_is_clean(complexes, entries):
    for name, C in complexes.items():
        report = bound_report(C, entries[name].hints)
        assert report.violations() == [], f"{name}: {report.to_text()}"


def test_bound_report_named_sharpness(complexes, entries, csaszar):
    r = bound_report(csaszar, entries["csaszar-torus"].hints)
    assert r.entry("heawood").sharp
    r = bound_report(complexes["RP3-11"], entries["RP3-11"].hints)
    assert r.entry("walkup-gamma").sharp and not r.entry("walkup-gamma").conjectural
    r = bound_report(complexes["L31-12"], entries["L31-12"].hints)
    assert r.entry("walkup-gamma").sharp and r.entry("walkup-gamma").conjectural
    assert r.entry("bagchi-datta").sharp  # n = 12 = d + 9
    r = bound_report(complexes["S3xS2-a-12"], entries["S3xS2-a-12"].hints)
    assert r.entry("bk-non-sphere").sharp
    assert r.entry("bk-sphere-product-homology").sharp
    assert r.entry("bk-connectivity").sharp
    r = bound_report(complexes["S3xS3-a-13"], entries["S3xS3-a-13"].hints)
    assert r.entry("bk-sphere-product-homology").sharp


def test_kuehnel_kalai_row_only_where_it_adds_to_proved_rows(complexes, entries,
                                                           csaszar):
    # k = 1 and k = 2 restate the Heawood and the 4-dimensional Kuehnel rows
    r = bound_report(complexes["S2xS2-11"], entries["S2xS2-11"].hints)
    ids = {e.bound_id for e in r.entries}
    assert "kuehnel-4d" in ids and "kuehnel-kalai" not in ids
    r = bound_report(csaszar, entries["csaszar-torus"].hints)
    ids = {e.bound_id for e in r.entries}
    assert "heawood" in ids and "kuehnel-kalai" not in ids
    r = bound_report(complexes["S3xS3-a-13"], entries["S3xS3-a-13"].hints)
    assert r.entry("kuehnel-kalai").conjectural


def test_ubt_not_applicable_beyond_its_betti_range(csaszar, complexes, entries):
    # the torus has more edges than the cyclic 3-polytope; the stated Betti
    # condition must exclude it rather than flag a violation
    r = bound_report(csaszar, entries["csaszar-torus"].hints)
    assert not r.entry("ubt").applicable
    r = bound_report(complexes["S2xS2-11"], entries["S2xS2-11"].hints)
    assert not r.entry("ubt").applicable
    r = bound_report(complexes["S3twS1-12"], entries["S3twS1-12"].hints)
    assert r.entry("ubt-k1").applicable and r.entry("ubt-k1").satisfied


def test_bound_report_serialization(complexes, entries):
    r = bound_report(complexes["RP3-11"], entries["RP3-11"].hints)
    text = r.to_text()
    kv = r.to_kv()
    assert "walkup-gamma" in text and "sharp" in text
    assert any(line.startswith("bound=walkup-gamma") for line in kv.splitlines())
    assert "satisfied=True" in kv


@pytest.mark.parametrize("name, table_name", [
    ("s3", "S3"), ("S^3", "S3"), ("rp3", "RP3"), ("RP^3", "RP3"),
    ("s^2 x s^1", "S2xS1"), ("\trp 3\n", "RP3")])
def test_walkup_gamma_ignores_case_and_carets(name, table_name):
    # a miss would hold the complex to "gamma >= 8 for all other 3-manifolds"
    e = bound_report(boundary_simplex(3),
                     TopologyHints(known_manifold=name)).entry("walkup-gamma")
    gamma = WALKUP_GAMMA[table_name].gamma
    assert e.notes == f"gamma({table_name})={gamma}"


def test_projective_hint_names_ignore_case(complexes):
    C = complexes["RP3-11"]
    assert bound_report(C, TopologyHints(known_manifold="rp^3")).to_kv() == \
        bound_report(C, TopologyHints(known_manifold="RP^3")).to_kv()
    e = bound_report(C, TopologyHints(known_manifold="rp^3")).entry("arnoux-marin")
    assert e.applicable and e.sharp


@pytest.mark.parametrize("hint", ["RP^4", "CP^2", "RP3", None])
def test_arnoux_marin_row_is_always_present(complexes, hint):
    report = bound_report(complexes["RP3-11"], TopologyHints(known_manifold=hint))
    e = report.entry("arnoux-marin")
    assert not e.applicable
    if hint in ("RP^4", "CP^2"):
        assert e.notes == f"{hint} is not 3-dimensional"


@pytest.mark.parametrize("i, note", [
    (None, "no connectivity hint"),
    (0, "connectivity hint 0 outside 1 <= i < d/2"),
    (1, ""),
    (2, "connectivity hint 2 outside 1 <= i < d/2")])
def test_connectivity_hint_outside_its_range_is_named(complexes, i, note):
    # d = 3, so the Brehm-Kuehnel connectivity bound takes only i = 1
    C = complexes["RP3-11"]
    applicable = {x.bound_id for x in bound_report(C).entries if x.applicable}
    r = bound_report(C, TopologyHints(connectivity=i))
    e = r.entry("bk-connectivity")
    assert {x.bound_id for x in r.entries if x.applicable} == (
        applicable | {"bk-connectivity"} if i == 1 else applicable)
    assert e.applicable == (i == 1) and e.notes == note
    if i == 1:
        assert e.satisfied and e.slack == 2


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_catalog_reports_are_pinned(entries, complexes):
    reports = [bound_report(complexes[name], e.hints) for name, e in entries.items()]
    assert _sha256(r.to_kv() for r in reports) == \
        "def987c5d548da269e10a88f6ea4fc781d877af1ab43b53c214b262e0fe418c9"
    assert _sha256(r.to_text() for r in reports) == \
        "bf8b6b9ac2d69417f88fbaddffe23ea31973be2572aaa4150cf6077eefe7056e"


HINT_MATRIX = (
    [TopologyHints(), TopologyHints(is_sphere=False),
     TopologyHints(simply_connected=False)]
    + [TopologyHints(connectivity=i) for i in (1, 2, 3)]
    + [TopologyHints(is_homology_sphere=z) for z in ("Z", "Z2")]
    + [TopologyHints(known_manifold=m) for m in (
        "S3", "s^3", "RP3", "L(3,1)", "T3", "S2xS1", "Poincare", "RP^3",
        "RP^4", "CP^2")])


def test_hint_matrix_reports_are_pinned(complexes, csaszar):
    pool = [complexes[name] for name in
            ("RP3-11", "L31-12", "S2xS2-11", "S3xS2-a-12")]
    pool += [boundary_simplex(3), csaszar]
    lines = []
    for C in pool:
        for hints in HINT_MATRIX:
            r = bound_report(C, hints)
            lines += [r.to_text(), r.to_kv()]
    assert _sha256(lines) == \
        "e575ca13da0d48884a1662df3b27c31e8261c21c9e77a3ad02aa035fd58379d6"
