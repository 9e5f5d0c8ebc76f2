from fractions import Fraction

import pytest

from mwb.bounds import (TopologyHints, arnoux_marin_min, bagchi_datta_min,
                        bound_report, brehm_kuehnel_bounds, cyclic_f,
                        heawood_min_vertices, kuehnel_4d_check,
                        kuehnel_kalai_bound, kuehnel_triangle_bounds,
                        lbt_check, novik_bounds, surface_f_from_n, ubt_check,
                        walkup_gamma_table, walkup_relation, _h_vector)
from mwb.constructions import boundary_simplex, stack
from mwb.core import FVector, f_vector
from mwb.errors import WrongDimension


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
    non_sphere = TopologyHints(is_sphere=False)
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(5, non_sphere))[
        "non-sphere"] == 12
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(6, non_sphere))[
        "non-sphere"] == 12  # raw bound; 13 only via the projective-plane clause
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(4, non_sphere))[
        "non-sphere"] == 9
    nsc = TopologyHints(simply_connected=False)
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(3, nsc))[
        "non-simply-connected"] == 9
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(2, nsc))[
        "non-simply-connected"] == 6
    conn = TopologyHints(connectivity=2)
    assert dict((b, n) for b, n, _ in brehm_kuehnel_bounds(5, conn))[
        "connected-1-not-2"] == 12


def test_kuehnel_4d_bound():
    assert kuehnel_4d_check(9, 3) == (True, True)
    assert kuehnel_4d_check(16, 24) == (True, True)  # C(12,3) = 220 = 10*22
    assert kuehnel_4d_check(10, 4) == (True, True)
    assert kuehnel_4d_check(11, 4) == (True, False)
    assert kuehnel_4d_check(9, 4) == (False, False)


def test_kuehnel_kalai_specializes_to_heawood():
    for chi in range(2, -8, -1):
        for n in range(4, 14):
            from math import comb
            heawood = comb(n - 3, 2) >= 3 * (2 - chi)
            assert kuehnel_kalai_bound(1, n, chi)[0] == heawood


def test_kuehnel_kalai_cases():
    assert kuehnel_kalai_bound(2, 9, 3) == (True, True)
    assert kuehnel_kalai_bound(3, 15, 3)[0] is True
    assert kuehnel_kalai_bound(4, 15, 3) == (True, True)  # C(9,5) = 126 = 126


def test_kuehnel_triangle_rows():
    # j = 0 row is n >= d+2
    rows = kuehnel_triangle_bounds(5, 7, (0, 0, 0))
    j0 = rows[0]
    assert j0[1] == 0 and j0[2] == 0 and j0[3]
    # first Betti number 1 forces n >= 2d+3 (sharp at 9 for d=3)
    rows = kuehnel_triangle_bounds(3, 9, (0, 1))
    assert rows[1][3] and rows[1][4]
    # sphere product S^3 x S^2: the j=2 bound is sharp at n = 2d+4-i = 12
    rows = kuehnel_triangle_bounds(5, 12, (0, 0, 1))
    assert rows[2][3] and rows[2][4]
    # halved middle bound for even d: torus j=1 row reproduces Heawood at n=7
    rows = kuehnel_triangle_bounds(2, 7, (0, 2))
    assert rows[1][2] == Fraction(6) and rows[1][3] and rows[1][4]


def test_lbt_rows(complexes):
    rows = lbt_check(f_vector(complexes["RP3-11"]), 3)
    k1 = rows[0]
    assert k1[1] == 51 and k1[2] == 34 and k1[3]
    B = boundary_simplex(4)
    rows = lbt_check(f_vector(B), 4)
    assert rows[0][1] == 15 and rows[0][2] == 15 and rows[0][4]
    rows = lbt_check(FVector((5, 10, 10, 5), 0), 3)
    assert rows[-1] == (3, 5, 5, True, True)


def test_lbt_equality_for_stacked_spheres():
    C = boundary_simplex(3)
    for _ in range(4):
        C = stack(C, C.facets[0])
        fv = f_vector(C)
        rows = lbt_check(fv, 3)
        assert rows[0][4], "k=1 equality must hold for stacked spheres"


def test_cyclic_f_vectors():
    assert cyclic_f(3, 9).counts[1] == 36  # 2-neighborly
    assert cyclic_f(3, 6).counts == (6, 15, 18, 9)
    assert cyclic_f(4, 11).counts[:2] == (11, 55)


def test_cyclic_f_satisfies_dehn_sommerville():
    for d, n in ((2, 8), (3, 9), (4, 12), (5, 13), (6, 15)):
        h = _h_vector(cyclic_f(d, n).counts, d)
        assert h == tuple(reversed(h))


def test_ubt_rows(complexes):
    rows = ubt_check(f_vector(complexes["L31-12"]), 3)
    assert all(ok for _, _, _, ok, _ in rows)
    assert rows[0][1] == 66 and rows[0][2] == 66 and rows[0][4]  # f1 sharp


def test_walkup_relation(complexes):
    fv = f_vector(complexes["RP3-11"])
    ok, slack = walkup_relation(fv, walkup_gamma_table()["RP3"].gamma)
    assert ok and slack == 0
    fv = f_vector(complexes["L31-12"])
    ok, slack = walkup_relation(fv, walkup_gamma_table()["L(3,1)"].gamma)
    assert ok and slack == 0
    assert walkup_gamma_table()["L(3,1)"].conjectural
    assert walkup_gamma_table()["S3"].gamma == -10
    assert walkup_gamma_table()["S2xS1"].exceptions == ((9, 36),)
    ok, _ = walkup_relation(FVector((10, 40, 59, 30), 0), 0)
    assert not ok
    with pytest.raises(WrongDimension):
        walkup_relation(FVector((7, 21, 14), 0), 0)


def test_novik_torus_is_sharp():
    rows = novik_bounds(2, 7, (1, 2, 1))
    name, applicable, lhs, rhs, ok, sharp = rows[0]
    assert applicable and ok and sharp and lhs == 6 and rhs == 6


def test_novik_windows():
    rows = novik_bounds(2, 6, (1, 0, 1))
    assert rows[0][1] is True  # n <= 3k+3 = 6
    rows = novik_bounds(4, 10, (1, 0, 2, 0, 1))
    assert rows[0][1] is False  # 9 < 10 < 11: between the stated windows
    assert rows[0][4] is None


def test_novik_odd_dimension(complexes):
    rows = novik_bounds(3, 11, (1, 1, 1, 1))
    name, applicable, lhs, rhs, ok, _ = rows[0]
    assert applicable and ok
    assert lhs == Fraction(2 * 11, 11 + 2 + 2) * 21


def test_surface_f_from_n():
    assert surface_f_from_n(7, 0).counts == (7, 21, 14)
    assert surface_f_from_n(6, 1).counts == (6, 15, 10)


def test_arnoux_marin_and_bagchi_datta():
    assert arnoux_marin_min("RP", 2) == 6
    assert arnoux_marin_min("RP", 4) == 16
    assert arnoux_marin_min("CP", 2) == 9
    assert arnoux_marin_min("CP", 3) == 17
    assert bagchi_datta_min(3) == 12
    with pytest.raises(ValueError):
        bagchi_datta_min(7)


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
    ("s^2 x s^1", "S2xS1")])
def test_walkup_gamma_ignores_case_and_carets(name, table_name):
    # a miss would hold the complex to "gamma >= 8 for all other 3-manifolds"
    e = bound_report(boundary_simplex(3),
                     TopologyHints(known_manifold=name)).entry("walkup-gamma")
    gamma = walkup_gamma_table()[table_name].gamma
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
