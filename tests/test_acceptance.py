"""Acceptance gates: every criterion prints its own PASS line and pins the
published value it reproduces, exactly (integers) unless stated otherwise."""
import hashlib
import os
import time
from dataclasses import replace

import pytest

from mwb import catalog
from mwb.bounds import (EXCEPTIONAL_SURFACES, Facts, TopologyHints,
                        bound_report, brehm_kuehnel, heawood_min_vertices,
                        kuehnel_4d)
from mwb.census import SurfaceClass, enumerate_spheres, enumerate_surfaces
from mwb.constructions import boundary_simplex, product, twisted_bundle
from mwb.core import f_vector, from_facets, is_pseudomanifold, relabeled
from mwb.flips import (Schedule, SplitMix64, _State, random_walk, reduce,
                       replay)
from mwb.homology import homology
from mwb.iso import are_isomorphic, as_determinant, as_link_determinants, \
    automorphism_group, canonical_form
from mwb.core import is_k_neighborly
from mwb.realization import realization_check
from mwb.tri_io import write_trace

S2 = SurfaceClass(True, 0, 2)
T2 = SurfaceClass(True, 1, 0)
RP2 = SurfaceClass(False, 1, 1)
K2 = SurfaceClass(False, 2, 0)
M = SurfaceClass

TABLE_SURFACES = {
    4: {S2: 1},
    5: {S2: 1},
    6: {S2: 2, RP2: 1},
    7: {S2: 5, T2: 1, RP2: 3},
    8: {S2: 14, T2: 7, RP2: 16, K2: 6},
    9: {S2: 50, T2: 112, RP2: 134, K2: 187, M(False, 3, -1): 133,
        M(False, 4, -2): 37, M(False, 5, -3): 2},
}
TABLE_SURFACES_10 = {
    S2: 233, T2: 2109, M(True, 2, -2): 865, M(True, 3, -4): 20,
    RP2: 1210, K2: 4462, M(False, 3, -1): 11784, M(False, 4, -2): 13657,
    M(False, 5, -3): 7050, M(False, 6, -4): 1022, M(False, 7, -5): 14,
}


def test_heawood_bound_is_met_by_the_published_tables():
    # an independent oracle: the least n at which each class appears in the
    # published census equals the least n the heawood row admits
    first = {}
    for n, counts in sorted(TABLE_SURFACES.items()) + [(10, TABLE_SURFACES_10)]:
        for sc in counts:
            first.setdefault(sc, n)
    assert first[K2] == 8 and first[M(False, 3, -1)] == 9
    assert first[M(True, 2, -2)] == 10
    for sc, n in first.items():
        exceptional = (sc.chi, sc.orientable) in EXCEPTIONAL_SURFACES
        assert heawood_min_vertices(sc.chi, exceptional) == n, sc


def test_acceptance_1_catalog_verification(complexes, entries):
    start = time.time()
    for name, ok, detail in catalog.verify_catalog():
        assert ok, f"{name}: {detail}"
    C = complexes["RP3-11"]
    assert f_vector(C).counts == (11, 51, 80, 40)
    assert str(homology(C)) == "(Z, Z_2, 0, Z)"
    dets = sorted(as_link_determinants(C))
    assert dets == [0] + [12096] * 4 + [41616] * 6
    assert automorphism_group(C).order == 48

    C = complexes["L31-12"]
    assert f_vector(C).counts == (12, 66, 108, 54)
    assert str(homology(C)) == "(Z, Z_3, 0, Z)"
    assert automorphism_group(C).order == 6

    C = complexes["S2xS2-11"]
    assert f_vector(C).counts == (11, 55, 150, 170, 68)
    assert str(homology(C)) == "(Z, 0, Z^2, 0, Z)"
    assert f_vector(C).euler == 4

    C = complexes["S3twS1-12"]
    assert f_vector(C).counts == (12, 60, 120, 120, 48)
    assert str(homology(C)) == "(Z, Z, 0, Z_2, 0)"

    C = complexes["S3xS2-a-12"]
    assert f_vector(C).counts == (12, 66, 220, 390, 336, 112)
    assert as_determinant(C) == 4471184572226676864

    C = complexes["S3xS3-a-13"]
    assert f_vector(C).counts == (13, 78, 286, 715, 1014, 728, 208)
    assert is_k_neighborly(C, 4)
    assert as_determinant(C) == 745714154823444619853824

    e = entries["csaszar-torus"]
    C = complexes["csaszar-torus"]
    assert f_vector(C).counts == (7, 21, 14)
    assert is_k_neighborly(C, 2)
    assert str(homology(C)) == "(Z, Z^2, Z)"
    assert realization_check(C, e.load_coordinates()).valid

    elapsed = time.time() - start
    assert elapsed < 60, f"catalog verification took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1 (catalog verification, {elapsed:.1f}s): PASS")


def test_acceptance_2_census_counts():
    start = time.time()
    for n, expected in TABLE_SURFACES.items():
        got = enumerate_surfaces(n).counts
        assert got == expected, f"n={n}: {got}"
    assert enumerate_spheres(11) == 1249
    assert enumerate_spheres(12) == 7595
    print(f"\nACCEPTANCE 2 (census counts, {time.time()-start:.0f}s): PASS")


@pytest.mark.skipif(not os.environ.get("MW_RUN_SLOW"),
                    reason="optional n=10 gate (~1 min); set MW_RUN_SLOW=1")
def test_acceptance_2_optional_census_n10():
    assert enumerate_surfaces(10).counts == TABLE_SURFACES_10
    print("\nACCEPTANCE 2b (optional n=10 census): PASS")


@pytest.mark.skipif(not os.environ.get("MW_RUN_SLOW"),
                    reason="optional: the published 11-vertex minimum (~10 s)")
def test_acceptance_3_optional_reaches_the_published_minimum():
    from mwb.flips import reduce_multi
    P = product(boundary_simplex(2), boundary_simplex(2))
    best, seed, trace, stats = reduce_multi(P, range(1, 17), 500_000,
                                            Schedule(target_f0=11))
    assert f_vector(best).counts == (11, 55, 150, 170, 68)
    assert str(homology(best)) == "(Z, 0, Z^2, 0, Z)"
    print("\nACCEPTANCE 3b (published 11-vertex minimum): PASS")


def test_acceptance_3_flip_reduction():
    start = time.time()
    P = product(boundary_simplex(2), boundary_simplex(2))
    assert P.n == 16
    expected_h = homology(P)
    assert str(expected_h) == "(Z, 0, Z^2, 0, Z)"
    schedule = Schedule(target_f0=12)
    winner = None
    for seed in range(1, 17):
        best, trace, stats = reduce(P, seed=seed, budget=500_000,
                                    schedule=schedule)
        if f_vector(best).counts[0] <= 12:
            winner = (seed, best, trace)
            break
    assert winner is not None, "no seed reached 12 vertices"
    s2_seed, best, trace = winner
    # bit-identical trace (also pinned in bench/fingerprints.json); 8,523
    # of its moves are the inverse moves of the 21 reverts
    assert hashlib.sha256(write_trace(trace).encode()).hexdigest() == \
        "6201f5f7f36542d6312a78e38a71ac91756f8825c3eaf387b5bd2495e01f0e29"
    assert s2_seed == 1
    assert (stats["moves"], stats["reverts"], stats["heating_phases"]) == \
        (18_225, 21, 78)
    assert homology(best) == expected_h
    # the prefixes from one state carried along the trace, whose moves the
    # full replay below checks
    every = max(2000, len(trace) // 8)
    state, done = _State(P), 0
    for k in [*range(every, len(trace) + 1, every), len(trace)]:
        for m in trace[done:k]:
            state.apply(m)
        done = k
        cp = from_facets(state.snapshot())
        assert homology(cp) == expected_h
        assert is_pseudomanifold(cp)
    assert replay(P, trace) == cp

    tb = twisted_bundle(3)
    expected_h = homology(tb)
    schedule = Schedule(target_f=(9, 36, 54, 27))
    hit = None
    for seed in range(1, 17):
        best, trace, stats = reduce(tb, seed=seed, budget=500_000,
                                    schedule=schedule)
        if f_vector(best).counts == (9, 36, 54, 27):
            hit = best
            break
    assert hit is not None, "no seed reached (9, 36, 54, 27)"
    # seed 1 hits; its trace is also pinned in bench/fingerprints.json
    assert seed == 1
    assert hashlib.sha256(write_trace(trace).encode()).hexdigest() == \
        "aba87c9aef520c2c8ab7e406c44bd3cbd87b2c8c7735d53fb02f423031c9817b"
    assert homology(hit) == expected_h
    elapsed = time.time() - start
    assert elapsed < 900, f"flip reduction took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 3 (flip reduction, S2xS2 seed {s2_seed}, "
          f"{elapsed:.0f}s): PASS")


def test_acceptance_4_bound_suite(complexes, entries):
    for name, C in complexes.items():
        report = bound_report(C, entries[name].hints)
        bad = report.violations()
        assert not bad, f"{name}: {[e.bound_id for e in bad]}"
    # sharpness fires exactly where equality is asserted
    r = bound_report(complexes["csaszar-torus"], entries["csaszar-torus"].hints)
    assert r.entry("heawood").sharp
    sphere_4 = Facts.of(boundary_simplex(4), TopologyHints(is_sphere=False))
    bk = {e.bound_id: e for e in brehm_kuehnel(replace(sphere_4, n=9))}
    assert bk["bk-non-sphere"].sharp  # the 9-vertex complex projective plane
    r = bound_report(complexes["RP3-11"], entries["RP3-11"].hints)
    walkup = r.entry("walkup-gamma")
    assert walkup.sharp and walkup.satisfied and not walkup.conjectural
    [e] = kuehnel_4d(replace(sphere_4, n=16, chi=24))
    assert e.satisfied and e.sharp  # C(12,3) = 220 = 10*22
    print("\nACCEPTANCE 4 (bound suite): PASS")


WALK_ENTRIES = ("csaszar-torus", "RP3-11", "L31-12", "S2xS2-11", "S3twS1-12")


def test_acceptance_5_property_suites(complexes):
    start = time.time()
    # 1000-move random flip walks preserve homology, chi, pseudomanifoldness
    for i, name in enumerate(WALK_ENTRIES):
        C = complexes[name]
        H = homology(C)
        chi = f_vector(C).euler
        walked, trace = random_walk(C, seed=1000 + i, steps=1000)
        assert len(trace) == 1000
        assert is_pseudomanifold(walked)
        assert homology(walked) == H
        assert f_vector(walked).euler == chi

    # canonical form is invariant under 100 random relabelings per entry
    rng = SplitMix64(2024)
    for name, C in complexes.items():
        base = canonical_form(C)[0]
        for _ in range(100):
            perm = list(C.vertices())
            for i in range(len(perm) - 1, 0, -1):
                j = rng.randrange(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            assert canonical_form(relabeled(C, perm))[0] == base

    # a relabeled-then-flipped variant separates until the flip is reversed;
    # the minimal S3xS2 admits no proper flip at all, so the perturbation
    # there is a stacking, and a proper 1-move exercises the d=4 bundle
    from mwb.flips import FlipMove, apply_move, legal_moves

    def shuffle(C):
        perm = list(C.vertices())
        for i in range(len(perm) - 1, 0, -1):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return relabeled(C, perm)

    C = complexes["S3xS2-a-12"]
    assert all(legal_moves(C, k) == [] for k in range(1, 6))
    shuffled = shuffle(C)
    move = legal_moves(shuffled, 0)[0]
    flipped = apply_move(shuffled, move)
    assert not are_isomorphic(C, flipped)
    restored = apply_move(flipped, FlipMove(5, move.insert, move.remove))
    assert are_isomorphic(C, restored)

    C = complexes["S3twS1-12"]
    shuffled = shuffle(C)
    move = legal_moves(shuffled, 1)[0]
    flipped = apply_move(shuffled, move)
    assert flipped.n == C.n
    assert not are_isomorphic(C, flipped)
    restored = apply_move(flipped, FlipMove(3, move.insert, move.remove))
    assert are_isomorphic(C, restored)
    print(f"\nACCEPTANCE 5 (property suites, {time.time()-start:.0f}s): PASS")
