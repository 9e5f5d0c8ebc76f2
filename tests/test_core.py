import itertools
import pickle
import re

import pytest

from mwb.bounds import (arnoux_marin_min, bound_report, cyclic_f,
                        heawood_min_vertices)
from mwb.census import enumerate_surfaces
from mwb.constructions import boundary_simplex, interval, suspension
from mwb.core import (FACE_CAP, ManifoldVerdict, check_face_cap, f_vector,
                      from_facets, is_combinatorial_manifold, is_k_neighborly,
                      is_pseudomanifold, link, process_map, relabeled, star)
from mwb.errors import (BudgetZero, CapExceeded, InvalidArgument, NotAFace,
                        NotPure, UnsupportedDimension)
import mwb.homology
from mwb.homology import boundary_matrix, homology
from mwb.iso import as_determinant


def test_from_facets_triangle_boundary():
    C = from_facets([[1, 2], [2, 3], [1, 3]])
    assert C.dim == 1 and C.n == 3 and len(C.facets) == 3


def test_from_facets_canonicalizes_labels_and_dedupes():
    C = from_facets([[10, 40], [40, 22], (22, 10), (40, 22)])
    assert C.n == 3
    assert C.facets == ((1, 2), (1, 3), (2, 3))
    assert C.source_labels == (10, 22, 40)


def test_from_facets_rejects_mixed_dimensions():
    with pytest.raises(NotPure):
        from_facets([[1, 2, 3], [4, 5]])


def test_from_facets_rejects_degenerate_input():
    with pytest.raises(NotPure):
        from_facets([[1, 2, 2]])
    with pytest.raises(UnsupportedDimension):
        from_facets([])
    with pytest.raises(UnsupportedDimension):
        from_facets([[1], [2]])


def test_from_facets_idempotent(complexes):
    for C in complexes.values():
        again = from_facets(C.facets)
        assert again == C


def test_f_vector_boundary_simplex():
    fv = f_vector(boundary_simplex(3))
    assert fv.counts == (5, 10, 10, 5)
    assert fv.euler == 0


def test_f_vector_catalog(complexes, entries):
    for name, C in complexes.items():
        fv = f_vector(C)
        assert fv.counts == entries[name].expected_f
        assert fv.euler == entries[name].expected_chi


def test_link_of_vertex_in_boundary_simplex():
    C = boundary_simplex(2)
    L = link(C, (1,))
    assert L == from_facets([[1, 2], [2, 3], [1, 3]])


def test_link_of_vertex_11_in_rp3(complexes):
    L = link(complexes["RP3-11"], (11,))
    assert L.dim == 2
    assert is_pseudomanifold(L)
    assert f_vector(L).euler == 2
    assert as_determinant(L) == 0


def test_link_of_vertex_1_in_csaszar_is_a_hexagon(csaszar):
    L = link(csaszar, (1,))
    assert L.source_labels == (2, 3, 4, 5, 6, 7)
    ambient = sorted(tuple(L.source_labels[v - 1] for v in F) for F in L.facets)
    assert ambient == [(2, 3), (2, 4), (3, 7), (4, 5), (5, 6), (6, 7)]


def test_link_star_duality(complexes):
    C = complexes["RP3-11"]
    F = C.facets[0][:2]
    S = star(C, F)
    L = link(C, F)
    for G in S.facets:
        amb = tuple(S.source_labels[v - 1] for v in G)
        assert set(F) <= set(amb)
    star_amb = {tuple(S.source_labels[v - 1] for v in G) for G in S.facets}
    link_amb = {tuple(L.source_labels[v - 1] for v in G) for G in L.facets}
    assert link_amb == {tuple(sorted(set(G) - set(F))) for G in star_amb}


def test_link_requires_a_face(csaszar):
    with pytest.raises(NotAFace):
        link(csaszar, (1, 99))


def test_pseudomanifold_rp3_brute_force(complexes):
    C = complexes["RP3-11"]
    assert is_pseudomanifold(C)
    degrees = {}
    for F in C.facets:
        for R in itertools.combinations(F, 3):
            degrees[R] = degrees.get(R, 0) + 1
    assert set(degrees.values()) == {2}


def test_pseudomanifold_counterexamples():
    verdict = is_pseudomanifold(from_facets([[1, 2], [2, 3], [1, 3], [3, 4]]))
    assert verdict.status == "no" and "ridge" in verdict.witness
    two = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
           [5, 6, 7], [5, 6, 8], [5, 7, 8], [6, 7, 8]]
    verdict = is_pseudomanifold(from_facets(two))
    assert verdict.status == "no" and "disconnected" in verdict.witness
    # the first failing ridge in the ridge map's order is the witness
    verdict = is_pseudomanifold(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))
    assert verdict == ManifoldVerdict("no", "ridge (1, 2) lies in 3 facet(s)")


def test_ridge_map_pairs_each_facet_with_its_omitted_index(complexes):
    for C in complexes.values():
        ridges = C.ridges()
        assert C.ridges() is ridges  # cached
        for R, pairs in ridges.items():
            assert type(pairs) is tuple and len(pairs) == 2
            assert all(F[:i] + F[i + 1:] == R for F, i in pairs)
        # keys in the order combinations(F, d) gives them, facet by facet
        order = dict.fromkeys(R for F in C.facets
                              for R in itertools.combinations(F, C.dim))
        assert list(ridges) == list(order)


def test_neighborliness(csaszar, complexes):
    assert is_k_neighborly(csaszar, 2)
    assert is_k_neighborly(complexes["L31-12"], 2)
    assert is_k_neighborly(boundary_simplex(3), 4)
    assert not is_k_neighborly(complexes["RP3-11"], 2)


def test_combinatorial_manifold_csaszar(csaszar):
    assert is_combinatorial_manifold(csaszar).status == "yes"


def test_combinatorial_manifold_rejects_bad_link(rp2_6):
    # both suspension apexes have a projective-plane link
    verdict = is_combinatorial_manifold(suspension(rp2_6))
    assert verdict.status == "no"
    assert "sphere homology" in verdict.witness


def _pinched_sphere():
    """An octahedron stacked on two opposite triangles, with the two stacked
    vertices (at distance 3) identified: a 2-pseudomanifold, H_1 = Z."""
    octahedron = [F for F in itertools.product((1, 2), (3, 4), (5, 6))
                  if F not in ((1, 3, 5), (2, 4, 6))]
    cones = [(7,) + e for F in ((1, 3, 5), (2, 4, 6))
             for e in itertools.combinations(F, 2)]
    return from_facets(octahedron + cones)


def test_combinatorial_manifold_rejects_pinched_link():
    P = _pinched_sphere()
    assert is_pseudomanifold(P) and str(homology(P)) == "(Z, Z, Z)"
    # reverse the labels so that a suspension apex is the first vertex
    S = suspension(P)
    S = relabeled(S, [S.n + 1 - v for v in S.vertices()])
    L = link(S, (1,))
    assert is_pseudomanifold(L) and homology(L) == homology(P)
    verdict = is_combinatorial_manifold(S)
    assert verdict.status == "no"
    assert verdict.witness == "link of vertex 1 does not have sphere homology"


def test_combinatorial_manifold_catalog_3d(complexes):
    for name in ("RP3-11", "L31-12"):
        assert is_combinatorial_manifold(complexes[name]).status == "yes"


def test_combinatorial_manifold_high_dimensional(complexes):
    # links of dimension >= 3 go through the flip reducer
    assert is_combinatorial_manifold(complexes["S3xS2-a-12"]).status == "yes"
    assert is_combinatorial_manifold(complexes["S3xS3-a-13"]).status == "yes"


def test_combinatorial_manifold_budget_exhaustion(complexes):
    verdict = is_combinatorial_manifold(complexes["S3xS3-a-13"], flip_budget=1)
    assert verdict.status == "unknown"
    assert "not reduced" in verdict.witness


def test_combinatorial_manifold_rejects_non_sphere_3d_link(complexes):
    # the apex links are RP^3: the flip budget runs out, then homology says no
    verdict = is_combinatorial_manifold(suspension(complexes["RP3-11"]))
    assert verdict.status == "no"
    assert verdict.witness == "link of vertex 12 does not have sphere homology"


def test_combinatorial_manifold_flips_before_homology(monkeypatch, complexes):
    calls = []

    def counting(L):
        calls.append(L)
        return homology(L)

    monkeypatch.setattr(mwb.homology, "homology", counting)
    # every link reaches a boundary simplex, so no homology is computed
    assert is_combinatorial_manifold(complexes["S3xS2-a-12"]).status == "yes"
    assert calls == []
    # no link is reduced in one move: each gets the homology screen
    verdict = is_combinatorial_manifold(complexes["S3xS3-a-13"], flip_budget=1)
    assert verdict.status == "unknown"
    assert len(calls) == 13


def test_links_of_dimension_at_most_2_take_no_homology(monkeypatch, complexes,
                                                       rp2_6):
    calls = []
    monkeypatch.setattr(mwb.homology, "homology",
                        lambda L: calls.append(L) or homology(L))
    for name in ("csaszar-torus", "RP3-11", "L31-12"):
        assert is_combinatorial_manifold(complexes[name]).status == "yes"
    verdict = is_combinatorial_manifold(suspension(rp2_6))
    assert verdict == ManifoldVerdict(
        "no", "link of vertex 7 does not have sphere homology")
    S = suspension(_pinched_sphere())
    S = relabeled(S, [S.n + 1 - v for v in S.vertices()])
    verdict = is_combinatorial_manifold(S)
    assert verdict == ManifoldVerdict(
        "no", "link of vertex 1 does not have sphere homology")
    assert calls == []


def test_surface_links_are_spheres_exactly_when_homology_says_so(rp2_6):
    # chi = 2 against the sphere-homology screen it replaces, on suspensions
    # of every 7-vertex surface, the 6-vertex RP^2, a pinched sphere and the
    # boundary of a tetrahedron
    result = enumerate_surfaces(7, representatives=True)
    surfaces = [S for reps in result.representatives.values() for S in reps]
    surfaces += [rp2_6, _pinched_sphere(), boundary_simplex(2)]
    sphere = homology(boundary_simplex(2))
    for S in surfaces:
        verdict = is_combinatorial_manifold(suspension(S))
        assert verdict.status == ("yes" if homology(S) == sphere else "no")


def test_complex_pickles_as_facets_and_source_labels(complexes):
    C = complexes["RP3-11"]
    for K in (C, link(C, (3,)), star(C, (2, 5))):
        K.faces(1), K.ridges()  # fill the caches
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            K2 = pickle.loads(pickle.dumps(K, protocol))
            assert K2 == K and hash(K2) == hash(K)
            assert (K2.n, K2.dim, K2.source_labels) == (
                K.n, K.dim, K.source_labels)
            assert K2._faces_cache == {} and K2._ridge_cache is None


def test_combinatorial_manifold_rejects_zero_budget(csaszar):
    with pytest.raises(BudgetZero):
        is_combinatorial_manifold(csaszar, flip_budget=0)


def test_euler_consistency_with_homology(complexes):
    for C in complexes.values():
        assert f_vector(C).euler == homology(C).euler


def test_surface_and_3d_f_vector_relations(csaszar, complexes):
    n, f1, f2 = f_vector(csaszar).counts
    chi = f_vector(csaszar).euler
    assert f1 == 3 * n - 3 * chi and f2 == 2 * n - 2 * chi
    for name in ("RP3-11", "L31-12"):
        n, f1, f2, f3 = f_vector(complexes[name]).counts
        assert 2 * f2 == 4 * f3
        assert (n, f1, 2 * f1 - 2 * n, f1 - n) == f_vector(complexes[name]).counts


def test_the_face_cap_is_checked_when_a_complex_is_built():
    # facets * (2^(d+1) - 1): 20 * (2^19 - 1) is under the cap and
    # 21 * (2^20 - 1) above it; neither lists a face
    assert 20 * (2**19 - 1) <= FACE_CAP < 21 * (2**20 - 1)
    assert boundary_simplex(18).dim == 18
    with pytest.raises(CapExceeded, match=f"21 facets of dimension 19 .* "
                                          f"face cap {FACE_CAP:,}"):
        boundary_simplex(19)


def test_one_face_cap_check_serves_builders_and_complexes():
    # one d-simplex has 2^(d+1) - 1 faces: 2^24 - 1 passes, 2^25 - 1 does not
    check_face_cap(1, 23)
    assert from_facets([range(1, 25)]).dim == 23
    with pytest.raises(CapExceeded) as refused:
        check_face_cap(1, 24)
    with pytest.raises(CapExceeded, match=re.escape(str(refused.value))):
        from_facets([range(1, 26)])
    # a bound of more digits than an int prints is shown as a product
    with pytest.raises(CapExceeded, match=r"^1 facets of dimension 20000 span "
                                          r"up to 1 \* \(2\^20001 - 1\) faces"):
        from_facets([range(1, 20002)])


def test_relabeled_is_involutive(csaszar):
    perm = [3, 1, 2, 7, 6, 5, 4]
    inverse = [0] * 7
    for i, p in enumerate(perm):
        inverse[p - 1] = i + 1
    assert relabeled(relabeled(csaszar, perm), inverse) == csaszar


def test_relabeled_moves_source_labels_with_their_vertices():
    C = from_facets([[10, 22, 40], [10, 22, 50], [10, 40, 50], [22, 40, 50]])
    R = relabeled(C, (2, 3, 4, 1))  # vertex i+1 goes to perm[i]
    assert R.source_labels == (50, 10, 22, 40)

    def ambient(K):
        return {tuple(sorted(K.source_labels[v - 1] for v in F))
                for F in K.facets}

    assert ambient(R) == ambient(C)


def test_a_circle_is_a_combinatorial_manifold():
    assert is_combinatorial_manifold(boundary_simplex(1)).status == "yes"
    assert is_combinatorial_manifold(
        from_facets([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])).status == "yes"


def test_process_map_with_one_worker_is_lazy():
    calls = []
    results = process_map(calls.append, [1, 2, 3], threads=1)
    assert calls == []
    next(results)
    assert calls == [1]
    with pytest.raises(InvalidArgument, match="^threads must be >= 1$"):
        process_map(calls.append, [1], threads=0)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda C: setattr(C, "dim", 3),
                 AttributeError("Complex is immutable"), id="immutable"),
    pytest.param(lambda C: (C.faces(-1), C.faces(C.dim + 1)), ((), ()),
                 id="faces-out-of-range"),
    pytest.param(lambda C: from_facets([(1, 2), ()]),
                 UnsupportedDimension("empty facet"), id="empty-facet"),
    pytest.param(lambda C: relabeled(C, [1] * C.n),
                 ValueError("not a permutation of the vertex set"),
                 id="relabeled-non-permutation"),
    pytest.param(lambda C: star(C, (1, 2, 3, 4)),
                 NotAFace("(1, 2, 3, 4) is not a face"), id="star-non-face"),
    pytest.param(lambda C: is_k_neighborly(C, C.dim + 2),
                 ValueError("k out of range"), id="neighborly-k-out-of-range"),
    pytest.param(lambda C: list(f_vector(C)), [7, 21, 14], id="fvector-iter"),
    pytest.param(lambda C: len(f_vector(C)), 3, id="fvector-len"),
    pytest.param(lambda C: bound_report(C).entry("no-such-bound"),
                 KeyError("no-such-bound"), id="bound-report-unknown-entry"),
    pytest.param(lambda C: heawood_min_vertices(3),
                 ValueError("a closed surface has chi <= 2"), id="heawood-chi-3"),
    pytest.param(lambda C: cyclic_f(3, 4), ValueError("need n >= dim + 2"),
                 id="cyclic-too-few-vertices"),
    pytest.param(lambda C: arnoux_marin_min("HP", 4),
                 ValueError("kind must be 'RP' or 'CP'"),
                 id="arnoux-marin-unknown-kind"),
    pytest.param(lambda C: boundary_matrix(C, 0), ValueError("k out of range"),
                 id="boundary-matrix-k-out-of-range"),
    pytest.param(lambda C: interval(1), InvalidArgument("k must be >= 2"),
                 id="interval-of-one-vertex"),
])
def test_input_checks(csaszar, call, expected):
    """Each library check on its arguments, on the 7-vertex torus."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call(csaszar)
    else:
        assert call(csaszar) == expected
