import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from mwb import iso
from mwb.census import enumerate_surfaces
from mwb.constructions import boundary_simplex, stack
from mwb.core import from_facets, relabeled
from mwb.flips import SplitMix64, apply_move, legal_moves, random_walk
from mwb.iso import (_det_bareiss, are_isomorphic, as_determinant,
                     as_link_determinants, automorphism_group, canonical_form,
                     incidence_matrix)
from mwb.tri_io import write


def _random_perm(n, rng):
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _cycles_to_perm(n, cycles):
    perm = list(range(1, n + 1))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            perm[v - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def test_incidence_matrix_shape(complexes):
    C = complexes["RP3-11"]
    A = incidence_matrix(C)
    assert len(A) == 11 and len(A[0]) == 40
    assert all(sum(col) == 4 for col in zip(*A))


def test_as_determinants_match_published_values(complexes):
    assert as_determinant(complexes["S3xS2-a-12"]) == 4471184572226676864
    assert as_determinant(complexes["S3xS3-a-13"]) == 745714154823444619853824


def test_link_determinants_rp3(complexes):
    dets = as_link_determinants(complexes["RP3-11"])
    assert dets[:6] == (41616,) * 6
    assert dets[6:10] == (12096,) * 4
    assert dets[10] == 0


def test_link_determinants_l31(complexes):
    dets = as_link_determinants(complexes["L31-12"])
    assert dets[:6] == (134784,) * 6
    assert dets[6:9] == (133056,) * 3
    assert dets[9:] == (112320,) * 3


def test_determinants_are_isomorphism_invariants(csaszar):
    rng = SplitMix64(5)
    sigma = _random_perm(7, rng)
    shuffled = relabeled(csaszar, sigma)
    assert as_determinant(shuffled) == as_determinant(csaszar)
    assert sorted(as_link_determinants(csaszar)) == \
        sorted(as_link_determinants(shuffled))


def test_canonical_form_collapses_relabelings(csaszar):
    rng = SplitMix64(99)
    base = canonical_form(csaszar)[0]
    for _ in range(20):
        sigma = _random_perm(7, rng)
        assert canonical_form(relabeled(csaszar, sigma))[0] == base


def test_canonical_form_idempotent(complexes):
    for name in ("RP3-11", "S2xS2-11"):
        canon, _ = canonical_form(complexes[name])
        again, relab = canonical_form(canon)
        assert again == canon
        assert relabeled(complexes[name], canonical_form(complexes[name])[1]) == canon


def test_canonical_form_is_the_relabeling_it_returns(complexes):
    # the search keeps the relabeled complex of its best leaf, source labels
    # and all, and hands it back as the form
    rng = SplitMix64(35)
    for name, C in complexes.items():
        for D in [C] + [relabeled(C, _random_perm(C.n, rng)) for _ in range(2)]:
            form, perm = canonical_form(D)
            again = relabeled(D, perm)
            assert (form.facets, form.source_labels) == \
                (again.facets, again.source_labels), name


def test_are_isomorphic_random_relabeling(complexes):
    rng = SplitMix64(123)
    C = complexes["S3xS2-a-12"]
    sigma = _random_perm(C.n, rng)
    assert are_isomorphic(C, relabeled(C, sigma))


def test_are_isomorphic_separates_equal_f_vectors():
    from mwb.core import f_vector
    B = boundary_simplex(2)
    octa = from_facets([[1, 2, 5], [1, 2, 6], [1, 3, 5], [1, 3, 6],
                        [2, 4, 5], [2, 4, 6], [3, 4, 5], [3, 4, 6]])
    double_stack = stack(stack(B, B.facets[0]), (1, 2, 5))
    assert f_vector(octa).counts == f_vector(double_stack).counts
    assert not are_isomorphic(octa, double_stack)


def test_is_an_equivalence_on_relabelings(csaszar):
    rng = SplitMix64(7)
    sig1 = _random_perm(7, rng)
    sig2 = _random_perm(7, rng)
    A = relabeled(csaszar, sig1)
    B = relabeled(csaszar, sig2)
    assert are_isomorphic(csaszar, csaszar)
    assert are_isomorphic(csaszar, A) and are_isomorphic(A, csaszar)
    assert are_isomorphic(A, B) and are_isomorphic(csaszar, B)


def test_automorphism_group_rp3(complexes):
    C = complexes["RP3-11"]
    g = automorphism_group(C)
    assert g.order == 48
    published = [
        _cycles_to_perm(11, [(1, 2, 3, 4, 5, 6), (7, 8, 9)]),
        _cycles_to_perm(11, [(1, 2), (3, 6), (4, 5), (7, 9)]),
        _cycles_to_perm(11, [(3, 6), (7, 9), (8, 10)]),
    ]
    facets = set(C.facets)
    for perm in published:
        assert {tuple(sorted(perm[v - 1] for v in F)) for F in facets} == facets


def test_automorphism_group_l31(complexes):
    C = complexes["L31-12"]
    g = automorphism_group(C)
    assert g.order == 6
    published = [
        _cycles_to_perm(12, [(1, 2), (3, 6), (4, 5), (7, 8), (10, 11)]),
        _cycles_to_perm(12, [(1, 3, 5), (2, 4, 6), (7, 8, 9), (10, 11, 12)]),
    ]
    facets = set(C.facets)
    for perm in published:
        assert {tuple(sorted(perm[v - 1] for v in F)) for F in facets} == facets


@pytest.mark.parametrize("d", range(2, 7))
def test_automorphism_group_boundary_simplex(d):
    assert automorphism_group(boundary_simplex(d)).order == math.factorial(d + 2)


def test_generators_preserve_the_facet_set(complexes):
    for name in ("csaszar-torus", "RP3-11", "L31-12"):
        C = complexes[name]
        g = automorphism_group(C)
        facets = set(C.facets)
        for gen in g.generators:
            assert {tuple(sorted(gen[v - 1] for v in F)) for F in facets} == facets


def test_minimal_sphere_products_are_asymmetric(complexes):
    # all link determinants pairwise distinct, hence no nontrivial symmetry
    for name in ("S3xS2-a-12", "S3xS3-a-13"):
        C = complexes[name]
        dets = as_link_determinants(C)
        assert len(set(dets)) == C.n
        assert automorphism_group(C).order == 1


def test_rp3_automorphisms_preserve_determinant_classes(complexes):
    C = complexes["RP3-11"]
    g = automorphism_group(C)
    classes = [set(range(1, 7)), set(range(7, 11)), {11}]
    for gen in g.generators:
        for cls in classes:
            assert {gen[v - 1] for v in cls} == cls


# --- determinism: the catalog's canonical forms are pinned ----------------

CANONICAL_FORM_SHA256 = {
    "csaszar-torus": "5fc007b3b722b73d25b9305911094d1365be350b2652a51e0ff9e597f97a7105",
    "RP3-11": "e10c90a1b4baabbfe70291eacc882726cfb0c5d645044cdae67c3b44b4cf6924",
    "L31-12": "3ac7c7dee1cc00587cf96fb349ed40bcb367ae695babfe3c8e9623237a4be7fa",
    "S2xS2-11": "ee8c92bad3acd0a0f318f5958d7a8474fa19b3ec6897ef201578b07fdccafffa",
    "S3twS1-12": "635c0e4bcb92a90792c53f495096fdbccb78dd6861e045e276eaea5f441c6ee1",
    "S3xS2-a-12": "d1d99bc51de09cf67b8eebee5988804c5195d883ab6a2c6f21912b6f78dc6c32",
    "S3xS3-a-13": "c6510ded44f3ee00368cdf9b6d8c30298b6d4b208db915d48b3f9f8d724a4882",
}


def test_catalog_canonical_forms_are_pinned(complexes):
    assert set(CANONICAL_FORM_SHA256) == set(complexes)
    for name, digest in CANONICAL_FORM_SHA256.items():
        form = canonical_form(complexes[name])[0]
        assert hashlib.sha256(write(form).encode()).hexdigest() == digest, name


def test_triangle_degrees_unstall_neighborly_refinement(complexes, monkeypatch):
    # every vertex of S3xS3-a-13 has the same face degrees; the triangle
    # degrees in the initial colours split it into singletons, so one
    # refinement ends the search. Face degrees alone made the search try all
    # 13 first vertices (170 refines), and edge degrees alone took 228
    calls = []
    refine = iso._refine
    monkeypatch.setattr(iso, "_refine",
                        lambda *args: calls.append(1) or refine(*args))
    C = complexes["S3xS3-a-13"]
    canonical_form(C)
    assert len(calls) == 1
    assert automorphism_group(C).order == 1


def test_refine_calls_per_catalog_canonical_form(complexes, monkeypatch):
    # the search refines the initial colours once, then once per
    # individualized vertex
    calls = []
    refine = iso._refine
    monkeypatch.setattr(iso, "_refine",
                        lambda *args: calls.append(1) or refine(*args))
    got = {}
    for name, C in complexes.items():
        calls.clear()
        canonical_form(C)
        got[name] = len(calls)
    assert got == {"csaszar-torus": 11, "RP3-11": 22, "L31-12": 9,
                   "S2xS2-11": 1, "S3twS1-12": 1, "S3xS2-a-12": 1,
                   "S3xS3-a-13": 1}


def _face_degree_colors(C):
    """Each vertex ranked by its face degrees alone."""
    deg = [tuple(sum(v in F for F in C.faces(k)) for k in range(C.dim + 1))
           for v in C.vertices()]
    index = {key: i for i, key in enumerate(sorted(set(deg)))}
    return [index[key] for key in deg]


def test_triangle_degrees_follow_from_face_degrees_below_dimension_four(
        complexes, csaszar, rp2_6, walked_sphere):
    # in dimension 2 every triangle is a facet, and in a 3-pseudomanifold
    # every triangle lies in two facets, so the initial colours are the
    # face-degree colours
    walks = [random_walk(C, seed=7, steps=60)[0] for C in
             (complexes["RP3-11"], complexes["L31-12"], walked_sphere)]
    for C in [complexes["RP3-11"], complexes["L31-12"], walked_sphere,
              csaszar, rp2_6] + walks:
        assert iso._initial_colors(C) == _face_degree_colors(C)


def test_are_isomorphic_and_canonical_form_compute_no_determinant(
        complexes, monkeypatch):
    # the initial triangle degrees split S3xS3-a-13, so neither the
    # isomorphism test nor the canonical form takes a link or a determinant
    calls = []
    det = iso.as_determinant
    monkeypatch.setattr(iso, "as_determinant",
                        lambda C: calls.append(1) or det(C))
    C = complexes["S3xS3-a-13"]
    perm = _random_perm(C.n, SplitMix64(5))
    assert are_isomorphic(C, relabeled(C, perm))
    canonical_form(complexes["L31-12"])
    assert calls == []


@pytest.mark.parametrize("name", ["L31-12", "S2xS2-11", "S3xS2-a-12",
                                  "S3xS3-a-13"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_canonical_form_is_invariant_under_relabeling(name, complexes, data):
    C = complexes[name]
    perm = data.draw(st.permutations(range(1, C.n + 1)))
    assert canonical_form(relabeled(C, perm))[0] == canonical_form(C)[0]


# --- independent oracle: brute force over all n! vertex permutations --------

def _preserves(perm, facets):
    return {tuple(sorted(perm[v - 1] for v in F)) for F in facets} == facets


def _check_against_brute_force(C):
    facets = set(C.facets)
    brute = {p for p in itertools.permutations(range(1, C.n + 1))
             if _preserves(p, facets)}
    g = automorphism_group(C)
    assert g.order == len(brute)
    assert all(_preserves(gen, facets) for gen in g.generators)
    # the generators reach every automorphism
    group = {tuple(range(1, C.n + 1))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for gen in g.generators:
            q = tuple(gen[v - 1] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    assert group == brute


def _brute_force_min(C):
    """The lexicographically least sorted list of facet bitmasks over all n!
    relabelings of a 3-complex: equal exactly for isomorphic complexes."""
    bits = [1 << i for i in range(C.n)]
    return min(sorted([q[a] | q[b] | q[c] | q[d] for a, b, c, d in C.facets])
               for p in itertools.permutations(bits) for q in [(0,) + p])


@pytest.fixture(scope="module")
def walked_sphere():
    # a 3-sphere whose refined partition keeps a 6-vertex cell
    return random_walk(boundary_simplex(3), seed=1098, steps=20)[0]


@pytest.mark.parametrize("n", range(4, 8))
def test_automorphism_group_matches_brute_force_on_surface_census(n):
    result = enumerate_surfaces(n, representatives=True)
    reps = [C for cls in result.representatives.values() for C in cls]
    assert len(reps) == result.total()
    for C in reps:
        _check_against_brute_force(C)


def test_automorphism_group_matches_brute_force_on_named_complexes(
        csaszar, rp2_6, walked_sphere):
    for C, order in ((csaszar, 42), (rp2_6, 60), (boundary_simplex(2), 24),
                     (boundary_simplex(3), 120), (walked_sphere, 4)):
        assert automorphism_group(C).order == order
        _check_against_brute_force(C)


def test_walked_sphere_takes_the_link_determinant_split(walked_sphere):
    # the link determinants split the 6-vertex cell; the triangle degrees in
    # the initial colours do not, as every triangle of a 3-manifold lies in
    # two facets, so individualization does that work
    C = walked_sphere
    assert (C.n, len(C.facets)) == (8, 19)
    colors = iso._refine(iso._initial_colors(C), iso._vertex_facets(C))
    cells = {}
    for v, c in enumerate(colors, start=1):
        cells.setdefault(c, []).append(v)
    dets = as_link_determinants(C)
    big = [cell for cell in cells.values() if len(cell) == 6]
    assert len(big) == 1
    assert {dets[v - 1] for v in big[0]} == {450, 576}
    assert set(dets) == {450, 108, 576}


def test_walked_sphere_canonical_classes_match_brute_force(walked_sphere):
    C = walked_sphere
    rng = SplitMix64(1098)
    variants = [relabeled(C, _random_perm(C.n, rng)) for _ in range(30)]
    variants.append(apply_move(C, legal_moves(C, 1)[0]))
    canon = canonical_form(C)[0]
    brute = _brute_force_min(C)
    for X in variants:
        assert (canonical_form(X)[0] == canon) == (_brute_force_min(X) == brute)
    assert canonical_form(variants[-1])[0] != canon


# --- independent oracle: refinement by definition ---------------------------

def _refine_by_definition(colors, vert_facets):
    """Every vertex's pattern, recomputed and re-sorted facet by facet in
    every round."""
    n = len(colors)
    while True:
        sigs = []
        for v in range(n):
            patt = sorted(
                tuple(sorted(colors[u - 1] for u in F if u != v + 1))
                for F in vert_facets[v])
            sigs.append((colors[v], tuple(patt)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _refine_checked(colors, vert_facets):
    got = iso._refine(colors, vert_facets)
    assert got == _refine_by_definition(colors, vert_facets)
    return got


def _check_refine_by_definition(C):
    """The root refinement and every depth-1 split of the search, each
    vertex individualized as the search does it."""
    vf = iso._vertex_facets(C)
    root = _refine_checked(iso._initial_colors(C), vf)
    for v in C.vertices():
        split = [2 * c for c in root]
        split[v - 1] -= 1
        _refine_checked(split, vf)


def test_refine_matches_definition_on_catalog(complexes):
    rng = SplitMix64(28)
    for C in complexes.values():
        _check_refine_by_definition(C)
        for _ in range(20):
            D = relabeled(C, _random_perm(C.n, rng))
            _refine_checked(iso._initial_colors(D), iso._vertex_facets(D))


def test_refine_matches_definition_on_walks(complexes, walked_sphere):
    walks = [random_walk(complexes[name], seed=28, steps=60)[0]
             for name in ("RP3-11", "L31-12")]
    for C in walks + [walked_sphere]:
        _check_refine_by_definition(C)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_refine_commutes_with_relabeling(complexes, data):
    # vertex sigma(v) of the relabeled complex gets the colour v gets
    C = complexes[data.draw(st.sampled_from(sorted(complexes)))]
    sigma = data.draw(st.permutations(range(1, C.n + 1)))
    colors = data.draw(st.lists(st.integers(0, 3), min_size=C.n,
                                max_size=C.n))
    moved = [0] * C.n
    for v, c in enumerate(colors, start=1):
        moved[sigma[v - 1] - 1] = c
    D = relabeled(C, sigma)
    got = iso._refine(moved, iso._vertex_facets(D))
    want = iso._refine(colors, iso._vertex_facets(C))
    assert [got[sigma[v - 1] - 1] for v in C.vertices()] == want


# --- independent oracle: sympy determinants ----------------------------------

def test_det_bareiss_matches_sympy_on_fixed_cases():
    cases = [
        [[5]], [[0]],
        [[0, 1], [1, 0]],  # pivot swap
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[1, 2, 3], [2, 4, 7], [0, 1, 5]],  # zero pivot after one step
        [[1, 2], [2, 4]],  # singular
        [[0, 0], [3, 1]],  # zero column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # singular, nonzero pivots first
        [[0, 2, 1], [0, 3, 4], [0, 5, 6]],
    ]
    for M in cases:
        assert _det_bareiss(M) == Matrix(M).det(), M


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_bareiss_matches_sympy(M):
    assert _det_bareiss(M) == Matrix(M).det()

