import hashlib
import random
import tracemalloc

import pytest

from mwb.constructions import (GluingMap, boundary_simplex, cone,
                               connected_sum, interval, join,
                               orientable_bundle, product, stack, suspension,
                               twisted_bundle)
from mwb.core import (f_vector, from_facets, is_combinatorial_manifold,
                      is_k_neighborly, is_pseudomanifold, relabeled)
from mwb.errors import (CapExceeded, IncompatibleGluing, NotAFacet,
                        NotPseudomanifold, UnsupportedDimension)
from mwb.flips import FlipMove, apply_move
from mwb.homology import HomologyVector, homology, orientation_signs
from mwb.iso import are_isomorphic


def test_boundary_simplex_shapes():
    assert f_vector(boundary_simplex(2)).counts == (4, 6, 4)
    assert f_vector(boundary_simplex(3)).counts == (5, 10, 10, 5)
    assert is_k_neighborly(boundary_simplex(2), 3)
    assert is_k_neighborly(boundary_simplex(4), 5)


def test_join_of_two_circles_is_a_3_sphere():
    circle = from_facets([[1, 2], [2, 3], [1, 3]])
    J = join(circle, circle)
    assert J.n == 6 and J.dim == 3
    assert str(homology(J)) == "(Z, 0, 0, Z)"
    assert is_combinatorial_manifold(J).status == "yes"


def test_cone_is_a_ball():
    # combinatorially the cone keeps the boundary subdivision: d+3 vertices,
    # d+2 facets, contractible
    C = cone(boundary_simplex(2))
    assert C.n == 5 and C.dim == 3 and len(C.facets) == 4
    assert str(homology(C)) == "(Z, 0, 0, 0)"


def test_suspension_of_csaszar(csaszar):
    S = suspension(csaszar)
    assert S.n == 9
    assert str(homology(S)) == "(Z, 0, Z^2, Z)"


def test_product_of_circles_is_a_torus():
    circle = boundary_simplex(1)
    T = product(circle, circle)
    assert f_vector(T).counts == (9, 27, 18)
    assert str(homology(T)) == "(Z, Z^2, Z)"
    assert is_combinatorial_manifold(T).status == "yes"


def test_product_vertex_count_and_euler_are_multiplicative():
    pairs = [
        (boundary_simplex(1), interval(4)),
        (boundary_simplex(2), interval(3)),
        (boundary_simplex(2), boundary_simplex(1)),
    ]
    for A, B in pairs:
        P = product(A, B)
        assert P.n == A.n * B.n
        assert f_vector(P).euler == f_vector(A).euler * f_vector(B).euler


def test_sphere_times_interval_has_16_vertices():
    P = product(boundary_simplex(2), interval(4))
    assert P.n == 16 and P.dim == 3


def _to_positions(order):
    """The relabeling that takes each vertex to its position in ``order``."""
    return [order.index(v) + 1 for v in range(1, len(order) + 1)]


# sha256 of the facet lists of products of factors put in given or seeded
# vertex orders, recorded from product's former vertex_orders option, which
# relabeling a factor replaces
ORDERED_PRODUCT_SHA256 = [
    "80b97b9d3f7b929deb2628b999485f7cce74f9f7c5209f7d54ae2eb9b164b2df",
    "db093f6317ec37be919cfff86e1dcb4d03b09cdac0956343a3cfeeabf062a115",
    "ea30f82edb436c7890833a1b334e03f6a84f7f03fc0af57ebabb9213b4d10baf",
]


def test_product_of_relabeled_factors_is_the_ordered_product(csaszar):
    circle = boundary_simplex(1)
    rng = random.Random(35)
    cases = [(circle, circle, [2, 3, 1], [1, 3, 2])]
    for A, B in [(csaszar, boundary_simplex(1)),
                 (interval(4), boundary_simplex(2))]:
        cases.append((A, B, rng.sample(range(1, A.n + 1), A.n),
                      rng.sample(range(1, B.n + 1), B.n)))
    isomorphic = []
    for (A, B, order1, order2), digest in zip(cases, ORDERED_PRODUCT_SHA256):
        P = product(relabeled(A, _to_positions(order1)),
                    relabeled(B, _to_positions(order2)))
        assert hashlib.sha256(repr(P.facets).encode()).hexdigest() == digest
        assert P.n == A.n * B.n
        assert f_vector(P).counts == f_vector(product(A, B)).counts
        assert homology(P) == homology(product(A, B))
        isomorphic.append(are_isomorphic(P, product(A, B)))
    # the orders can change the isomorphism type of a staircase product
    assert isomorphic == [True, False, False]


def test_connected_sum_rp3(complexes):
    C = complexes["RP3-11"]
    S = connected_sum(C, C.facets[0], C, C.facets[0])
    assert S.n == 11 + 11 - 4
    assert str(homology(S)) == "(Z, Z_2 + Z_2, 0, Z)"
    assert is_pseudomanifold(S)


def test_connected_sum_euler_and_homology_s2xs2(complexes):
    C = complexes["S2xS2-11"]
    S = connected_sum(C, C.facets[0], C, C.facets[-1])
    assert S.n == 11 + 11 - 5
    assert f_vector(S).euler == 4 + 4 - 2
    assert str(homology(S)) == "(Z, 0, Z^4, 0, Z)"


def test_sum_with_a_sphere_is_a_stacking(complexes):
    C = complexes["RP3-11"]
    F = C.facets[0]
    B = boundary_simplex(3)
    S = connected_sum(C, F, B, B.facets[0])
    assert are_isomorphic(S, stack(C, F))


def test_connected_sum_validates_the_gluing():
    B = boundary_simplex(3)
    with pytest.raises(NotAFacet):
        connected_sum(B, (1, 2, 3), B, B.facets[0])
    bad = GluingMap(((1, 1), (2, 1), (3, 3), (4, 4)))
    with pytest.raises(IncompatibleGluing):
        connected_sum(B, B.facets[0], B, B.facets[0], gluing=bad)


def test_connected_sum_raises_in_order():
    B, S2 = boundary_simplex(3), boundary_simplex(2)
    pinched = from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])  # no pseudomanifold
    bad = GluingMap(((1, 1), (2, 1), (3, 3), (4, 4)))
    cycle = from_facets([(1, 2), (2, 3), (1, 3)])
    # the dimensions are compared first, before any facet or correspondence
    with pytest.raises(IncompatibleGluing, match="dimensions 1 and 3"):
        connected_sum(cycle, (1, 2, 3), B, B.facets[0], gluing=bad)
    with pytest.raises(IncompatibleGluing, match="dimensions 2 and 3"):
        connected_sum(pinched, (1, 2, 3), B, B.facets[0])
    with pytest.raises(NotAFacet, match="first summand"):
        connected_sum(B, (1, 2, 3), B, (1, 2, 3), gluing=bad)
    with pytest.raises(NotAFacet, match="second summand"):
        connected_sum(B, B.facets[0], B, (1, 2, 3), gluing=bad)
    # the gluing is checked before any summand is oriented
    with pytest.raises(IncompatibleGluing, match="correspondence"):
        connected_sum(pinched, (1, 2, 3), S2, S2.facets[0], gluing=bad)
    with pytest.raises(NotPseudomanifold):
        connected_sum(pinched, (1, 2, 3), S2, S2.facets[0])
    # summing two single triangles leaves no facet at all
    with pytest.raises(UnsupportedDimension, match="empty facet list"):
        connected_sum(from_facets([(1, 2, 3)]), (1, 2, 3),
                      from_facets([(1, 2, 3)]), (1, 2, 3))


def _transported(C1, F1, C2, F2, S):
    """Facet signs for the sum S, read off the summands: s1 on C1 - F1, and
    on C2 - F2 the sign of each facet times that of the permutation its
    relabeling applies, for whichever of the label-order matching and its
    composition with the transposition of the first two vertices built S."""
    s1, s2 = orientation_signs(C1), orientation_signs(C2)
    for swap in (False, True):
        to1 = dict(zip(F2, F1))
        if swap:
            to1[F2[0]], to1[F2[1]] = F1[1], F1[0]
        fresh = iter(range(C1.n + 1, C1.n + C2.n + 1))
        relabel = {v: to1[v] if v in to1 else next(fresh) for v in C2.vertices()}
        signs = {G: s1[G] for G in C1.facets if G != F1}
        for G in C2.facets:
            if G != F2:
                image = [relabel[v] for v in G]
                inversions = sum(a > b for i, a in enumerate(image)
                                 for b in image[i + 1:])
                signs[tuple(sorted(image))] = s2[G] * (-1) ** inversions
        if set(signs) == set(S.facets):
            return signs
    raise AssertionError("the sum matches neither candidate matching")


def _digest(complexes):
    h = hashlib.sha256()
    for C in complexes:
        h.update(repr(C.facets).encode())
    return h.hexdigest()


SUMMANDS = ("csaszar-torus", "RP3-11", "L31-12", "S2xS2-11")


def test_default_connected_sums_respect_both_orientations(complexes):
    sums = []
    for name in SUMMANDS:
        C = complexes[name]
        for F1 in C.facets[:8]:
            for F2 in C.facets[:8]:
                S = connected_sum(C, F1, C, F2)
                signs, glued = _transported(C, F1, C, F2, S), orientation_signs(S)
                assert glued is not None
                flip = glued[S.facets[0]] * signs[S.facets[0]]
                assert all(glued[G] == flip * s for G, s in signs.items()), \
                    (name, F1, F2)
                sums.append(S)
    # the 176 sums that respected both orientations before the sign rule
    # are unchanged; the other 80 now take the other matching
    assert _digest(sums) == (
        "37ebe7c7f9c5d3a50139a1b7ec34dc2b7692be08b57999d0510f4e0e5896d58e")


def test_sums_that_orient_nothing_are_unchanged(rp2_6, complexes):
    # non-orientable summands keep the label-order matching
    assert _digest(connected_sum(rp2_6, F1, rp2_6, F2)
                   for F1 in rp2_6.facets for F2 in rp2_6.facets) == (
        "c7e1bcd05b83d22522113f4381b3459a3ac74ab0c2bdd718b9b814eed04b3068")
    # an explicit gluing is used as given
    explicit = []
    for name in SUMMANDS:
        C = complexes[name]
        for F1 in C.facets[:4]:
            for F2 in C.facets[:4]:
                for image in (F1, F1[1:] + F1[:1]):
                    gluing = GluingMap(tuple(zip(F2, image)))
                    explicit.append(connected_sum(C, F1, C, F2, gluing=gluing))
    assert _digest(explicit) == (
        "0327881c28aeb7ddcb253832c177dd2cb8e1b36ca823ab43fb2debc31fe11b44")


def test_stacking_deltas():
    C = boundary_simplex(2)
    S = stack(C, C.facets[0])
    assert f_vector(S).counts == (5, 9, 6)
    with pytest.raises(NotAFacet):
        stack(C, (1, 2))


def test_stacking_is_the_0_move_on_every_catalog_facet(complexes):
    for C in complexes.values():
        for F in C.facets:
            S = stack(C, F)
            move = apply_move(C, FlipMove(0, F, (C.n + 1,)))
            # the facet coned from the fresh vertex n+1, written out
            coned = from_facets([G for G in C.facets if G != F] +
                                [tuple(v for v in F if v != u) + (C.n + 1,)
                                 for u in F])
            assert S == move == coned
            assert S.source_labels == move.source_labels == coned.source_labels
        with pytest.raises(NotAFacet):
            stack(C, C.facets[0][1:])


def test_repeated_stacking_on_a_3_manifold(complexes):
    C = complexes["L31-12"]
    n, f1 = C.n, f_vector(C)[1]
    H = homology(C)
    for k in range(1, 4):
        C = stack(C, C.facets[0])
        assert C.n == n + k
        assert f_vector(C)[1] == f1 + 4 * k
        assert homology(C) == H


def _bundle_homology(d, twist):
    """H_*(S^(d-1)-bundle over S^1) by the Wang sequence: H_0 = H_1 = Z; the
    product bundle adds Z in degrees d-1 and d, and the reflection acts as -1
    on H_(d-1) of the fibre, which leaves Z_2 there and 0 in degree d."""
    free, tors = [1, 1] + [0] * (d - 1), [()] * (d + 1)
    if twist:
        tors[d - 1] = (2,)
    else:
        free[d - 1] += 1
        free[d] += 1
    return HomologyVector(tuple(free), tuple(tors))


@pytest.mark.parametrize("d", range(2, 8))
def test_bundle_homology_matches_its_closed_form(d):
    for twist, build in ((True, twisted_bundle), (False, orientable_bundle)):
        C = build(d)
        assert (C.dim, C.n) == (d, 3 * d + 3)
        assert homology(C) == _bundle_homology(d, twist)


def test_twisted_bundle_homology():
    assert str(homology(twisted_bundle(2))) == "(Z, Z + Z_2, 0)"
    tb3 = twisted_bundle(3)
    assert tb3.n == 12
    assert str(homology(tb3)) == "(Z, Z, Z_2, 0)"
    tb4 = twisted_bundle(4)
    assert tb4.n == 3 * 4 + 3
    assert str(homology(tb4)) == "(Z, Z, 0, Z_2, 0)"


def test_orientable_bundle_homology():
    assert str(homology(orientable_bundle(2))) == "(Z, Z^2, Z)"
    assert str(homology(orientable_bundle(3))) == "(Z, Z, Z, Z)"


def _refused_peak(build):
    """The traced peak, in bytes, of a build that CapExceeded refuses."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_check_the_face_cap_before_listing_facets():
    # listing the facets first took 207 MiB for the boundary of the
    # 3001-simplex, and 30 MiB for the 59,136 cells of b6 x b6
    b6, b12 = boundary_simplex(6), boundary_simplex(12)
    for build in (lambda: boundary_simplex(3000), lambda: product(b6, b6),
                  lambda: join(b12, b12), lambda: twisted_bundle(3000)):
        assert _refused_peak(build) < 2**20
    with pytest.raises(CapExceeded, match="^59136 facets of dimension 12 span up "
                                          "to 484,382,976 faces"):
        product(b6, b6)
    with pytest.raises(CapExceeded, match=r"^3002 facets of dimension 3000 span "
                                          r"up to 3002 \* \(2\^3001 - 1\) faces"):
        boundary_simplex(3000)


def test_bundles_are_combinatorial_manifolds():
    assert is_combinatorial_manifold(twisted_bundle(3)).status == "yes"
    assert is_combinatorial_manifold(orientable_bundle(3)).status == "yes"


def test_connected_sum_of_two_projective_planes_is_a_klein_bottle(rp2_6):
    # neither summand is orientable: the label-order gluing is kept as is
    K = connected_sum(rp2_6, rp2_6.facets[0], rp2_6, rp2_6.facets[-1])
    assert f_vector(K).counts == (9, 27, 18) and f_vector(K).euler == 0
    assert is_combinatorial_manifold(K)
    assert homology(K) == homology(twisted_bundle(2))
    assert K == connected_sum(
        rp2_6, rp2_6.facets[0], rp2_6, rp2_6.facets[-1],
        gluing=GluingMap(tuple(zip(rp2_6.facets[-1], rp2_6.facets[0]))))


def test_connected_sum_keeps_an_explicit_gluing(csaszar):
    F = csaszar.facets[0]
    label_order = GluingMap(tuple(zip(F, F)))
    S = connected_sum(csaszar, F, csaszar, F, gluing=label_order)
    # without a gluing, the label order is composed with a transposition
    # here so that the sum respects both orientations
    default = connected_sum(csaszar, F, csaszar, F)
    assert S != default
    assert f_vector(S).counts == f_vector(default).counts == (11, 39, 26)
    assert is_combinatorial_manifold(S)
    assert homology(S) == homology(default)
