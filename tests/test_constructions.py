import pytest

from mwb.constructions import (GluingMap, boundary_simplex, cone,
                               connected_sum, interval, join,
                               orientable_bundle, product, stack, suspension,
                               twisted_bundle)
from mwb.core import (f_vector, from_facets, is_combinatorial_manifold,
                      is_k_neighborly, is_pseudomanifold)
from mwb.errors import IncompatibleGluing, NotAFacet
from mwb.homology import homology
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


def test_product_respects_vertex_orders():
    circle = boundary_simplex(1)
    P1 = product(circle, circle)
    P2 = product(circle, circle, vertex_orders=([2, 3, 1], [1, 3, 2]))
    assert P2.n == 9
    assert f_vector(P2).counts == f_vector(P1).counts
    assert are_isomorphic(P1, P2)


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


def test_stacking_deltas():
    C = boundary_simplex(2)
    S = stack(C, C.facets[0])
    assert f_vector(S).counts == (5, 9, 6)
    with pytest.raises(NotAFacet):
        stack(C, (1, 2))


def test_repeated_stacking_on_a_3_manifold(complexes):
    C = complexes["L31-12"]
    n, f1 = C.n, f_vector(C)[1]
    H = homology(C)
    for k in range(1, 4):
        C = stack(C, C.facets[0])
        assert C.n == n + k
        assert f_vector(C)[1] == f1 + 4 * k
        assert homology(C) == H


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
