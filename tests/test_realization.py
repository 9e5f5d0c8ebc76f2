import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwb.constructions import boundary_simplex
from mwb.core import from_facets
from mwb.errors import IncompleteEmbedding, NotASurface
from mwb.realization import realization_check


def test_csaszar_coordinates_are_valid(entries):
    e = entries["csaszar-torus"]
    verdict = realization_check(e.load(), e.load_coordinates())
    assert verdict.valid


def test_all_vertices_at_origin_is_invalid(csaszar):
    coords = {v: (0, 0, 0) for v in csaszar.vertices()}
    assert not realization_check(csaszar, coords)


def test_regular_tetrahedron_is_valid():
    C = boundary_simplex(2)
    coords = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0), 4: (0, 0, 1)}
    assert realization_check(C, coords).valid


def test_incomplete_embedding_raises(csaszar):
    with pytest.raises(IncompleteEmbedding):
        realization_check(csaszar, {1: (0, 0, 0)})


def test_only_2_complexes_are_checked(complexes):
    with pytest.raises(NotASurface):
        realization_check(complexes["RP3-11"], {})


def test_coplanar_square_is_valid():
    C = from_facets([[1, 2, 3], [2, 3, 4]])
    coords = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0), 4: (1, 1, 0)}
    assert realization_check(C, coords).valid


def test_folded_flat_pair_is_invalid():
    C = from_facets([[1, 2, 3], [2, 3, 4]])
    coords = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0),
              4: (Fraction(1, 4), Fraction(1, 4), 0)}
    verdict = realization_check(C, coords)
    assert not verdict.valid and "shared edge" in verdict.witness


def test_piercing_disjoint_triangles_are_detected():
    C = from_facets([[1, 2, 3], [4, 5, 6]])
    coords = {1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0),
              4: (1, 1, -1), 5: (1, 1, 1), 6: (3, 3, 1)}
    verdict = realization_check(C, coords)
    assert not verdict.valid and "disjoint" in verdict.witness


def test_far_apart_disjoint_triangles_are_fine():
    C = from_facets([[1, 2, 3], [4, 5, 6]])
    coords = {1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0),
              4: (10, 10, 1), 5: (11, 10, 1), 6: (10, 11, 2)}
    assert realization_check(C, coords).valid


def test_shared_vertex_coplanar_overlap_is_invalid():
    C = from_facets([[1, 2, 3], [1, 4, 5]])
    coords = {1: (0, 0, 0), 2: (2, 0, 0), 3: (0, 2, 0),
              4: (1, Fraction(1, 4), 0), 5: (Fraction(1, 4), 1, 0)}
    verdict = realization_check(C, coords)
    assert not verdict.valid and "shared vertex" in verdict.witness


def test_shared_vertex_clean_pair_is_valid():
    C = from_facets([[1, 2, 3], [1, 4, 5]])
    coords = {1: (0, 0, 0), 2: (2, 0, 0), 3: (0, 2, 0),
              4: (-1, -1, 1), 5: (-2, -1, 2)}
    assert realization_check(C, coords).valid


def test_verdicts_of_moved_csaszar_vertices_are_pinned(entries):
    # Csaszar's torus with one vertex moved by one offset in {-1, 0, 1}^3:
    # 189 drawings, 129 valid, 16 "disjoint triangles", 39 "shared vertex"
    # and 5 "shared edge" verdicts
    e = entries["csaszar-torus"]
    C, base = e.load(), e.load_coordinates()
    lines = []
    for v in sorted(base):
        for off in itertools.product(range(-1, 2), repeat=3):
            coords = dict(base)
            coords[v] = tuple(x + d for x, d in zip(base[v], off))
            verdict = realization_check(C, coords)
            lines.append(f"{v} {off} {verdict.valid} {verdict.witness}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("9aba530d2c3440466c59a4eda834d29a"
                      "637b51c6b6e2e37b2095c3e35fa99656")


def test_coincident_points_are_printed_as_given(csaszar):
    coords = {1: (3, -3, 0), 2: (-3, 3, 0), 3: (-3, -3, 1), 4: (3, 3, 1),
              5: (-1, -2, 3), 6: (1, 2, 3), 7: (0, 0, 15)}
    coords[1] = coords[7]
    verdict = realization_check(csaszar, coords)
    assert verdict.witness == "vertices 1 and 7 share the point (0, 0, 15)"
    half = (Fraction(1, 2), Fraction(-3, 4), 2)
    coords[1] = coords[7] = half
    verdict = realization_check(csaszar, coords)
    assert verdict.witness == "vertices 1 and 7 share the point (1/2, -3/4, 2)"


# Independent oracle: clip the polygon T1 (Sutherland-Hodgman) by the five
# half-spaces of T2; T1 and T2 meet correctly exactly when every vertex of
# what is left lies in the hull of their shared points.

def _minus(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _times(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _inner(a, b):
    return sum(x * y for x, y in zip(a, b))


def _half_spaces(t):
    """(m, k) with m.x >= k on t: both sides of its plane, and for each edge
    the side of the plane through it, normal to t, that holds the third
    vertex."""
    n = _times(_minus(t[1], t[0]), _minus(t[2], t[0]))
    spaces = [(n, _inner(n, t[0])), (tuple(-x for x in n), -_inner(n, t[0]))]
    for i in range(3):
        u, v, w = t[i], t[(i + 1) % 3], t[(i + 2) % 3]
        m = _times(n, _minus(v, u))
        if _inner(m, w) < _inner(m, u):
            m = tuple(-x for x in m)
        spaces.append((m, _inner(m, u)))
    return spaces


def _clip(polygon, m, k):
    out = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        fp, fq = _inner(m, p) - k, _inner(m, q) - k
        if fp >= 0:
            out.append(p)
        if fp * fq < 0:
            s = Fraction(fp, fp - fq)
            out.append(tuple(a + s * (b - a) for a, b in zip(p, q)))
    return out


def _on_hull(x, hull):
    if len(hull) < 2:
        return x in hull
    a, b = hull
    i = max(range(3), key=lambda j: abs(b[j] - a[j]))
    s = Fraction(x[i] - a[i], b[i] - a[i])
    return 0 <= s <= 1 and all(x[j] == a[j] + s * (b[j] - a[j])
                               for j in range(3))


def _oracle_valid(t1, t2, hull):
    polygon = list(t1)
    for m, k in _half_spaces(t2):
        polygon = _clip(polygon, m, k)
    return all(_on_hull(x, hull) for x in polygon)


@st.composite
def _triangle_pairs(draw):
    """Two triangles with vertices in {-2..2}^3, half of them in z = 0,
    sharing 0, 1 or 2 vertices."""
    c = st.integers(-2, 2)
    point = st.tuples(c, c, st.just(0) if draw(st.booleans()) else c)
    k = draw(st.integers(0, 2))
    points = draw(st.lists(point, min_size=6 - k, max_size=6 - k, unique=True))
    t2 = tuple(range(1, k + 1)) + tuple(range(4, 7 - k))
    return (1, 2, 3), t2, dict(enumerate(points, start=1))


@settings(max_examples=1000, deadline=None)
@given(pair=_triangle_pairs())
def test_realization_agrees_with_a_clipping_oracle(pair):
    t1, t2, pos = pair
    for t in (t1, t2):
        assume(_times(_minus(pos[t[1]], pos[t[0]]),
                      _minus(pos[t[2]], pos[t[0]])) != (0, 0, 0))
    shared = sorted(set(t1) & set(t2))
    hull = [pos[v] for v in shared]
    valid = _oracle_valid([pos[v] for v in t1], [pos[v] for v in t2], hull)
    assert valid == _oracle_valid([pos[v] for v in t2],
                                  [pos[v] for v in t1], hull)
    verdict = realization_check(from_facets([t1, t2]), pos)
    assert verdict.valid == valid
    if not valid:
        kind = ["disjoint", "shared vertex", "shared edge"][len(shared)]
        assert kind in verdict.witness


def test_collinear_vertices_make_a_degenerate_triangle():
    C = boundary_simplex(2)
    coords = {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2), 4: (0, 0, 1)}
    verdict = realization_check(C, coords)
    assert not verdict.valid
    assert verdict.witness == "triangle (1, 2, 3) is degenerate"
