import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from conftest import small_complexes
from mwb.census import enumerate_surfaces
from mwb.constructions import (boundary_simplex, connected_sum,
                               orientable_bundle, twisted_bundle)
from mwb.core import f_vector, from_facets, link, relabeled
from mwb.errors import InvalidArgument, NotPseudomanifold
from mwb.flips import SplitMix64, random_walk
import mwb.homology as homology_module
from mwb.homology import (HomologyVector, _diagonal_of, _sparse_boundary,
                          betti, boundary_matrix, homology, orientability,
                          orientation_signs, smith_normal_form)


def test_boundary_sign_convention():
    C = from_facets([(1, 2, 3)])
    M = boundary_matrix(C, 1)
    col = C.faces(1).index((1, 2))
    rows = C.faces(0)
    assert M[rows.index((2,))][col] == 1
    assert M[rows.index((1,))][col] == -1


def test_boundary_squares_to_zero(csaszar):
    d1 = boundary_matrix(csaszar, 1)
    d2 = boundary_matrix(csaszar, 2)
    for i in range(len(d1)):
        for j in range(len(d2[0])):
            assert sum(d1[i][k] * d2[k][j] for k in range(len(d2))) == 0


def test_smith_normal_form_small_cases():
    assert smith_normal_form([[2]]) == ((2,), 1)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)
    # hand elimination: gcd 2, |det| 8 forces (2, 4)
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    # no entry divides the others: the pivot row's remainder step decides
    assert smith_normal_form([[2, 3]]) == ((1,), 1)
    assert smith_normal_form([[6, 10, 15]]) == ((1,), 1)
    assert smith_normal_form([[2, 3], [3, 2]]) == ((1, 5), 2)
    assert smith_normal_form([[-4, 6], [6, -3]]) == ((1, 24), 2)
    # the shortest row has no unit entry: its smallest entry is the pivot,
    # and a remainder takes over from it
    assert smith_normal_form([[4, 6, 0], [6, 9, 5]]) == ((1, 10), 2)
    assert smith_normal_form([[6, 10, 0], [1, 1, 1], [2, 0, 3]]) == ((1, 1, 8), 3)
    assert smith_normal_form([[4, 0, 6], [0, 6, 9], [2, 3, 1]]) == ((1, 1, 156), 3)
    assert smith_normal_form([[-3, 0, 0, 5], [0, 4, 0, 1], [2, 2, 2, 2],
                              [7, 0, 3, 0]]) == ((1, 1, 1, 106), 4)


def _sympy_factors(M):
    S = sympy_snf(Matrix(M), domain=ZZ)
    diag = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0]
    return tuple(sorted(diag)), len(diag)


@st.composite
def _integer_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    M = [draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        M[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in M:
            row[j] = 0
    return M


@settings(max_examples=200, deadline=None)
@given(M=_integer_matrices())
def test_smith_normal_form_matches_sympy(M):
    assert smith_normal_form(M) == _sympy_factors(M)


# torsion Z_3 (L31-12) and Z_2 (S3twS1-12), and two 4-manifolds' boundary maps
@pytest.mark.parametrize("name", ["csaszar-torus", "RP3-11", "L31-12", "S2xS2-11",
                                  "S3twS1-12"])
def test_smith_normal_form_matches_sympy_on_boundary_maps(name, complexes):
    C = complexes[name]
    for k in range(1, C.dim + 1):
        M = boundary_matrix(C, k)
        assert smith_normal_form(M) == _sympy_factors(M)


def test_snf_diagonals_of_catalog_boundary_maps_are_pinned(complexes):
    # the raw diagonals, in elimination order, of all 27 boundary maps of
    # the catalog: they move if the pivot order does, while the sympy
    # oracle above checks only the invariant factors
    diags = [_diagonal_of(*_sparse_boundary(C, k))
             for C in complexes.values() for k in range(1, C.dim + 1)]
    assert len(diags) == 27
    assert hashlib.sha256(repr(diags).encode()).hexdigest() == (
        "5a7e5fb449f149f7d707f6daa6190944620c4befb83885d277569a5fcf661a88")


def test_pivot_heap_picks_the_first_shortest_row(complexes, monkeypatch):
    # the heap must pick the row a scan of every row would pick; the pin
    # above sees a different pick only where it moves a non-unit pivot
    pick = homology_module._pick_pivot
    same = []

    def checked(rows, cols, heap):
        want = min(rows, key=lambda i: len(rows[i]))
        r, c = pick(rows, cols, heap)
        same.append(r == want)
        return r, c

    monkeypatch.setattr(homology_module, "_pick_pivot", checked)
    for name in ("csaszar-torus", "RP3-11", "L31-12", "S3twS1-12"):
        C = complexes[name]
        for k in range(1, C.dim + 1):
            _diagonal_of(*_sparse_boundary(C, k))
    assert len(same) == 407 and all(same)  # 407: the sum of the ranks


# --- clearing: homology() leaves out the unit pivot rows of the map above ---

def _homology_per_map(C, snf):
    """Homology from the invariant factors ``snf`` gives for each dense
    boundary matrix on its own, with every column kept."""
    d = C.dim
    fv = f_vector(C).counts
    factors = [()] + [snf(boundary_matrix(C, k))[0]
                      for k in range(1, d + 1)] + [()]
    free = tuple(fv[k] - len(factors[k]) - len(factors[k + 1])
                 for k in range(d + 1))
    torsion = tuple(tuple(t for t in factors[k + 1] if t > 1)
                    for k in range(d + 1))
    return HomologyVector(free, torsion)


def _check_clearing(C):
    H = homology.__wrapped__(C)  # uncached, so every map is eliminated here
    assert H == _homology_per_map(C, smith_normal_form)
    assert H == _homology_per_map(C, _sympy_factors)


@pytest.fixture(scope="module")
def torsion_complexes(rp2_6, complexes):
    """rp2_6, RP3-11 and L31-12, a random walk of each, and each walk with
    one facet removed: all but the punctured projective plane have Z_2 or
    Z_3 torsion."""
    out = {"rp2_6": rp2_6, "RP3-11": complexes["RP3-11"],
           "L31-12": complexes["L31-12"]}
    for i, name in enumerate(list(out)):
        walked = random_walk(out[name], seed=4000 + i, steps=40)[0]
        out[name + "-walk"] = walked
        out[name + "-walk-minus-facet"] = from_facets(walked.facets[1:])
    return out


@pytest.mark.parametrize("name", [
    base + suffix for base in ("rp2_6", "RP3-11", "L31-12")
    for suffix in ("", "-walk", "-walk-minus-facet")])
def test_clearing_matches_per_map_snf_and_sympy(name, torsion_complexes):
    _check_clearing(torsion_complexes[name])


@settings(max_examples=150, deadline=None)
@given(C=small_complexes(max_dim=4, max_n=9, max_facets=16))
def test_clearing_matches_per_map_snf_and_sympy_on_random_complexes(C):
    _check_clearing(C)


def _cleared_rows(D2):
    rows, cols = {}, {}
    for i, row in enumerate(D2):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    cleared = set()
    _diagonal_of(rows, cols, cleared)
    return cleared


def _check_clearing_lemma(D1, D2):
    # D1 D2 = 0: the columns of D1 left after clearing by D2 keep its factors
    cleared = _cleared_rows(D2)
    kept = [[v for j, v in enumerate(row) if j not in cleared] for row in D1]
    assert smith_normal_form(kept) == smith_normal_form(D1)
    return cleared


def test_clearing_stops_at_the_first_non_unit_pivot():
    # row 0 of D2 gives the first pivot, 6; the remainder steps then leave
    # row 0 as (0, -1), row 0 minus three times row 1, which is no cleared
    # row: dropping column 0 of D1 would leave the factor 2
    D1 = [[1, -2, -2]]
    D2 = [[6, -10], [2, -3], [1, -2]]
    assert _check_clearing_lemma(D1, D2) == set()
    # with a unit pivot first, its row is cleared
    assert _check_clearing_lemma([[1, -1, 0]], [[1], [1], [0]]) == {0}


@st.composite
def _chain_pairs(draw):
    """Integer D1 and D2 with D1 D2 = 0: D2's columns are integer
    combinations of a basis of D1's null space over Q, scaled to Z."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    D1 = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
          for _ in range(m)]
    basis = []
    for v in Matrix(D1).nullspace():
        scale = math.lcm(*(x.q for x in v))
        basis.append([int(x * scale) for x in v])
    p = draw(st.integers(1, 5))
    R = [draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
         for _ in basis]
    D2 = [[sum(R[t][j] * b[i] for t, b in enumerate(basis)) for j in range(p)]
          for i in range(n)]
    return D1, D2


@settings(max_examples=200, deadline=None)
@given(pair=_chain_pairs())
def test_clearing_lemma_on_random_chain_pairs(pair):
    _check_clearing_lemma(*pair)


def test_clearing_drops_columns_of_the_map_below(complexes, monkeypatch):
    # the unit pivot rows of the top map of S3xS3-a-13 leave 521 of the 728
    # columns of its 5th boundary map; the maps are eliminated top down
    diagonal_of = homology_module._diagonal_of
    columns = []

    def spy(rows, cols, *args):
        columns.append(len(cols))
        return diagonal_of(rows, cols, *args)

    monkeypatch.setattr(homology_module, "_diagonal_of", spy)
    C = complexes["S3xS3-a-13"]
    assert len(C.faces(5)) == 728
    assert str(homology.__wrapped__(C)) == "(Z, 0, 0, Z^2, 0, 0, Z)"
    assert columns[:2] == [208, 521]


def test_rp2_boundary_has_one_even_invariant_factor(rp2_6):
    factors, rank = smith_normal_form(boundary_matrix(rp2_6, 2))
    assert rank == 10
    assert factors == (1,) * 9 + (2,)


def test_homology_values(rp2_6, complexes):
    assert str(homology(rp2_6)) == "(Z, Z_2, 0)"
    assert str(homology(boundary_simplex(3))) == "(Z, 0, 0, Z)"
    assert str(homology(complexes["L31-12"])) == "(Z, Z_3, 0, Z)"
    assert str(homology(complexes["S3twS1-12"])) == "(Z, Z, 0, Z_2, 0)"


def test_homology_matches_catalog(complexes, entries):
    for name, C in complexes.items():
        assert homology(C) == entries[name].expected_homology


def test_homology_invariant_under_relabeling(complexes):
    rng = SplitMix64(20240817)
    for name in ("RP3-11", "S2xS2-11"):
        C = complexes[name]
        perm = list(C.vertices())
        for i in range(len(perm) - 1, 0, -1):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        assert homology(relabeled(C, perm)) == homology(C)


def test_orientability(csaszar, rp2_6, complexes):
    assert orientability(csaszar) == "orientable"
    assert orientability(rp2_6) == "non-orientable"
    assert orientability(complexes["RP3-11"]) == "orientable"
    assert orientability(complexes["S3twS1-12"]) == "non-orientable"


def test_orientability_requires_pseudomanifold():
    with pytest.raises(NotPseudomanifold):
        orientability(from_facets([[1, 2, 3], [1, 2, 4]]))


def test_orientability_agrees_with_top_homology(complexes):
    for C in complexes.values():
        top_free = homology(C).free[C.dim]
        orientable = orientability(C) == "orientable"
        assert orientable == (top_free == 1)


def test_orientation_signs_are_a_fundamental_cycle(complexes):
    # the walk across the ridge map against the boundary operator: the signs
    # exist exactly when H_d is Z, and then their chain has boundary zero
    corpus = list(complexes.values())
    corpus += [link(C, (v,)) for C in complexes.values() for v in C.vertices()]
    for n in range(4, 9):
        result = enumerate_surfaces(n, representatives=True)
        corpus += [S for reps in result.representatives.values() for S in reps]
    corpus += [build(d) for build in (orientable_bundle, twisted_bundle)
               for d in range(2, 6)]
    T = complexes["csaszar-torus"]
    corpus.append(connected_sum(T, T.facets[0], T, T.facets[0]))
    assert len(corpus) == 7 + 78 + 57 + 8 + 1
    kinds = set()
    for C in corpus:
        sign = orientation_signs(C)
        kinds.add(sign is not None)
        assert (sign is not None) == (homology(C).free[C.dim] == 1)
        if sign is not None:
            cycle = [sign[F] for F in C.faces(C.dim)]
            assert all(sum(a * x for a, x in zip(row, cycle)) == 0
                       for row in boundary_matrix(C, C.dim))
    assert kinds == {True, False}


def test_poincare_duality_mod_2(complexes):
    for C in complexes.values():
        b = betti(C, 2).ranks
        assert b == tuple(reversed(b))


def test_betti_over_q_matches_free_ranks(complexes):
    for C in complexes.values():
        assert betti(C, 0).ranks == homology(C).free


def test_betti_f2_sees_torsion(complexes):
    # Z_2 torsion in H_1 contributes to both b_1 and b_2 over F_2
    assert betti(complexes["RP3-11"], 2).ranks == (1, 1, 1, 1)
    # Z_3 torsion is invisible over F_2
    assert betti(complexes["L31-12"], 2).ranks == (1, 0, 0, 1)
    # but not over F_3; Z_2 in H_3 reaches b_3 and b_4
    assert betti(complexes["L31-12"], 3).ranks == (1, 1, 1, 1)
    assert betti(complexes["S3twS1-12"], 2).ranks == (1, 1, 0, 1, 1)


def test_euler_from_homology(complexes):
    for C in complexes.values():
        assert homology(C).euler == f_vector(C).euler


def _betti_over_gf(C, p):
    """Betti numbers over GF(p) from sympy ranks of boundary maps that are
    built here from the face lists, independently of mwb.homology."""
    rank = [0] * (C.dim + 2)
    for k in range(1, C.dim + 1):
        row_of = {F: i for i, F in enumerate(C.faces(k - 1))}
        M = [[0] * len(C.faces(k)) for _ in row_of]
        for j, G in enumerate(C.faces(k)):
            for i in range(k + 1):
                M[row_of[G[:i] + G[i + 1:]]][j] = (-1) ** i
        rank[k] = DomainMatrix.from_list(M, ZZ).convert_to(GF(p)).rank()
    fv = f_vector(C).counts
    return tuple(fv[k] - rank[k] - rank[k + 1] for k in range(C.dim + 1))


# S3xS3-a-13 is left out: sympy needs about 10 s per prime on it
@pytest.mark.parametrize("name", ["csaszar-torus", "RP3-11", "L31-12", "S2xS2-11",
                                  "S3twS1-12", "S3xS2-a-12"])
def test_betti_matches_sympy_rank_over_gf_p(name, complexes):
    C = complexes[name]
    for p in (2, 3, 5):
        assert betti(C, p).ranks == _betti_over_gf(C, p)


@settings(max_examples=100, deadline=None)
@given(C=small_complexes(), p=st.sampled_from([2, 3, 5]))
def test_betti_matches_sympy_rank_on_small_complexes(C, p):
    assert betti(C, p).ranks == _betti_over_gf(C, p)


@pytest.mark.parametrize("p", [1, 4, -2, 9, 2**31, 2**127 - 1, pytest.param(
    10**5000, id="5001-digits")])
def test_betti_rejects_bad_modulus(p, csaszar):
    with pytest.raises(InvalidArgument):
        betti(csaszar, p)


def test_betti_accepts_largest_prime_modulus(csaszar):
    assert betti(csaszar, 2**31 - 1).ranks == homology(csaszar).free
