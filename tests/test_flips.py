import hashlib
import itertools
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwb import flips
from mwb.constructions import boundary_simplex, twisted_bundle
from mwb.core import f_vector, from_facets, is_pseudomanifold, link
from mwb.errors import BudgetZero, IllegalMove, InvalidArgument
from mwb.flips import (FlipMove, Schedule, SplitMix64, _check_legal, _face,
                       _parts, _State, apply_move, legal_moves, random_walk,
                       reduce, replay)
from mwb.homology import homology
from mwb.tri_io import parse_trace, write_trace


def test_boundary_simplex_moves():
    C = boundary_simplex(2)
    assert len(legal_moves(C, 0)) == 4
    assert legal_moves(C, 1) == []
    assert legal_moves(C, 2) == []


def test_stack_then_unstack_restores():
    C = boundary_simplex(2)
    m = legal_moves(C, 0)[0]
    stacked = apply_move(C, m)
    assert f_vector(stacked).counts == (5, 9, 6)
    reverse = [mv for mv in legal_moves(stacked, 2) if mv.remove == (5,)]
    assert len(reverse) == 1
    assert reverse[0].insert == m.remove
    assert apply_move(stacked, reverse[0]) == C


def test_csaszar_has_no_edge_flips(csaszar):
    # 2-neighborly: no new edge can be inserted
    assert legal_moves(csaszar, 1) == []


def test_zero_move_on_3_manifold_adds_one_vertex_four_edges(complexes):
    C = complexes["RP3-11"]
    m = legal_moves(C, 0)[0]
    after = apply_move(C, m)
    before_f = f_vector(C).counts
    assert f_vector(after).counts == (before_f[0] + 1, before_f[1] + 4,
                                      before_f[2] + 6, before_f[3] + 3)


def test_middle_move_reversibility(complexes):
    C = complexes["RP3-11"]
    for m in legal_moves(C, 2)[:5]:
        flipped = apply_move(C, m)
        back = FlipMove(1, m.insert, m.remove)
        assert apply_move(flipped, back) == C


def test_illegal_moves_report_the_violated_clause(complexes):
    C = boundary_simplex(2)
    with pytest.raises(IllegalMove, match="already a face"):
        apply_move(C, FlipMove(1, (1, 2), (3, 4)))
    with pytest.raises(IllegalMove, match="not a face"):
        apply_move(C, FlipMove(1, (1, 5), (2, 3)))
    with pytest.raises(IllegalMove, match="fresh vertex"):
        apply_move(C, FlipMove(0, (1, 2, 3), (2,)))
    with pytest.raises(IllegalMove, match="not a facet"):
        apply_move(C, FlipMove(0, (1, 2, 5), (6,)))
    with pytest.raises(IllegalMove, match=r"link of \(1,\) is not the boundary "
                                          r"of a simplex"):
        apply_move(complexes["csaszar-torus"], FlipMove(2, (1,), (2, 3, 4)))
    stacked = apply_move(C, FlipMove(0, (1, 2, 3), (5,)))
    with pytest.raises(IllegalMove, match=r"is the boundary of \(1, 2, 3\), "
                                          r"not of \(1, 2, 4\)"):
        apply_move(stacked, FlipMove(2, (5,), (1, 2, 4)))


def test_random_walk_preserves_invariants(csaszar):
    H = homology(csaszar)
    walked, trace = random_walk(csaszar, seed=11, steps=300)
    assert len(trace) == 300
    assert is_pseudomanifold(walked)
    assert homology(walked) == H
    assert f_vector(walked).euler == 0


def test_random_walk_refuses_a_negative_step_count(csaszar):
    with pytest.raises(InvalidArgument, match=r"^steps must be >= 0, got -3$"):
        random_walk(csaszar, seed=1, steps=-3)
    assert random_walk(csaszar, seed=1, steps=0) == (csaszar, [])


def test_reduce_is_deterministic():
    C = twisted_bundle(3)
    r1 = reduce(C, seed=7, budget=400)
    r2 = reduce(C, seed=7, budget=400)
    assert r1[0] == r2[0]
    assert r1[1] == r2[1]
    r3 = reduce(C, seed=8, budget=400)
    assert r3[1] != r1[1]


def test_reduce_boundary_simplex_is_already_minimal():
    C = boundary_simplex(3)
    best, trace, stats = reduce(C, seed=1, budget=500)
    assert f_vector(best).counts == (5, 10, 10, 5)
    assert best == C


def test_reduce_names_why_it_stopped(complexes):
    # the twisted bundle reaches its target at move 503; RP3-11 is still
    # moving when 5 moves are spent; in dimension 6 the bundle has moves of
    # kinds 0 and 1 only, so neither an improving nor a heating move
    target = Schedule(target_f=(9, 36, 54, 27))
    _, trace, stats = reduce(twisted_bundle(3), seed=1, budget=100_000,
                             schedule=target)
    assert (stats["stop"], len(trace)) == ("target", 503)
    _, trace, stats = reduce(complexes["RP3-11"], seed=1, budget=5)
    assert (stats["stop"], len(trace)) == ("budget", 5)
    _, trace, stats = reduce(twisted_bundle(6), seed=1, budget=100_000)
    assert (stats["stop"], trace) == ("stuck", [])


def test_reduce_rejects_zero_budget(csaszar):
    with pytest.raises(BudgetZero):
        reduce(csaszar, seed=1, budget=0)


def test_reduce_trace_replays_to_final_state():
    C = twisted_bundle(3)
    best, trace, stats = reduce(C, seed=3, budget=300)
    assert replay(C, trace) == stats["final"]
    assert f_vector(best).counts <= stats["final_f"]
    assert f_vector(best).counts <= stats["start_f"]  # never worse than input


def test_reduce_best_is_the_complex_at_best_step(complexes):
    # reduce keeps its best complex as a mark and decodes it at the end;
    # the bundle is never improved on in 300 moves, the walked RP3-11 is
    # improved on late, at move 288
    walked, _ = random_walk(complexes["RP3-11"], seed=4, steps=60)
    steps = []
    for C, seed in ((twisted_bundle(3), 3), (walked, 2)):
        best, trace, stats = reduce(C, seed=seed, budget=300)
        steps.append(stats["best_step"])
        assert best == replay(C, trace[:stats["best_step"]])
        assert f_vector(best).counts == stats["best_f"]
    assert steps == [0, 288]


def test_reduce_cut_at_any_budget_is_a_prefix_that_replays():
    # seed 3 reverts during moves 51-100 and 209-300; these budgets end
    # before, in, at the end of and after a revert.  reduce jumps back to
    # its best complex, replay re-checks and applies every inverse move
    C = twisted_bundle(3)
    _, full, _ = reduce(C, seed=3, budget=300)
    for budget in (50, 51, 80, 100, 101, 250, 300):
        _, trace, stats = reduce(C, seed=3, budget=budget)
        assert (len(trace), stats["stop"]) == (budget, "budget")
        assert trace == full[:budget]
        assert replay(C, trace) == stats["final"]


def test_restore_matches_backing_out_by_inverse_moves(complexes):
    # a walk with 0- and d-moves; one state goes 20 steps, marks, goes 40
    # more and restores the mark, the other applies the 40 inverse moves
    C = complexes["RP3-11"]
    _, walk = random_walk(C, seed=5, steps=60)
    assert {m.kind for m in walk[20:]} >= {0, C.dim}
    jumped, backed = _State(C), _State(C)
    for state in (jumped, backed):
        for k in range(C.dim + 1):
            state.pool(k)  # build every index, as the reducer does
        for m in walk[:20]:
            state.apply(m)
    mark = jumped.mark()
    for m in walk[20:]:
        jumped.apply(m)
        backed.apply(m)
    jumped.restore(jumped.snapshot(mark))
    for m in reversed(walk[20:]):
        backed.apply(m.inverse(C.dim))
    assert jumped.snapshot() == backed.snapshot()
    assert jumped.fresh_label() == backed.fresh_label() > C.n + 1
    for k in range(C.dim + 1):
        assert jumped.pool(k) == backed.pool(k)
        assert jumped.legal_moves(k) == backed.legal_moves(k)
    assert jumped.f() == backed.f()


def test_reduce_rejects_a_target_f_vector_of_the_wrong_length():
    C = twisted_bundle(3)
    for target in ((9, 36, 54), (9, 36, 54, 27, 0)):
        with pytest.raises(InvalidArgument, match="needs 4 entries"):
            reduce(C, seed=1, budget=10, schedule=Schedule(target_f=target))


def test_reduce_twisted_bundle_reaches_walkup_minimum():
    C = twisted_bundle(3)
    best, trace, stats = reduce(C, seed=1, budget=100_000,
                                schedule=Schedule(target_f=(9, 36, 54, 27)))
    assert f_vector(best).counts == (9, 36, 54, 27)
    assert homology(best) == homology(C)


def test_move_serialization_roundtrip():
    m = FlipMove(2, (1, 5, 9), (3, 11))
    assert parse_trace(write_trace([m])) == [m]


def test_reduce_trace_survives_a_pickle_round_trip():
    # a pool worker sends its reduce result back to the parent by pickle
    C = twisted_bundle(3)
    _, trace, stats = reduce(C, seed=1, budget=300)
    back = pickle.loads(pickle.dumps(trace))
    assert back == trace and all(type(m) is FlipMove for m in back)
    assert replay(C, back) == stats["final"]


def _objects(trace):
    """(entries, distinct moves, distinct objects) of a trace."""
    return len(trace), len(set(trace)), len({id(m) for m in trace})


def test_a_reduction_trace_holds_one_object_per_distinct_move(s2xs2_reduction):
    # repeated picks, and the inverse moves that reverts record, share one
    # FlipMove, also across the restore of each revert
    _, trace, _ = s2xs2_reduction
    assert _objects(trace) == (18_225, 4_927, 4_927)
    _, trace, _ = reduce(twisted_bundle(3), seed=1, budget=100_000,
                         schedule=Schedule(target_f=(9, 36, 54, 27)))
    assert _objects(trace) == (503, 291, 291)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_reduce_multi_result_pickles_each_distinct_move_once(threads):
    from mwb.flips import reduce_multi
    result = reduce_multi(twisted_bundle(3), [1, 2], 100_000,
                          Schedule(target_f=(9, 36, 54, 27)), threads=threads)
    back = pickle.loads(pickle.dumps(result))
    assert back == result and back[1] == 1
    assert _objects(result[2]) == _objects(back[2]) == (503, 291, 291)


def test_reduce_multi_is_deterministic_and_parallelizable():
    from mwb.flips import reduce_multi
    C = twisted_bundle(3)
    sch = Schedule(target_f=(9, 36, 54, 27))
    best1, seed1, trace1, _ = reduce_multi(C, range(1, 4), 50_000, sch)
    assert f_vector(best1).counts == (9, 36, 54, 27)
    best2, seed2, trace2, _ = reduce_multi(C, range(1, 4), 50_000, sch,
                                           threads=2)
    assert (seed1, best1, trace1) == (seed2, best2, trace2)
    # the first seed in the given order that reaches the target wins, with
    # or without a pool, even where a later seed needs fewer moves
    runs = [reduce_multi(C, [3, 1], 50_000, sch, threads=t) for t in (1, 2)]
    assert [run[1] for run in runs] == [3, 3]
    assert runs[0][2] == runs[1][2]


# seeds 2 and 3 do not reach the Walkup minimum in 600 moves, seed 1 does;
# no seed reaches 8 vertices, and then seed 1 has the least best f-vector
POOL_SCHEDULES = {"reached": Schedule(target_f=(9, 36, 54, 27)),
                  "unreached": Schedule(target_f0=8)}


@pytest.mark.parametrize("name", POOL_SCHEDULES)
def test_reduce_multi_pool_returns_what_one_worker_does(name):
    from mwb.flips import reduce_multi
    C, schedule = twisted_bundle(3), POOL_SCHEDULES[name]
    one = reduce_multi(C, [2, 3, 1], 600, schedule)
    assert one[1] == 1
    assert schedule.reached(one[3]["best_f"]) == (name == "reached")
    assert reduce_multi(C, [2, 3, 1], 600, schedule, threads=2) == one


def test_reduce_multi_pool_is_capped(fake_pool):
    from mwb.flips import reduce_multi
    C = boundary_simplex(3)
    best, seed, _, _ = reduce_multi(C, [1, 2, 3], 20, threads=100_000)
    assert fake_pool == [2]  # min(threads, 3 seeds, 2 CPUs)
    assert (best, seed) == reduce_multi(C, [1, 2, 3], 20)[:2]


def test_reduce_multi_rejects_bad_arguments():
    from mwb.flips import reduce_multi
    C = boundary_simplex(3)
    with pytest.raises(InvalidArgument, match="seed"):
        reduce_multi(C, [], 20)
    with pytest.raises(InvalidArgument, match="threads"):
        reduce_multi(C, [1], 20, threads=0)


# --- the incremental legal-move index against a from-scratch oracle -------

def _scan_legal_moves(facets, d, kind, fresh):
    """Legal kind-moves of a facet set straight from the definition: A is a
    (d-kind)-face whose link is the boundary of a kind-simplex B that is not
    a face.  Uses nothing of the flip engine."""
    if kind == 0:
        return [FlipMove(0, F, (fresh,)) for F in sorted(facets)]
    faces = {s for F in facets for r in range(1, d + 2)
             for s in itertools.combinations(F, r)}
    moves = []
    for A in sorted(s for s in faces if len(s) == d - kind + 1):
        link = sorted(tuple(v for v in F if v not in A)
                      for F in facets if set(A) <= set(F))
        B = tuple(sorted({v for G in link for v in G}))
        if (len(B) == kind + 1 and link == list(itertools.combinations(B, kind))
                and B not in faces):
            moves.append(FlipMove(kind, A, B))
    return moves


def _replay_against_oracle(C, trace, read_every=1, seed=0):
    """Re-apply a trace on one _State; every ``read_every`` moves on average
    (pseudo-randomly per kind, so dirty faces pile up between reads) compare
    the indexed legal moves with the oracle scan.

    The facets are read through ``snapshot()``, which decodes the facet
    masks, and at every read the f-vector the engine keeps by per-kind
    deltas must equal the one counted from those facets.  Also checks that
    the mask width never exceeds the peak live-vertex count so far, and
    that at every read ``_wants`` inverts the ``_spheres`` of every indexed
    kind.  Returns the number of 0-moves that took a vanished vertex's bit
    while an indexed kind still had dirty faces."""
    state = _State(C)
    rng = SplitMix64(seed)
    peak = reused = 0
    for step, m in enumerate([None] + list(trace)):
        if m is not None:
            reused += (m.kind == 0 and bool(state._free)
                       and any(state._dirty[k] for k in state._indexed))
            state.apply(m)
        facets = state.snapshot()
        vertices = {v for F in facets for v in F}
        assert state.fresh_label() not in vertices
        peak = max(peak, len(vertices))
        assert len(state._labels) <= peak, step
        for k in range(state.d + 1):
            if read_every == 1 or rng.randrange(read_every) == 0:
                want = _scan_legal_moves(facets, state.d, k,
                                         state.fresh_label())
                assert state.legal_moves(k) == want, (step, k)
                assert state.f() == f_vector(from_facets(facets)).counts, step
                _assert_wants_inverts_spheres(state)
    return reused


def _assert_wants_inverts_spheres(state):
    """``_wants`` maps each insert-face B to exactly the remove-faces A with
    ``_spheres[kind][A] == B``, each once."""
    inverse = {}
    for kind in state._indexed:
        for A, B in state._spheres[kind].items():
            inverse.setdefault(B, []).append(A)
    assert ({B: sorted(As) for B, As in state._wants.items()}
            == {B: sorted(As) for B, As in inverse.items()})


ORACLE_INPUTS = ("boundary_simplex(3)", "RP3-11", "S2xS2-11")


def _oracle_input(name, complexes):
    if name == "boundary_simplex(3)":
        return boundary_simplex(3)
    if name == "S3xS3-a-13 link":  # a 3-neighborly 5-sphere on 12 vertices
        return link(complexes["S3xS3-a-13"], (1,))
    return complexes[name]


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_legal_move_index_matches_oracle_along_walks(name, complexes):
    C = _oracle_input(name, complexes)
    _, trace = random_walk(C, seed=5, steps=120)
    assert len(trace) == 120
    _replay_against_oracle(C, trace)
    _replay_against_oracle(C, trace, read_every=7, seed=1)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_legal_move_index_matches_oracle_along_reduce(name, complexes):
    C = _oracle_input(name, complexes)
    # start from a walked complex so the reducer has work to do
    start, _ = random_walk(C, seed=9, steps=40)
    _, trace, _ = reduce(start, seed=2, budget=150)
    assert trace
    _replay_against_oracle(start, trace)
    _replay_against_oracle(start, trace, read_every=5, seed=3)


@pytest.mark.parametrize("name", ORACLE_INPUTS[:2])
def test_legal_move_index_matches_oracle_as_bits_are_recycled(name, complexes):
    # labels pass 64, and vertices vanish and new ones take their bits while
    # faces naming the vanished ones are still dirty: a bit handed on before
    # those faces are re-tested would let a stale mask name the new vertex
    C = _oracle_input(name, complexes)
    _, trace = random_walk(C, seed=3, steps=300)
    assert max(v for m in trace for v in m.insert) > 64
    assert _replay_against_oracle(C, trace, read_every=5, seed=3) > 0


def _verdict(state, m):
    """The message of the IllegalMove that ``_check_legal`` raises, or None."""
    try:
        _check_legal(state, m)
    except IllegalMove as e:
        return str(e)


@pytest.mark.parametrize("name", ORACLE_INPUTS[1:] + ("S3xS3-a-13 link",))
def test_unindexed_state_agrees_with_indexed_on_candidates(name, complexes):
    # before the face index is built, a face's star is read off the facet
    # set; the index, checked against brute force, holds its facet count c
    # and star-vertex mask V, and a kind-k move at A is legal iff c[A] = k+1
    # and B = V[A] ^ A is a k-simplex that is no face.  A face plus a vertex
    # is often no face, in every size from 3 (the link is 3-neighborly) to
    # d+2.  The move checker, on the bare facet set, must accept exactly the moves the index calls legal and name the clause
    # the index says each other move breaks.  Besides B itself, each move is
    # also claimed with B in reverse label order (legal where B is), with A,
    # with B sharing a vertex of A, with B less a vertex plus a live vertex w
    # off A u B, with B plus w, and with B naming a label that is no live
    # vertex: the one-scan acceptance must leave each of those verdicts alone.
    C, _ = random_walk(_oracle_input(name, complexes), seed=7, steps=80)
    plain, indexed = _State(C), _State(C)
    indexed.f()
    _assert_face_index_is_brute_force(indexed)
    c, V = indexed.c, indexed.V
    assert len(c) == sum(f_vector(C).counts) and plain._bit == indexed._bit
    grown = {s | b for s in c for b in indexed._bit.values() if not s & b}
    assert {s.bit_count() for s in grown - c.keys()} >= set(range(3, C.dim + 3))
    fresh, live, seen = indexed.fresh_label(), sorted(indexed._bit), set()
    for A in c.keys() | grown:
        n, U = c.get(A, 0), V.get(A, 0)
        assert plain._star(A) == (n, U)
        B = U ^ A
        a, b = indexed.face(A), indexed.face(B)
        w = next((v for v in live if v not in a + b), fresh)
        claims = (b, b[::-1], a, a[:1] + b[1:], b[:-1] + (w,), b + (w,),
                  b[:-1] + (fresh,))
        for kind in range(1, C.dim + 1):
            legal = n == B.bit_count() == kind + 1 and B not in c
            for i, claim in enumerate(claims):
                s = indexed.mask_of(claim)
                if A.bit_count() != C.dim - kind + 1:
                    clause = "size"
                    want = f"remove-face {a} has wrong size for a {kind}-move"
                elif not n:
                    clause, want = "no face", f"{a} is not a face"
                elif legal and s == B:
                    clause, want = "legal", None
                elif legal:
                    clause = "other B"
                    want = f"link of {a} is the boundary of {b}, not of {claim}"
                elif s in c:
                    clause = "already"
                    want = f"insert-face {tuple(sorted(claim))} is already a face"
                else:
                    clause = "no sphere"
                    want = f"link of {a} is not the boundary of a simplex"
                assert _verdict(plain, FlipMove(kind, a, claim)) == want, (
                    kind, a, claim)
                seen.add((clause, i))
    assert {clause for clause, _ in seen} == {
        "size", "no face", "legal", "other B", "already", "no sphere"}
    assert {("legal", 1)} | {("other B", i) for i in range(2, 7)} <= seen
    assert plain.counts is None and not hasattr(plain, "star")


@pytest.mark.parametrize("name", ORACLE_INPUTS[1:])
def test_replay_never_builds_the_face_index(name, complexes, monkeypatch):
    # checking and applying moves, as replay does, reads and rewrites the
    # bare facet set, so a move touches d+2 facets, not 2^(d+2)-2 faces
    C = complexes[name]
    walked, trace = random_walk(C, seed=5, steps=200)
    state = _State(C)
    for m in trace:
        _check_legal(state, m)
        state.apply(m)
    assert state.counts is None and state.c is None and not state._indexed

    def no_face_index(self):
        raise AssertionError("replay built the face index")

    monkeypatch.setattr(_State, "_index_faces", no_face_index)
    assert replay(C, trace) == walked == from_facets(state.snapshot())


@pytest.mark.parametrize("indexed", [False, True])
def test_face_decodes_the_new_labels_of_a_reused_bit_and_after_restore(indexed):
    C = boundary_simplex(3)
    state = _State(C)
    stack = FlipMove(0, (1, 2, 3, 4), (6,))
    state.apply(stack)
    for k in range(4 * indexed):
        state.pool(k)  # the 3-moves remove (5,) and (6,)
    six = state.mask_of((1, 2, 6))
    assert state.face(six) == (1, 2, 6)
    state.apply(stack.inverse(3))  # vertex 6 vanishes and frees its bit
    # 7 takes it, once the dirty faces that may name 6 are re-tested
    state.apply(FlipMove(0, (1, 2, 3, 4), (7,)))
    assert state.mask_of((1, 2, 7)) == six
    assert state.face(six) == (1, 2, 7)
    assert [m.remove for m in state.legal_moves(3)] == [(5,), (7,)]
    low = state.mask_of((1, 2, 3))
    assert state.face(low) == (1, 2, 3)
    state.restore([tuple(v + 10 for v in F) for F in C.facets])
    assert state.face(low) == (11, 12, 13)


def test_memoized_parts_equal_fresh_ones_after_reverts_and_bit_reuse(
        complexes, monkeypatch):
    # the parts of a mask name no label, so one memo serves a state across
    # restore (a revert) and across a vanished vertex's bit taken by a new one
    states = []

    class Recorded(_State):
        def __init__(self, C):
            super().__init__(C)
            states.append(self)

    monkeypatch.setattr(flips, "_State", Recorded)
    _, _, stats = reduce(twisted_bundle(3), seed=3, budget=300)
    assert stats["reverts"] > 0
    C = complexes["RP3-11"]
    _, walk = random_walk(C, seed=5, steps=60)
    assert len(states) == 2
    new_vertices = sum(m.kind == 0 for m in walk)
    assert new_vertices > len(states[1]._labels) - C.n  # so a bit was reused
    for state in states:
        assert state._split
        for X, parts in state._split.items():
            assert parts == _parts(X)
            # each proper submask s once, 0 last, with |X-s|, and X-s if
            # that is one vertex
            bits = [b for b in (1 << i for i in range(X.bit_length())) if b & X]
            assert sorted(s for s, _, _ in parts) == sorted(
                sum(sub) for r in range(len(bits))
                for sub in itertools.combinations(bits, r))
            assert parts[-1][0] == 0
            assert all(r == (X ^ s).bit_count()
                       and x == (X ^ s if r == 1 else 0) for s, r, x in parts)


def _assert_pools_keep_their_tuples(state):
    """Each built pool is the sorted tuples of its ``_listed`` map, the very
    objects, and each is its mask decoded with the labels now."""
    for kind, listed in enumerate(state._listed):
        if listed is not None:
            pool, kept = state._pools[kind], sorted(listed.values())
            assert pool == kept and all(map(operator.is_, pool, kept)), kind
            assert all(t == _face(A, state._labels) for A, t in listed.items())


def test_pools_keep_their_tuples_across_reused_bits_and_reverts(
        complexes, monkeypatch):
    # a face that leaves a pool is found by its mask, not decoded again, so
    # the tuple kept for it must still be its labels when it leaves, also
    # after its vertex's bit went to a new vertex or a revert restored
    apply, reused = _State.apply, []

    def apply_and_check(state, m):
        reused.append(m.kind == 0 and bool(state._free))
        apply(state, m)
        _assert_pools_keep_their_tuples(state)

    monkeypatch.setattr(_State, "apply", apply_and_check)
    _, walk = random_walk(complexes["RP3-11"], seed=5, steps=60)
    assert len(reused) == 60 and any(reused)
    _, _, stats = reduce(twisted_bundle(3), seed=3, budget=300)
    assert stats["reverts"] > 0


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(1, 60),
       read_every=st.integers(1, 6), name=st.sampled_from(ORACLE_INPUTS[:2]))
def test_legal_move_index_matches_oracle_property(complexes, seed, steps,
                                                  read_every, name):
    C = _oracle_input(name, complexes)
    _, trace = random_walk(C, seed=seed, steps=steps)
    _replay_against_oracle(C, trace, read_every=read_every, seed=seed)


# --- the face index against brute force -------------------------------------

def _brute_face_index(facets):
    """Each face of a facet set (label tuples) -> the number of facets
    containing it and the sorted union of their vertices, from the
    definition.  Uses nothing of the flip engine."""
    count, union = {}, {}
    for F in facets:
        for r in range(1, len(F) + 1):
            for s in itertools.combinations(F, r):
                count[s] = count.get(s, 0) + 1
                union.setdefault(s, set()).update(F)
    return {s: (n, tuple(sorted(union[s]))) for s, n in count.items()}


def _assert_face_index_is_brute_force(state):
    """The face set, the facet counts ``c`` and the star-vertex masks ``V``
    of an indexed state equal the brute-force values of its snapshot."""
    assert state.V.keys() == state.c.keys()
    got = {state.face(s): (n, state.face(state.V[s])) for s, n in state.c.items()}
    assert got == _brute_face_index(state.snapshot())


FACE_INDEX_INPUTS = ("RP3-11", "S2xS2-11", "S3xS3-a-13 link")


@pytest.mark.parametrize("name", FACE_INDEX_INPUTS)
def test_face_index_is_brute_force_after_every_move_of_a_walk(name, complexes):
    C = _oracle_input(name, complexes)
    _, walk = random_walk(C, seed=5, steps=120)
    assert {m.kind for m in walk} == set(range(C.dim + 1))
    state = _State(C)
    state.f()
    _assert_face_index_is_brute_force(state)
    for m in walk:
        state.apply(m)
        _assert_face_index_is_brute_force(state)


@pytest.mark.parametrize("name", FACE_INDEX_INPUTS)
def test_face_index_is_brute_force_after_every_move_of_reduce(
        name, complexes, monkeypatch):
    # the reducer applies moves to an indexed state, and on a revert jumps
    # back to its best complex and builds the index again; the link of
    # S3xS3-a-13 reaches the boundary of the 6-simplex without a revert
    start, _ = random_walk(_oracle_input(name, complexes), seed=9, steps=40)
    apply, checked = _State.apply, []

    def apply_and_check(state, m):
        apply(state, m)
        if state.counts is not None:
            _assert_face_index_is_brute_force(state)
            checked.append(m)

    monkeypatch.setattr(_State, "apply", apply_and_check)
    _, trace, stats = reduce(start, seed=2, budget=100)
    assert (stats["reverts"] > 0) == (name != "S3xS3-a-13 link")
    # every move but those a revert jumps over
    assert checked and (checked == trace) == (stats["reverts"] == 0)


# --- determinism: the gate-5 walk traces are pinned -----------------------

WALK_TRACE_SHA256 = {
    "csaszar-torus": "afec175acb123b60e688d49d7f771cad67f0a68729b2b854766ee70865427d14",
    "RP3-11": "74343853b84befd7cc2d97e52508357bc2e696b194a3b602a303795901e4ba0c",
    "L31-12": "9b267498c73190b2d00248490466cf8e2df89ef727ed3f001d17d2b95a626a53",
    "S2xS2-11": "521a0b0e53d1e5ee4bf13aa390ae682fa6e1789c4bf9a5469f6422d14a8a514a",
    "S3twS1-12": "dd7610819e97f17bfb74317fb837c3f0ce5621ee2f0e283ad7e41b9d9243e11d",
}


@pytest.mark.parametrize("i,name", list(enumerate(WALK_TRACE_SHA256)))
def test_gate5_walk_traces_are_pinned(i, name, complexes):
    _, trace = random_walk(complexes[name], seed=1000 + i, steps=1000)
    digest = hashlib.sha256(write_trace(trace).encode()).hexdigest()
    assert digest == WALK_TRACE_SHA256[name]


def test_move_kinds_above_the_dimension_are_refused(csaszar):
    with pytest.raises(InvalidArgument, match=r"^move kind 3 out of range 0\.\.2$"):
        legal_moves(csaszar, 3)
    with pytest.raises(IllegalMove,
                       match="^kind 3 out of range for dimension 2$"):
        replay(csaszar, [FlipMove(3, (1,), (2, 3, 4, 5))])


# --- replay: the undo rule -------------------------------------------------

def _reference_replay(C, trace):
    """Check and apply every move, as replay did before the undo rule;
    returns the complex, or (index, message) of the first illegal move."""
    state = _State(C)
    for i, m in enumerate(trace):
        try:
            _check_legal(state, m)
        except IllegalMove as exc:
            return i, str(exc)
        state.apply(m)
    return from_facets(state.snapshot())


def _assert_replay_matches_reference(C, trace):
    expected = _reference_replay(C, trace)
    if isinstance(expected, tuple):
        i, message = expected
        assert replay(C, trace[:i]) == _reference_replay(C, trace[:i])
        with pytest.raises(IllegalMove) as err:
            replay(C, trace)
        assert str(err.value) == message
    else:
        assert replay(C, trace) == expected


def _undo_indices(trace, d):
    """Indices of the moves that undo the move on top of the undo stack."""
    undo, out = [], []
    for i, m in enumerate(trace):
        if undo and m == undo[-1]:
            undo.pop()
            out.append(i)
        else:
            undo.append(m.inverse(d))
    return out


@pytest.fixture(scope="module")
def twisted_seed3():
    C = twisted_bundle(3)
    return C, reduce(C, seed=3, budget=300)[1]


def test_replay_matches_the_reference_on_the_gate_traces(s2xs2_reduction,
                                                         twisted_seed3):
    P, trace, final = s2xs2_reduction
    assert replay(P, trace) == _reference_replay(P, trace) == final
    _assert_replay_matches_reference(*twisted_seed3)


def test_replay_matches_the_reference_on_every_prefix(twisted_seed3):
    # moves 51-100 of seed 3 undo its first 50 moves, so prefixes end
    # before, inside and after that run, and just after the pair of moves
    # 50 and 51, a checked move and its unchecked undo
    C, trace = twisted_seed3
    assert _undo_indices(trace[:110], C.dim) == list(range(50, 100))
    for k in range(111):
        assert replay(C, trace[:k]) == _reference_replay(C, trace[:k])


def test_replay_checks_and_applies_only_what_the_undo_stack_cannot_vouch_for(
        s2xs2_reduction, monkeypatch):
    P, trace, final = s2xs2_reduction
    assert len(trace) == 18_225 and len(_undo_indices(trace, P.dim)) == 8_580
    calls = {"check": 0, "apply": 0}
    apply = _State.apply

    def counted_check(*args):
        calls["check"] += 1
        return _check_legal(*args)

    def counted_apply(*args):
        calls["apply"] += 1
        return apply(*args)

    monkeypatch.setattr("mwb.flips._check_legal", counted_check)
    monkeypatch.setattr(_State, "apply", counted_apply)
    assert replay(P, trace) == final
    # 18,225 - 8,580 checks; every move is applied
    assert calls == {"check": 9_645, "apply": 18_225}


def test_a_corrupted_undo_raises_at_its_own_index(twisted_seed3):
    C, trace = twisted_seed3
    undos = _undo_indices(trace, C.dim)
    vertices = set(C.vertices())
    for i in (undos[0], undos[len(undos) // 2], undos[-1]):
        m = trace[i]
        other = min(vertices - set(m.remove) - set(m.insert))
        bad = FlipMove(m.kind, m.remove, (other,) + m.insert[1:])
        corrupted = trace[:i] + [bad] + trace[i + 1:]
        assert _reference_replay(C, corrupted)[0] == i
        _assert_replay_matches_reference(C, corrupted)


def test_an_undo_with_reordered_tuples_replays_to_the_same_complex(
        twisted_seed3):
    C, trace = twisted_seed3
    reordered = list(trace)
    for i in _undo_indices(trace, C.dim)[::3]:
        m = trace[i]
        reordered[i] = FlipMove(m.kind, m.remove[::-1], m.insert[::-1])
    assert reordered != trace
    assert replay(C, reordered) == replay(C, trace) == _reference_replay(C, trace)


def test_an_illegal_move_after_a_skipped_pair_raises_at_its_own_index():
    # a move and its undo give back the complex before the pair; the
    # repeated undo is checked against it, where it is illegal
    C = twisted_bundle(3)
    stack = FlipMove(0, C.facets[0], (13,))
    stacked = apply_move(C, stack)
    for start, m in ((C, stack), (C, legal_moves(C, 1)[0]),
                     (stacked, stack.inverse(3))):
        undo = m.inverse(3)
        trace = [m, undo, undo]
        assert _reference_replay(start, trace)[0] == 2
        _assert_replay_matches_reference(start, trace)
    with pytest.raises(IllegalMove, match=r"^\(13,\) is not a face$"):
        replay(C, [stack, stack.inverse(3), stack.inverse(3)])
    # the first move of a pair is checked before its undo is seen
    bad = FlipMove(1, (1, 2, 3), (4, 5))
    assert _reference_replay(C, [bad, bad.inverse(3)])[0] == 0
    _assert_replay_matches_reference(C, [bad, bad.inverse(3)])


def _back_and_forth_trace(C, seed, steps, push_weight):
    """A walk that pushes random legal moves of every kind (0- and d-moves
    take fresh labels and remove vertices) and pops them with their
    inverses, nested at random; one pop in five writes the inverse with its
    tuples reversed, which the undo rule does not match."""
    state = _State(C)
    rng = SplitMix64(seed)
    trace, done = [], []
    for _ in range(steps):
        if done and rng.randrange(push_weight + 1) == 0:
            m = done.pop().inverse(C.dim)
            if rng.randrange(5) == 0:
                m = FlipMove(m.kind, m.remove[::-1], m.insert[::-1])
        else:
            kind, pool = rng.choice([(k, p) for k in range(C.dim + 1)
                                     if (p := state.pool(k))])
            m = state.move(kind, rng.choice(pool))
            done.append(m)
        state.apply(m)
        trace.append(m)
    return trace


@pytest.mark.parametrize("name", ["csaszar-torus", "RP3-11"])
def test_back_and_forth_traces_undo_every_move_kind(name, complexes):
    # the undone moves include 0-moves, which take fresh labels, and
    # d-moves, whose undo brings a removed vertex back
    C = complexes[name]
    kinds = set()
    for seed in range(3):
        trace = _back_and_forth_trace(C, seed, 80, 1)
        kinds |= {trace[i].kind for i in _undo_indices(trace, C.dim)}
        _assert_replay_matches_reference(C, trace)
    assert {0, C.dim} <= kinds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(1, 80),
       push_weight=st.integers(1, 3),
       name=st.sampled_from(["csaszar-torus", "RP3-11"]))
def test_replay_matches_the_reference_on_back_and_forth_traces(
        complexes, seed, steps, push_weight, name):
    C = complexes[name]
    trace = _back_and_forth_trace(C, seed, steps, push_weight)
    _assert_replay_matches_reference(C, trace)
    cut = SplitMix64(seed).randrange(len(trace))
    m = trace[cut]  # and with one move corrupted
    corrupted = trace[:cut] + [FlipMove(m.kind, m.remove, m.remove)] + trace[cut + 1:]
    _assert_replay_matches_reference(C, corrupted)
