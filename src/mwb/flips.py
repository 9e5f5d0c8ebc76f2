"""Bistellar moves and a simulated-annealing search for small triangulations.

An i-move removes a (d-i)-face A whose link is the boundary of an i-simplex
B not yet present in the complex and replaces A*dB by dA*B.  0-moves stack a
facet over a fresh vertex; d-moves delete a vertex whose link is a boundary
simplex.  The reducer greedily prefers moves that lower the lexicographic
f-vector, escapes local minima with bounded random "heating" phases, and
returns to the best complex whenever an excursion fails to improve it (the
trace records inverse moves, so it stays replayable; the state jumps back).

Legal moves are kept incrementally (see ``_State``): only the faces in the
changed stars, and those whose insert-face a move created or deleted, are
re-tested, all at once when the pool is read, so a move costs what its star
costs, not what the complex does.  Faces are int bitmasks, and until the
f-vector or a pool of kind >= 1 is read only vertex stars are kept: a move
in ``replay`` updates each of its d+2 vertex stars once.  Picks draw from
the legal moves sorted by remove-face as label tuples, never by mask, so
every search and walk, and its trace, depends only on (input, seed, budget,
schedule); ``tri_io`` writes and reads the text of a trace.

The undo rule: right after a legal k-move (k, A, B) its inverse (d-k, B, A)
is legal and restores the complex exactly.  So ``replay`` keeps a stack of
the inverses of the moves not yet undone, checks only a move that is not the
inverse on top, and applies neither a move nor its undo when one follows the
other.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from operator import add

from . import core
from .core import Complex
from .errors import BudgetZero, IllegalMove, InvalidArgument

_MASK = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic 64-bit generator; stable across releases."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class FlipMove:
    kind: int
    remove: tuple
    insert: tuple

    def inverse(self, d: int) -> "FlipMove":
        return FlipMove(d - self.kind, self.insert, self.remove)


# heating phases: 10 moves at first, growing by half per phase up to 200
HEAT_INIT = 10
HEAT_GROWTH = 1.5
HEAT_CAP = 200


@dataclass
class Schedule:
    """Stop targets: a vertex count to reach, or an exact f-vector."""

    target_f0: int | None = None
    target_f: tuple | None = None

    def reached(self, fvec: tuple) -> bool:
        return ((self.target_f is not None and tuple(fvec) == tuple(self.target_f))
                or (self.target_f0 is not None and fvec[0] <= self.target_f0))


def _face(s: int, labels) -> tuple:
    """The sorted labels of a mask, given the label of each bit."""
    out = []
    while s:
        low = s & -s
        out.append(labels[low.bit_length() - 1])
        s ^= low
    return tuple(sorted(out))


def _f_deltas(d: int) -> list:
    """Per kind k, the change of each f_j under a k-move: the j-faces B u T
    (T a proper subset of A) appear, and the j-faces A u S (S a proper
    subset of B) vanish.  For j <= d both subsets are proper by size."""
    def c(n, i):
        return comb(n, i) if i >= 0 else 0
    return [tuple(c(d - k + 1, j - k) - c(k + 1, j + k - d)
                  for j in range(d + 1)) for k in range(d + 1)]


class _State:
    """Mutable set of facet masks with a star index and a legal-move index,
    both built only as far as something reads them.

    Bits come from a label -> bit map, not from the labels themselves, so
    masks stay as wide as the complex however large its labels grow: a new
    vertex takes a free bit, and a vanished vertex's bit becomes free again
    only once no kind's index holds a dirty face, so no stale mask can name
    the new vertex.
    ``facets`` holds masks; ``snapshot`` decodes them, and ``mark`` records
    them with the bit labels for a later ``snapshot``.  The pools hold label
    tuples in sorted order, so picks and traces never depend on bits; each
    kind also keeps the set of masks in its pool, so a re-test decodes a
    mask and touches the sorted list only when a face joins or leaves it.
    ``face`` decodes a mask once and keeps the tuple until a freed bit may
    take a new label, so pools and moves share their tuples.

    ``star`` maps a face to the facet masks containing it.  At first it
    holds the vertices only: a move updates each vertex star of A u B once,
    the star of a face is the intersection of its vertices' stars
    (``_star_of``), and a set is a face iff that star is not empty.  The
    first ``f()`` or ``pool(kind)`` with kind >= 1 builds the star of every
    face and counts the f-vector; from then on a facet update walks the
    facet's submasks (kept per facet mask: pure arithmetic, never stale),
    and a k-move changes the f-vector by a constant per kind (``_f_deltas``).

    Labels need not stay contiguous while moves are applied (d-moves leave
    gaps); complexes are compacted only on export.  That keeps every move
    exactly invertible in place.

    The legal-move index of a kind is built on the first ``pool(kind)`` call,
    so replaying a trace never pays for it: every face of the size is marked
    dirty and the pool is read.  From then on a move marks dirty the faces
    whose star it changed (the proper subfaces of A u B) and, when it
    creates or deletes a face B, every remove-face whose link is dB; a pool
    read re-tests all dirty faces of its kind in one batch.
    """

    def __init__(self, C: Complex):
        self.d = C.dim
        self.max_label = C.n
        self._deltas = _f_deltas(self.d)
        self._subs: dict = {}  # facet mask -> its nonzero submasks
        self.restore(C.facets)

    def restore(self, facets):
        """Become the complex of these facets (label tuples) as a fresh state
        would, but keep ``max_label``, so fresh labels never repeat."""
        self.facets: set = set()  # facet masks
        self.star: dict = {}      # face mask -> set of facet masks
        self.counts = None        # the f-vector, once every face has a star
        self._bit: dict = {}      # live vertex label -> its bit (a power of 2)
        self._labels: list = []   # bit index -> label, the mask width
        self._faces: dict = {}    # mask -> its decoded labels
        self._free: list = []     # bit indices free to take
        self._vanished: list = []  # bit indices of vanished vertices, not yet free
        # per kind: sorted remove-faces of the legal moves (kind 0: facets),
        # None until first read
        self._pools: list = [None] * (self.d + 1)
        self._listed: list = [None] * (self.d + 1)   # kind -> masks in the pool
        self._spheres: list = [None] * (self.d + 1)  # kind -> {A: B}, link(A) = dB
        self._dirty: list = [None] * (self.d + 1)    # kind -> faces to re-test
        self._wants: dict = {}   # B -> [A : link(A) = dB], B a face or not
        self._indexed: list = []  # kinds >= 1 with an index
        for v in sorted({v for F in facets for v in F}):
            self._add_vertex(v)
        for F in facets:  # vertex stars only
            s = self._mask(F)
            self.facets.add(s)
            for v in F:
                self.star.setdefault(self._bit[v], set()).add(s)

    def _add_vertex(self, v: int):
        if self._free:
            i = self._free.pop()
            self._labels[i] = v
        else:
            i = len(self._labels)
            self._labels.append(v)
        self._bit[v] = 1 << i

    def _release(self):
        # every mask that can still name a vanished vertex is a dirty face
        if not any(self._dirty[kind] for kind in self._indexed):
            self._free += self._vanished
            self._vanished = []
            self._faces.clear()  # a freed bit may take a new label

    def _mask(self, face) -> int:
        return sum(map(self._bit.__getitem__, face))

    def mask_of(self, face):
        """The mask of a set of distinct live vertices, else None."""
        try:
            s = self._mask(face)
        except KeyError:
            return None
        return s if s.bit_count() == len(face) else None

    def face(self, s: int) -> tuple:
        """The sorted labels of a mask."""
        return self._faces.get(s) or self._faces.setdefault(s, _face(s, self._labels))

    def _submasks(self, F: int) -> tuple:
        subs = self._subs.get(F)
        if subs is None:
            subs, s = [], F
            while s:
                subs.append(s)
                s = (s - 1) & F
            subs = self._subs[F] = tuple(subs)
        return subs

    def _swap(self, removed, added):
        """Swap facets in the face star, dirtying the faces whose link bounds
        a face that vanishes or appears."""
        star, wants, dirty = self.star, self._wants, self._dirty
        for F in removed:
            for s in self._submasks(F):
                st = star[s]
                st.discard(F)
                if not st:
                    del star[s]
                    if s in wants:  # moves inserting s may open up
                        dirty[s.bit_count() - 1].update(wants[s])
        for F in added:
            for s in self._submasks(F):
                st = star.get(s)
                if st is None:
                    star[s] = {F}
                    if s in wants:  # moves inserting s are now blocked
                        dirty[s.bit_count() - 1].update(wants[s])
                else:
                    st.add(F)

    def _index_faces(self):
        """Give every face a star, and count the f-vector."""
        self.star = {}
        self._swap((), self.facets)
        counts = [0] * (self.d + 1)
        for s in self.star:
            counts[s.bit_count() - 1] += 1
        self.counts = tuple(counts)

    def f(self) -> tuple:
        if self.counts is None:
            self._index_faces()
        return self.counts

    def fresh_label(self) -> int:
        return self.max_label + 1

    def _star_of(self, s: int):
        """The facets containing s; empty or None if s is not a face."""
        star = self.star
        if self.counts is not None:
            return star.get(s)
        st = star.get(s & -s)
        s &= s - 1
        while s and st:
            st = st.intersection(star.get(s & -s, ()))
            s &= s - 1
        return st

    def candidate(self, kind: int, A: int):
        """Return the insert-face B if (A, B) is a legal kind-move (kind >= 1),
        else None."""
        st = self._star_of(A)
        if not st or len(st) != kind + 1:
            return None
        U = 0
        for F in st:
            U |= F
        B = U ^ A
        return B if B.bit_count() == kind + 1 and not self._star_of(B) else None

    def _build(self, kind: int) -> list:
        if not kind:
            pool = self._pools[0] = sorted(map(self.face, self.facets))
            return pool
        self.f()  # builds the face star
        size = self.d - kind + 1
        self._spheres[kind], self._listed[kind], self._pools[kind] = {}, set(), []
        self._dirty[kind] = {A for A in self.star if A.bit_count() == size}
        self._indexed.append(kind)
        return self.pool(kind)

    def _retest(self, kind: int, dirty):
        """Re-test faces A of size d-kind+1 in one pass: link(A) = dB iff the
        star of A has kind+1 facets whose union less A is kind+1 vertices B,
        and A is in the pool iff B is not a face."""
        star, wants, face = self.star, self._wants, self.face
        spheres, listed = self._spheres[kind], self._listed[kind]
        pool, n, joined = self._pools[kind], kind + 1, []
        for A in dirty:
            B = None
            st = star.get(A)
            if st is not None and len(st) == n:  # else no sphere: skip the OR
                U = 0
                for F in st:
                    U |= F
                U ^= A
                if U.bit_count() == n:
                    B = U
            old = spheres.get(A)
            if B != old:
                if old is not None:
                    del spheres[A]
                    wanting = wants[old]
                    wanting.remove(A)
                    if not wanting:
                        del wants[old]
                if B is not None:
                    spheres[A] = B
                    wants.setdefault(B, []).append(A)
            if B is not None and B not in star:
                if A not in listed:
                    listed.add(A)
                    joined.append(A)
            elif A in listed:
                listed.remove(A)
                del pool[bisect.bisect_left(pool, face(A))]
        # in order, so a new pool is built by appends, not by a shift per face
        for t in sorted(map(face, joined)):
            bisect.insort(pool, t)
        dirty.clear()

    def pool(self, kind: int) -> list:
        """Remove-faces of the legal kind-moves, sorted; do not mutate."""
        pool = self._pools[kind]
        if pool is None:
            return self._build(kind)
        if kind and self._dirty[kind]:
            self._retest(kind, self._dirty[kind])
        if self._vanished:
            self._release()
        return pool

    def move(self, kind: int, A: tuple) -> FlipMove:
        """The legal move of a remove-face taken from ``pool(kind)``."""
        if kind == 0:
            return FlipMove(0, A, (self.fresh_label(),))
        return FlipMove(kind, A, self.face(self._spheres[kind][self._mask(A)]))

    def legal_moves(self, kind: int):
        return [self.move(kind, A) for A in self.pool(kind)]

    def apply(self, m: FlipMove):
        if m.kind == 0:
            self._add_vertex(m.insert[0])
            self.max_label = max(self.max_label, m.insert[0])
        bits = [self._bit[v] for v in (*m.remove, *m.insert)]
        AB, r = sum(bits), len(m.remove)
        removed = [AB ^ b for b in bits[r:]]  # A u B less a vertex of B
        added = [AB ^ a for a in bits[:r]]    # A u B less a vertex of A
        self.facets.difference_update(removed)
        self.facets.update(added)
        if self.counts is None:
            # vertex stars only: the star of each v in A u B loses the
            # removed facets and gains the added ones but A u B - v
            star = self.star
            for b in bits:
                st = star.get(b)
                if st is None:  # a 0-move's fresh vertex
                    star[b] = set(added)
                else:
                    st.difference_update(removed)
                    st.update(added)
                    st.discard(AB ^ b)
                    if not st:  # a d-move's vertex
                        del star[b]
        else:
            self._swap(removed, added)
            self.counts = tuple(map(add, self.counts, self._deltas[m.kind]))
        facet_pool = self._pools[0]
        if facet_pool is not None:
            for F in removed:
                del facet_pool[bisect.bisect_left(facet_pool, self.face(F))]
            for G in added:
                bisect.insort(facet_pool, self.face(G))
        if self._indexed:
            # the faces whose star changed are the proper subfaces of A u B
            for kind in self._indexed:
                dirty = self._dirty[kind]
                dirty.update(map(sum, combinations(bits, self.d - kind + 1)))
                if len(dirty) > 2 * self.counts[self.d - kind]:
                    # a kind the reducer seldom reads (the heating kinds)
                    # would otherwise pile up every face it ever had
                    self.pool(kind)
        if m.kind == self.d:  # the removed vertex's bit waits in _vanished
            self._vanished.append(self._bit.pop(m.remove[0]).bit_length() - 1)
            self._release()

    def mark(self) -> tuple:
        """A cheap record of the complex now, for ``snapshot``."""
        return frozenset(self.facets), tuple(self._labels)

    def snapshot(self, mark=None) -> tuple:
        """The sorted facets of the complex now, or of a ``mark``."""
        masks, labels = mark or (self.facets, self._labels)
        return tuple(sorted(_face(F, labels) for F in masks))


def legal_moves(C: Complex, i: int) -> list:
    """All legal i-moves, lexicographically ordered by remove-face."""
    if not 0 <= i <= C.dim:
        raise InvalidArgument(f"move kind {i} out of range 0..{C.dim}")
    return _State(C).legal_moves(i)


def _check_legal(state: _State, m: FlipMove):
    if not 0 <= m.kind <= state.d:
        raise IllegalMove(f"kind {m.kind} out of range for dimension {state.d}")
    A = tuple(sorted(m.remove))
    if len(A) != state.d - m.kind + 1:
        raise IllegalMove(f"remove-face {A} has wrong size for a {m.kind}-move")
    if m.kind == 0:
        if state.mask_of(A) not in state.facets:
            raise IllegalMove(f"{A} is not a facet")
        if len(m.insert) != 1 or m.insert[0] in state._bit:
            raise IllegalMove(f"0-move must insert a fresh vertex, got {m.insert}")
        return
    # a label that is not a live vertex has no bit: such a set is no face
    a, b = state.mask_of(A), state.mask_of(m.insert)
    B = None if a is None else state.candidate(m.kind, a)
    if B is None:
        if a is None or not state._star_of(a):
            raise IllegalMove(f"{A} is not a face")
        if b is not None and state._star_of(b):
            raise IllegalMove(
                f"insert-face {tuple(sorted(m.insert))} is already a face")
        raise IllegalMove(f"link of {A} is not the boundary of a simplex")
    if B != b:
        raise IllegalMove(
            f"link of {A} is the boundary of {state.face(B)}, not of {m.insert}")


def replay(C: Complex, trace) -> Complex:
    """Re-apply a recorded move sequence; raises IllegalMove with the
    violated clause at the first illegal move.

    By the undo rule (above), an undo is not checked, and neither a move
    nor its undo is applied when the undo comes next; an undo with its
    labels in another order is checked.  Labels are kept exactly as
    recorded, as the reducer does; the final complex is canonicalized, so
    after a d-move the labels above the removed vertex shift down by one.
    """
    state = _State(C)
    undo = []    # the inverses of the moves not yet undone
    held = None  # a checked move, applied unless its undo comes next
    for m in trace:
        if undo and m == undo[-1]:  # it undoes a legal move, so is legal
            undo.pop()
            if held is None:
                state.apply(m)
            held = None  # else the held move and its undo cancel
        else:
            if held is not None:
                state.apply(held)
            _check_legal(state, m)
            undo.append(m.inverse(state.d))
            held = m
    if held is not None:
        state.apply(held)
    return core.from_facets(state.snapshot())


def apply_move(C: Complex, m: FlipMove) -> Complex:
    """Apply one legal move: ``replay`` of a one-move trace."""
    return replay(C, (m,))


def random_walk(C: Complex, seed: int, steps: int):
    """Apply random legal moves; returns (complex, trace).

    Each step picks a kind uniformly among those with legal moves, then a
    uniform move of that kind, which keeps vertex-adding and vertex-removing
    moves balanced.  Useful as an independent exerciser: every step
    preserves the PL type, so homology and the pseudomanifold property must
    survive any walk.
    """
    state = _State(C)
    rng = SplitMix64(seed)
    trace = []
    for _ in range(steps):
        # never empty: the kind-0 pool lists the facets
        pools = [(k, pool) for k in range(state.d + 1)
                 if (pool := state.pool(k))]
        kind, pool = rng.choice(pools)
        m = state.move(kind, rng.choice(pool))
        state.apply(m)
        trace.append(m)
    return core.from_facets(state.snapshot()), trace


def _pick_improving(state: _State, rng: SplitMix64):
    for kind in range(state.d, state.d // 2, -1):
        pool = state.pool(kind)
        if pool:
            return state.move(kind, rng.choice(pool))


def _pick_heating(state: _State, rng: SplitMix64):
    # middle-dimension moves, weighted 16:1 against the next-lower kind; a
    # kind without moves costs one more draw before the other is tried, and
    # a saturated state ends the phase early
    mid = state.d // 2
    kinds = (mid, mid - 1) if mid > 1 else (mid,)
    if rng.randrange(17) == 16:
        kinds = kinds[::-1]
    for i, kind in enumerate(kinds):
        if i:
            rng.next_u64()
        pool = state.pool(kind)
        if pool:
            return state.move(kind, rng.choice(pool))


def reduce(C: Complex, seed: int, budget: int,
           schedule: Schedule | None = None):
    """Search for a lexicographically f-vector-minimal triangulation.

    Deterministic in (input, seed, budget, schedule).  Returns the best
    complex found, the move trace (replayable; it includes the inverse
    moves that back out of failed excursions and count against the budget,
    though the state jumps back instead of applying them), and a statistics
    dict whose "final" entry is the complex the walk ended on.
    """
    if budget <= 0:
        raise BudgetZero("move budget must be positive")
    schedule = schedule or Schedule()
    if schedule.target_f is not None and len(schedule.target_f) != C.dim + 1:
        raise InvalidArgument(f"target f-vector needs {C.dim + 1} entries")
    state = _State(C)
    rng = SplitMix64(seed)
    best = state.mark()  # decoded on a revert and at the end
    best_f = state.f()
    trace: list = []
    since_best: list = []
    stats = {"moves": 0, "heating_phases": 0, "reverts": 0, "best_step": 0,
             "start_f": state.f()}
    heat, heat_len, fails = 0, HEAT_INIT, 0
    while len(trace) < budget and not schedule.reached(best_f):
        move = None
        if heat == 0:
            move = _pick_improving(state, rng)
            if move is None:
                # stuck: every few failed excursions back out to the best
                fails += 1
                if since_best and fails % 3 == 0:
                    stats["reverts"] += 1
                    while since_best and len(trace) < budget:
                        trace.append(since_best.pop().inverse(state.d))
                    state.restore(state.snapshot(best))
                    for m in since_best:
                        state.apply(m)
                    if len(trace) == budget:
                        break  # the revert used up the budget
                heat = int(heat_len)
                heat_len = min(HEAT_CAP, heat_len * HEAT_GROWTH)
                stats["heating_phases"] += 1
        if move is None:  # so heat > 0: a phase just began or goes on
            move = _pick_heating(state, rng)
            heat -= 1
            if move is None:
                heat = 0  # saturated: cut the phase short and descend
                if not since_best:
                    break  # stuck at best with no heating moves at all
                continue
        state.apply(move)
        trace.append(move)
        since_best.append(move)
        f = state.f()
        if f < best_f:
            best_f = f
            best = state.mark()
            since_best.clear()
            stats["best_step"] = len(trace)
            heat, heat_len, fails = 0, HEAT_INIT, 0
    stats.update(moves=len(trace), best_f=best_f, final_f=state.f(),
                 final=core.from_facets(state.snapshot()))
    return core.from_facets(state.snapshot(best)), trace, stats


def reduce_multi(C: Complex, seeds, budget: int,
                 schedule: Schedule | None = None, threads: int = 1):
    """Run reduce over several seeds; returns (best, seed, trace, stats).

    The winner is the first seed, in the given order, whose best complex
    reaches the schedule target; if none does, the run with the least
    (stats["best_f"], seed) wins.  One scan in seed order over
    ``core.process_map`` applies this rule, so ``threads`` cannot change the
    winner: one worker stops at it, and a pool runs every seed first.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidArgument("need at least one seed")
    reached = (schedule or Schedule()).reached
    runs = core.process_map(
        partial(reduce, C, budget=budget, schedule=schedule), seeds, threads)
    least = None
    for seed, (best, trace, stats) in zip(seeds, runs):
        if reached(stats["best_f"]):
            return best, seed, trace, stats
        if least is None or (stats["best_f"], seed) < least[0]:
            least = (stats["best_f"], seed), (best, seed, trace, stats)
    return least[1]
