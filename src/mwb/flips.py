"""Bistellar moves and a simulated-annealing search for small triangulations.

An i-move removes a (d-i)-face A whose link is the boundary of an i-simplex
B not yet present in the complex and replaces A*dB by dA*B.  0-moves stack a
facet over a fresh vertex; d-moves delete a vertex whose link is a boundary
simplex.  The reducer greedily prefers moves that lower the lexicographic
f-vector, escapes local minima with bounded random "heating" phases, and
returns to the best complex whenever an excursion fails to improve it (the
trace records inverse moves, so it stays replayable; the state jumps back).
Legal moves are kept incrementally on int bitmask faces (see ``_State``).
Picks draw from the legal moves sorted by remove-face as label tuples, never
by mask, so every search and walk, and its trace, depends only on (input,
seed, budget, schedule); ``tri_io`` reads and writes traces.

The undo rule: right after a legal k-move (k, A, B) its inverse (d-k, B, A)
is legal and restores the complex exactly.  So ``replay`` keeps a stack of
the inverses of the moves not yet undone and checks only a move that is not
the inverse on top; it applies every move.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
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


@dataclass(frozen=True, slots=True)
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


def _parts(X: int) -> list:
    """(s, |X-s|, X-s if one vertex else 0) for each proper submask s of X,
    0 last.  It names no label, so a ``_State`` keeps it per mask."""
    subs = [(X - 1) & X]
    while subs[-1]:
        subs.append((subs[-1] - 1) & X)
    return [(s, (t := X ^ s).bit_count(), t if t & (t - 1) == 0 else 0)
            for s in subs]


class _State:
    """Mutable set of facet masks with a face index and a legal-move index,
    both built only as far as something reads them.

    Bits come from a label -> bit map, so masks stay as wide as the complex
    however large its labels grow (they are compacted only on export, so
    every move is exactly invertible in place).  A new vertex takes a
    vanished one's bit only after every dirty face is re-tested, so no stale
    mask names it; ``face`` decodes a mask once and keeps the tuple until
    then.  ``_split`` keeps the ``_parts`` of a mask for the life of the
    state, as they name no label.  ``mark`` records ``facets`` with the
    labels for a later ``snapshot``.  The pools hold sorted label tuples, so
    picks never depend on bits.

    At first the state is its facet set, and a move only rewrites it; a
    checked move scans it (``_star``).  The first ``f()`` or
    ``pool(kind >= 1)`` builds the face index: ``c[s]``, the number of
    facets containing the face s, and ``V[s]``, their OR.  A kind-k move at
    A is legal iff c[A] = k+1 and B = V[A] ^ A has k+1 vertices and is no
    face: k+1 distinct k-subsets of a (k+1)-set are all of them.  A move
    rewrites both on the proper subfaces of A u B, and the f-vector by a
    constant per kind.

    A kind's legal-move index is built on its first ``pool`` read, with
    every face of its size dirty.  A move dirties only the faces whose move
    it may change (``_update``); a pool read re-tests them in one batch.
    """

    def __init__(self, C: Complex):
        self.d, self.max_label = C.dim, C.n
        self._deltas = _f_deltas(self.d)
        self._split: dict = {}  # mask -> _parts(mask), for any labels
        self.restore(C.facets)

    def restore(self, facets):
        """Become the complex of these facets (label tuples) as a fresh state
        would, but keep ``max_label``, so fresh labels never repeat."""
        self.c = self.V = None    # face mask -> facet count, OR of facets
        self.counts = None        # the f-vector, once every face is indexed
        self._bit: dict = {}      # live vertex label -> its bit (a power of 2)
        self._labels: list = []   # bit index -> label, the mask width
        self._faces: dict = {}    # mask -> its decoded labels
        self._free: list = []     # bit indices of vanished vertices
        # per kind, None until read: sorted remove-faces (kind 0: facets)
        self._pools: list = [None] * (self.d + 1)
        self._listed: list = [None] * (self.d + 1)   # kind -> masks in the pool
        self._spheres: list = [None] * (self.d + 1)  # kind -> {A: B}, link(A) = dB
        self._dirty: list = [None] * (self.d + 1)    # kind -> faces to re-test
        self._wants: dict = {}   # B -> [A : link(A) = dB], B a face or not
        self._indexed: list = []  # kinds >= 1 with an index
        for v in sorted({v for F in facets for v in F}):
            self._add_vertex(v)
        self.facets: set = set(map(self._mask, facets))  # facet masks

    def _add_vertex(self, v: int):
        if self._free:
            # a mask naming a vanished vertex is a dirty face until re-tested
            for kind in self._indexed:
                self.pool(kind)
            self._faces.clear()
            i = self._free.pop()
            self._labels[i] = v
        else:
            i = len(self._labels)
            self._labels.append(v)
        self._bit[v] = 1 << i

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

    def _update(self, A: int, B: int):
        """Rewrite ``c`` and ``V`` on the proper subfaces s of A u B for the
        move (A, B): faces containing A vanish, faces containing B appear
        with c = |A-s| and V = A u B (V = s if c = 1), and every other s gets
        c += |A-s| - |B-s| and V ^= each of A-s, B-s that is one vertex.
        Dirty those that vanish or appear, the faces whose link bounds one of
        them, and each other s whose move may change: c = |A-s| + |B-s| (its
        kind+1) before or after, and |A-s| != |B-s| or both are 1."""
        c, V, wants, dirty = self.c, self.V, self._wants, self._dirty
        split = self._split
        AB, on_B = A | B, split.get(B) or split.setdefault(B, _parts(B))
        touched = [[] for _ in range(self.d + 2)]  # [r]: s with |A u B - s| = r
        for b, rb, _ in on_B:  # the faces A u b, b a proper part of B, vanish
            s = A | b
            touched[rb].append(s)
            del c[s], V[s]
            if s in wants:  # moves inserting s may open up
                dirty[s.bit_count() - 1].update(wants[s])
        for a, ra, xa in split.get(A) or split.setdefault(A, _parts(A)):
            s = a | B  # appears, in the added facets that miss a vertex of A - a
            touched[ra].append(s)
            c[s], V[s] = ra, s if ra == 1 else AB
            if s in wants:  # moves inserting s are now blocked
                dirty[s.bit_count() - 1].update(wants[s])
            for b, rb, xb in on_B if a else on_B[:-1]:
                s = a | b
                n = c[s]  # ra + rb after the move iff n = 2 rb
                if (n == ra + rb or n == 2 * rb) and (ra != rb or xa):
                    touched[ra + rb].append(s)
                if ra != rb:
                    c[s] = n + ra - rb
                if xa != xb:
                    V[s] ^= xa ^ xb
        for kind in self._indexed:  # of size d+1 - kind = |A u B| - (kind+1)
            dirty[kind].update(touched[kind + 1])

    def _index_faces(self):
        """Count and OR the facets of every face, and count the f-vector."""
        c, V = self.c, self.V = {}, {}
        for F in self.facets:
            s = F
            while s:
                c[s] = c.get(s, 0) + 1
                V[s] = V.get(s, 0) | F
                s = (s - 1) & F
        counts = [0] * (self.d + 1)
        for s in c:
            counts[s.bit_count() - 1] += 1
        self.counts = tuple(counts)

    def f(self) -> tuple:
        if self.counts is None:
            self._index_faces()
        return self.counts

    def fresh_label(self) -> int:
        return self.max_label + 1

    def _star(self, s: int) -> tuple:
        """(The number of facets containing s, their OR) by a scan of the
        facets, so without the face index; (0, 0) if no face."""
        st, U = [F for F in self.facets if F & s == s], 0
        for F in st:
            U |= F
        return len(st), U

    def _build(self, kind: int) -> list:
        if not kind:
            pool = self._pools[0] = sorted(map(self.face, self.facets))
            return pool
        self.f()  # builds the face index
        size = self.d - kind + 1
        self._spheres[kind], self._listed[kind], self._pools[kind] = {}, set(), []
        self._dirty[kind] = {A for A in self.c if A.bit_count() == size}
        self._indexed.append(kind)
        return self.pool(kind)

    def _retest(self, kind: int, dirty):
        """Re-test faces A of size d-kind+1 in one pass: link(A) = dB iff
        c[A] = kind+1 and B = V[A] ^ A has kind+1 vertices, and A is in the
        pool iff B is not a face."""
        c, V, wants, face = self.c, self.V, self._wants, self.face
        spheres, listed = self._spheres[kind], self._listed[kind]
        pool, n, joined = self._pools[kind], kind + 1, []
        for A in dirty:
            B = V[A] ^ A if c.get(A) == n else 0
            if B.bit_count() != n:
                B = 0  # no sphere
            old = spheres.get(A, 0)
            if B != old:
                if old:
                    del spheres[A]
                    wanting = wants[old]
                    wanting.remove(A)
                    if not wanting:
                        del wants[old]
                if B:
                    spheres[A] = B
                    wants.setdefault(B, []).append(A)
            if B and B not in c:
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
        if self.counts is not None:  # the face index is built
            self._update(sum(bits[:r]), sum(bits[r:]))
            self.counts = tuple(map(add, self.counts, self._deltas[m.kind]))
        facet_pool = self._pools[0]
        if facet_pool is not None:
            for F in removed:
                del facet_pool[bisect.bisect_left(facet_pool, self.face(F))]
            for G in added:
                bisect.insort(facet_pool, self.face(G))
        if m.kind == self.d:  # the removed vertex's bit waits in _free
            self._free.append(self._bit.pop(m.remove[0]).bit_length() - 1)

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
    n, U = (0, 0) if a is None else state._star(a)
    if not n:
        raise IllegalMove(f"{A} is not a face")
    B = U ^ a  # legal iff link(A) = dB, a k-simplex that is no face
    if n != m.kind + 1 or B.bit_count() != n or state._star(B)[0]:
        if b is not None and state._star(b)[0]:
            raise IllegalMove(
                f"insert-face {tuple(sorted(m.insert))} is already a face")
        raise IllegalMove(f"link of {A} is not the boundary of a simplex")
    if B != b:
        raise IllegalMove(
            f"link of {A} is the boundary of {state.face(B)}, not of {m.insert}")


def replay(C: Complex, trace) -> Complex:
    """Re-apply a recorded move sequence; raises IllegalMove with the
    violated clause at the first illegal move.

    By the undo rule (above), an undo is not checked; an undo with its
    labels in another order is checked.  Every move is applied to the bare
    facet set, so no face index is built.  Labels are kept exactly as
    recorded, as the reducer does; the final complex is canonicalized, so
    after a d-move the labels above the removed vertex shift down by one.
    """
    state = _State(C)
    undo = []  # the inverses of the moves not yet undone
    for m in trace:
        if undo and m == undo[-1]:  # it undoes a legal move, so is legal
            undo.pop()
        else:
            _check_legal(state, m)
            undo.append(m.inverse(state.d))
        state.apply(m)
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
    dict whose "final" entry is the complex the walk ended on and whose
    "stop" entry says why it ended: "target", "budget", or "stuck" at the
    best complex with no heating move.
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
    stop = ("target" if schedule.reached(best_f)
            else "budget" if len(trace) == budget else "stuck")
    stats.update(moves=len(trace), best_f=best_f, final_f=state.f(), stop=stop,
                 final=core.from_facets(state.snapshot()))
    return core.from_facets(state.snapshot(best)), trace, stats


def reduce_multi(C: Complex, seeds, budget: int,
                 schedule: Schedule | None = None, threads: int = 1):
    """Run reduce over several seeds; returns (best, seed, trace, stats).

    The winner is the first seed, in the given order, whose best complex
    reaches the schedule target; if none does, the run with the least
    (stats["best_f"], seed) wins.  One scan in seed order over
    ``core.process_map`` applies this rule, so ``threads`` cannot change the
    winner.  One worker stops at it, but a pool runs every seed to its end,
    so a pool is slower where an early seed wins.
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
