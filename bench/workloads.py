"""The three workloads.  Each has four steps, run in this order by the worker:

- ``setup()`` loads or builds the inputs (counted in ``setup_s``);
- ``ops(inputs, results)`` lists the timed operations as (label, thunk)
  pairs; a thunk may read the results of earlier operations;
- ``check(inputs, results)`` returns a list of problems (empty when every
  output is right); it runs after the timed part and skips the operations
  that raised, which the worker counts as failed;
- ``fingerprints(results)`` returns behaviour hashes, reported but never
  judged.

Every call into mwb goes through a module attribute looked up at call time
(``flips.reduce(...)``), so the traced run's wrappers see it.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random

from mwb import bounds, catalog, census, cli, constructions, core, flips, iso, tri_io

import references as ref

homology = importlib.import_module("mwb.homology")  # mwb.homology is the function

WALK_ENTRIES = ("csaszar-torus", "RP3-11", "L31-12", "S2xS2-11", "S3twS1-12")
REDUCE_BUDGET = 500_000
TWISTED_SEEDS = range(1, 17)
WALK_SEED = 1000
RELABEL_SEED = 2024


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _seeded_order(groups, seed):
    """The independent operation groups in a seed-chosen order."""
    groups = list(groups)
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]


def _face_counts(facets, dim):
    return [len({G for F in facets for G in itertools.combinations(F, k + 1)})
            for k in range(dim + 1)]


def _free_rank(group: str) -> int:
    """Rank of a group written as in HomologyVector.__str__, e.g. 'Z^2 + Z_3'."""
    terms = group.split(" + ")
    return sum(int(t[2:]) if t.startswith("Z^") else t == "Z" for t in terms)


def _topology_problems(label, C, topology):
    """Homology against the topological reference, chi from it, and the
    pseudomanifold property."""
    want = ref.HOMOLOGY[topology]
    got = str(homology.homology(C))
    problems = []
    if got != want:
        problems.append(f"{label}: homology {got}, expected {want} ({topology})")
    chi = sum((-1) ** k * c for k, c in enumerate(_face_counts(C.facets, C.dim)))
    want_chi = sum((-1) ** k * _free_rank(group)
                   for k, group in enumerate(want.strip("()").split(", ")))
    if chi != want_chi:
        problems.append(f"{label}: chi {chi}, expected {want_chi}")
    if not core.is_pseudomanifold(C):
        problems.append(f"{label}: not a pseudomanifold")
    return problems


class Census:
    """Every closed surface on n = 4..9 vertices, then every 2-sphere on 10.

    Star-closing search with canonical-form dedupe at the leaves; no flips
    and no Smith normal form.  The inputs are fixed by the published tables,
    so the seed only permutes the order of the calls.
    """

    def __init__(self, seed, quick):
        self.seed = seed
        self.surface_ns = range(4, 8) if quick else range(4, 10)
        self.sphere_n = 8 if quick else 10

    def setup(self):
        return {}

    def ops(self, inputs, results):
        groups = [[(f"surfaces n={n}", lambda n=n: census.enumerate_surfaces(
            n, threads=1, representatives=True))] for n in self.surface_ns]
        groups.append([(f"spheres n={self.sphere_n}",
                        lambda: census.enumerate_spheres(self.sphere_n, threads=1))])
        return _seeded_order(groups, self.seed)

    def check(self, inputs, results):
        problems = []
        for n in self.surface_ns:
            result = results.get(f"surfaces n={n}")
            if result is None:
                continue
            got = {(sc.chi, sc.orientable): k for sc, k in result.counts.items()}
            if got != ref.SURFACE_COUNTS[n]:
                problems.append(f"surfaces n={n}: {got} != {ref.SURFACE_COUNTS[n]}")
            for sc, reps in result.representatives.items():
                for rep in reps:
                    f = _face_counts(rep.facets, 2)
                    if f[0] != n or f[0] - f[1] + f[2] != sc.chi:
                        problems.append(
                            f"surfaces n={n}: a representative of {sc} has f = {f}")
        label = f"spheres n={self.sphere_n}"
        if label in results and results[label] != ref.SPHERE_COUNTS[self.sphere_n]:
            problems.append(f"{label}: {results[label]} != "
                            f"{ref.SPHERE_COUNTS[self.sphere_n]}")
        return problems

    def fingerprints(self, results):
        keys = sorted([list(map(list, rep.facets))
                       for n in self.surface_ns if f"surfaces n={n}" in results
                       for reps in results[f"surfaces n={n}"].representatives.values()
                       for rep in reps])
        return {"census_class_keys_sha256": _sha256(keys)}


class Reduce:
    """Two long greedy reductions, the trace round trip, and random walks.

    Nearly all of it is the flip engine.  The reductions and walks use the
    seeds of acceptance gates 3 and 5, whose outcomes are pinned, so the
    seed only permutes the order of the independent operation groups.
    """

    def __init__(self, seed, quick):
        self.seed = seed
        self.walk_steps = 100 if quick else 1000

    def setup(self):
        sphere = constructions.boundary_simplex(2)
        return {
            "S2xS2": constructions.product(sphere, constructions.boundary_simplex(2)),
            "twisted": constructions.twisted_bundle(3),
            "walks": [(name, catalog.entry(name).load()) for name in WALK_ENTRIES],
        }

    def ops(self, inputs, results):
        P, tb = inputs["S2xS2"], inputs["twisted"]
        round_trip = [
            ("reduce S2xS2", lambda: flips.reduce(
                P, seed=1, budget=REDUCE_BUDGET,
                schedule=flips.Schedule(target_f0=ref.S2XS2_TARGET_F0))),
            ("write trace", lambda: tri_io.write_trace(results["reduce S2xS2"][1])),
            ("parse trace", lambda: tri_io.parse_trace(results["write trace"])),
            ("replay trace", lambda: flips.replay(P, results["parse trace"])),
        ]
        twisted = [("reduce twisted bundle", lambda: flips.reduce_multi(
            tb, TWISTED_SEEDS, REDUCE_BUDGET,
            flips.Schedule(target_f=ref.TWISTED_BUNDLE_TARGET_F)))]
        walks = [[(f"walk {name}", lambda C=C, i=i: flips.random_walk(
            C, seed=WALK_SEED + i, steps=self.walk_steps))]
            for i, (name, C) in enumerate(inputs["walks"])]
        return _seeded_order([round_trip, twisted] + walks, self.seed)

    def check(self, inputs, results):
        problems = []
        if "reduce S2xS2" in results:
            best, trace, stats = results["reduce S2xS2"]
            if best.n > ref.S2XS2_TARGET_F0:
                problems.append(f"reduce S2xS2: f0 = {best.n} > {ref.S2XS2_TARGET_F0}")
            problems += _topology_problems("reduce S2xS2", best, "S2xS2")
            if "parse trace" in results and results["parse trace"] != trace:
                problems.append("parse trace: differs from the reducer's trace")
            if "replay trace" in results and results["replay trace"] != stats["final"]:
                problems.append("replay trace: differs from the reducer's final complex")
        if "reduce twisted bundle" in results:
            best, seed, trace, stats = results["reduce twisted bundle"]
            f = tuple(_face_counts(best.facets, best.dim))
            if f != ref.TWISTED_BUNDLE_TARGET_F:
                problems.append(f"reduce twisted bundle: f = {f}")
            problems += _topology_problems("reduce twisted bundle", best,
                                           "S2 twisted over S1")
        for name, C in inputs["walks"]:
            if f"walk {name}" not in results:
                continue
            walked, trace = results[f"walk {name}"]
            if len(trace) != self.walk_steps:
                problems.append(f"walk {name}: {len(trace)} steps")
            problems += _topology_problems(f"walk {name}", walked,
                                           ref.CATALOG_TOPOLOGY[name])
        return problems

    def fingerprints(self, results):
        out = {}
        if "write trace" in results:
            out["s2xs2_trace_sha256"] = hashlib.sha256(
                results["write trace"].encode()).hexdigest()
        if "reduce twisted bundle" in results:
            _, seed, trace, _ = results["reduce twisted bundle"]
            out["twisted_bundle_seed"] = seed
            out["twisted_bundle_trace_sha256"] = hashlib.sha256(
                tri_io.write_trace(trace).encode()).hexdigest()
        return out


def _permutation(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


class Verify:
    """The catalog checks a user runs: ``mw verify catalog`` in-process,
    manifold certification, canonical forms under relabeling, the gate-5
    separations and the bound report.  Smith normal form on the large
    6-dimensional entries, canonical forms of neighborly complexes, and many
    short flip reductions of vertex links.  The seed draws the relabelings;
    the order is fixed, because the homology cache is shared between
    operations and the order decides which one pays for a homology.
    """

    SEPARATIONS = (("S3xS2-a-12", 0), ("S3twS1-12", 1))  # entry, move kind

    def __init__(self, seed, quick):
        self.rng = random.Random(RELABEL_SEED + seed)
        if quick:
            self.names = ("csaszar-torus", "RP3-11", "S3twS1-12")
            self.separations = self.SEPARATIONS[1:]
        else:
            self.names = tuple(e.name for e in catalog.catalog())
            self.separations = self.SEPARATIONS

    def setup(self):
        entries = {name: catalog.entry(name) for name in self.names}
        complexes = {name: e.load() for name, e in entries.items()}
        relabelings = {name: [core.relabeled(C, _permutation(self.rng, C.n))
                              for _ in range(2)]
                       for name, C in complexes.items()}
        shuffled = {name: core.relabeled(complexes[name],
                                         _permutation(self.rng, complexes[name].n))
                    for name, _ in self.separations}
        return {"entries": entries, "complexes": complexes,
                "relabelings": relabelings, "shuffled": shuffled}

    @staticmethod
    def _verify_catalog():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "catalog"])
        return code, out.getvalue()

    @staticmethod
    def _separate(C, shuffled, kind):
        """Perturb a relabeled copy by one move, then undo it; the
        perturbed complex must not be isomorphic to C, the restored one
        must."""
        move = flips.legal_moves(shuffled, kind)[0]
        flipped = flips.apply_move(shuffled, move)
        restored = flips.apply_move(
            flipped, flips.FlipMove(C.dim - kind, move.insert, move.remove))
        return iso.are_isomorphic(C, flipped), iso.are_isomorphic(C, restored)

    def ops(self, inputs, results):
        cx = inputs["complexes"]
        ops = [("mw verify catalog", self._verify_catalog)]
        ops += [(f"manifold {name}", lambda C=C: core.is_combinatorial_manifold(C))
                for name, C in cx.items()]
        for name, C in cx.items():
            for j, X in enumerate([C] + inputs["relabelings"][name]):
                ops.append((f"canonical_form {name} #{j}",
                            lambda X=X: iso.canonical_form(X)[0]))
        ops += [(f"separate {name}", lambda name=name, kind=kind: self._separate(
            cx[name], inputs["shuffled"][name], kind)) for name, kind in self.separations]
        ops += [(f"bounds {name}", lambda name=name: bounds.bound_report(
            cx[name], inputs["entries"][name].hints)) for name in cx]
        return ops

    def check(self, inputs, results):
        problems = []
        if "mw verify catalog" in results:
            code, text = results["mw verify catalog"]
            passed = [line for line in text.splitlines() if line.startswith("PASS ")]
            if code != 0 or len(passed) != len(catalog.catalog()):
                problems.append(f"mw verify catalog: exit {code}, output {text!r}")
        cx = inputs["complexes"]
        for name, C in cx.items():
            verdict = results.get(f"manifold {name}")
            if verdict is not None and verdict.status != "yes":
                problems.append(f"manifold {name}: {verdict.status} {verdict.witness}")
            forms = [results[label] for j in range(3)
                     if (label := f"canonical_form {name} #{j}") in results]
            if any(form != forms[0] for form in forms):
                problems.append(f"canonical_form {name}: differs across relabelings")
            report = results.get(f"bounds {name}")
            if report is not None:
                bad = [e.bound_id for e in report.entries
                       if e.applicable and not e.conjectural and e.satisfied is False]
                if bad:
                    problems.append(f"bounds {name}: violates {bad}")
            problems += _topology_problems(name, C, ref.CATALOG_TOPOLOGY[name])
        for name, _ in self.separations:
            got = results.get(f"separate {name}")
            if got is not None and got != (False, True):
                problems.append(f"separate {name}: are_isomorphic gave {got}, "
                                "expected (False, True)")
        for name in ("csaszar-torus", "RP3-11"):
            if name in cx:
                problems += _sympy_problems(name, cx[name])
        return problems

    def fingerprints(self, results):
        forms = [[list(F) for F in results[label].facets] for label in sorted(results)
                 if label.startswith("canonical_form") and label.endswith("#0")]
        return {"canonical_forms_sha256": _sha256(forms)}


def _sympy_problems(name, C):
    """Integral homology from sympy's Smith normal form of boundary
    matrices built here, against the topological reference."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    faces = [sorted({G for F in C.facets for G in itertools.combinations(F, k + 1)})
             for k in range(C.dim + 1)]
    rank = [0] * (C.dim + 2)
    torsion = [[] for _ in range(C.dim + 2)]
    for k in range(1, C.dim + 1):
        row = {F: i for i, F in enumerate(faces[k - 1])}
        M = [[0] * len(faces[k]) for _ in faces[k - 1]]
        for j, G in enumerate(faces[k]):
            for i in range(k + 1):
                M[row[G[:i] + G[i + 1:]]][j] = (-1) ** i
        S = smith_normal_form(Matrix(M), domain=ZZ)
        diag = [abs(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0]
        rank[k] = len(diag)
        torsion[k - 1] = sorted(d for d in diag if d > 1)
    groups = []
    for k in range(C.dim + 1):
        free = len(faces[k]) - rank[k] - rank[k + 1]
        terms = ([] if free == 0 else ["Z" if free == 1 else f"Z^{free}"])
        terms += [f"Z_{t}" for t in torsion[k]]
        groups.append(" + ".join(terms) or "0")
    got = "(" + ", ".join(groups) + ")"
    want = ref.HOMOLOGY[ref.CATALOG_TOPOLOGY[name]]
    return [] if got == want else [f"{name}: sympy homology {got}, expected {want}"]


WORKLOADS = {"census": Census, "reduce": Reduce, "verify": Verify}
