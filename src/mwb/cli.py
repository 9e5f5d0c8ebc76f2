"""Command-line workbench: one subcommand per operation family.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 budget or cap exceeded, 141 standard output closed by its reader.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import bounds as bounds_mod
from . import catalog as catalog_mod
from . import census as census_mod
from . import constructions as cons
from . import flips, iso, tri_io
from .core import (f_vector, is_combinatorial_manifold, is_k_neighborly,
                   is_pseudomanifold)
from .errors import CapExceeded, InvalidArgument, WorkbenchError
from .homology import betti, homology
from .realization import realization_check

OK, FAIL, INPUT_ERROR, BUDGET, CLOSED_PIPE = 0, 1, 2, 3, 141  # 128 + SIGPIPE
MAX_SEEDS = 100_000  # per `reduce --seeds` list


def _load(path):
    if path is None:
        raise WorkbenchError("missing --in FILE")
    try:
        e = catalog_mod.entry(path)
    except KeyError:
        return tri_io.load(path)
    return e.load()


def _decimal_arg(text, what):
    """The value of an ASCII decimal option token, else InvalidArgument."""
    text = text.strip()
    value = tri_io.decimal(text)
    if value is None:
        raise InvalidArgument(
            f"{what} must be a decimal integer, got {text[:20]!r}")
    return value


def _decimals_arg(text, what):
    return tuple(_decimal_arg(t, what) for t in text.replace(",", " ").split())


def cmd_info(args):
    C = _load(args.infile)
    fv = f_vector(C)
    print(f"dim={C.dim} n={C.n} facets={len(C.facets)}")
    print(f"f={fv.counts} chi={fv.euler}")
    ks = [k for k in range(1, C.dim + 2) if is_k_neighborly(C, k)]
    print(f"neighborly=k<={max(ks)}" if ks else "neighborly=no")
    pm = is_pseudomanifold(C)
    print(f"pseudomanifold={pm.status}" + (f" ({pm.witness})" if pm.witness else ""))
    return OK


def cmd_fvector(args):
    fv = f_vector(_load(args.infile))
    if args.format == "kv":
        print(" ".join(f"f{k}={c}" for k, c in enumerate(fv.counts))
              + f" chi={fv.euler}")
    else:
        print(f"f = {fv.counts}, chi = {fv.euler}")
    return OK


def cmd_homology(args):
    C = _load(args.infile)
    if args.mod:
        print(betti(C, args.mod))
    else:
        print(homology(C))
    return OK


def cmd_verify(args):
    if args.what == "catalog":
        results = catalog_mod.verify_catalog()
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        return OK if all(ok for _, ok, _ in results) else FAIL
    C = _load(args.infile)
    if args.what == "pseudomanifold":
        verdict = is_pseudomanifold(C)
    else:
        verdict = is_combinatorial_manifold(C, flip_budget=args.budget)
    print(verdict.status + (f": {verdict.witness}" if verdict.witness else ""))
    if verdict.status == "yes":
        return OK
    return BUDGET if verdict.status == "unknown" else FAIL


def _parse_seeds(text):
    """The seeds of a ``--seeds`` list, counted from the range ends so that
    an overlong list is refused before any range is expanded."""
    ranges = []
    for part in text.split(","):
        a, dash, b = part.partition("-")
        a = _decimal_arg(a, "seed")
        b = _decimal_arg(b, "seed") if dash else a
        if b < a:
            raise InvalidArgument(f"empty seed range {part.strip()[:40]!r}")
        ranges.append(range(a, b + 1))
    if sum(r.stop - r.start for r in ranges) > MAX_SEEDS:
        raise InvalidArgument(f"more than {MAX_SEEDS} seeds")
    return [s for r in ranges for s in r]


def cmd_reduce(args):
    C = _load(args.infile)
    schedule = flips.Schedule(
        target_f0=args.target_f0,
        target_f=(_decimals_arg(args.target_f, "f-vector entry")
                  if args.target_f is not None else None))
    seeds = [args.seed] if args.seeds is None else _parse_seeds(args.seeds)
    best, seed, trace, stats = flips.reduce_multi(
        C, seeds, args.budget, schedule, threads=args.threads)
    if args.seeds is not None:
        print(f"winning seed {seed}")
    fv = f_vector(best)
    print(f"best f = {fv.counts} after {stats['moves']} moves "
          f"(best at step {stats['best_step']})")
    print(f"stop = {stats['stop']}")
    if args.out:
        tri_io.save(args.out, best)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as fh:
            fh.write(tri_io.write_trace(trace))
    targeted = args.target_f0 is not None or args.target_f is not None
    return BUDGET if targeted and stats["stop"] != "target" else OK


def _facet(text, C):
    """The facet named by ``--facet`` labels, else the first facet of C."""
    return _decimals_arg(text, "vertex label") if text else C.facets[0]


def cmd_construct(args):
    kind = args.kind
    if kind == "boundary":
        C = cons.boundary_simplex(args.dim)
    elif kind == "bundle":
        C = (cons.orientable_bundle(args.dim) if args.orientable
             else cons.twisted_bundle(args.dim))
    elif kind == "product":
        C = cons.product(_load(args.infile), _load(args.infile2))
    elif kind == "join":
        C = cons.join(_load(args.infile), _load(args.infile2))
    elif kind == "sum":
        A, B = _load(args.infile), _load(args.infile2)
        C = cons.connected_sum(A, _facet(args.facet, A),
                               B, _facet(args.facet2, B))
    else:  # stack, the last of the parser's choices
        A = _load(args.infile)
        C = cons.stack(A, _facet(args.facet, A))
    fv = f_vector(C)
    print(f"constructed dim={C.dim} n={C.n} f={fv.counts}")
    if args.out:
        tri_io.save(args.out, C)
    return OK


def cmd_iso(args):
    same = iso.are_isomorphic(_load(args.infile), _load(args.infile2))
    print("isomorphic" if same else "not isomorphic")
    return OK if same else FAIL


def cmd_auto(args):
    g = iso.automorphism_group(_load(args.infile))
    print(f"order {g.order}")
    for gen in g.generators:
        print("generator", " ".join(map(str, gen)))
    return OK


def cmd_det(args):
    C = _load(args.infile)
    if args.links:
        print(" ".join(map(str, iso.as_link_determinants(C))))
    else:
        print(iso.as_determinant(C))
    return OK


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}
# each flag abbreviates a KEY=VALUE hint; each second spelling names a field
_HINT_FLAGS = {"sphere": "is_sphere=1", "not-sphere": "is_sphere=0",
               "simply-connected": "simply_connected=1",
               "not-simply-connected": "simply_connected=0"}
_HINT_FIELDS = {"homology_sphere": "is_homology_sphere",
                "manifold": "known_manifold"}


def _parse_hints(pairs):
    hints = {}
    for item in pairs or ():
        key, eq, val = _HINT_FLAGS.get(item, item).partition("=")
        key = key.replace("-", "_")
        field = _HINT_FIELDS.get(key, key) if eq else None
        if field in ("is_sphere", "simply_connected"):
            if val.lower() not in _BOOLEANS:
                raise InvalidArgument(
                    f"hint {key} takes 1/0, true/false or yes/no")
            hints[field] = _BOOLEANS[val.lower()]
        elif field == "connectivity":
            hints[field] = _decimal_arg(val, "connectivity")
        elif field == "is_homology_sphere" and val not in ("Z", "Z2"):
            raise InvalidArgument(f"hint {key} takes Z or Z2")
        elif field in ("is_homology_sphere", "known_manifold"):
            hints[field] = val
        else:
            raise WorkbenchError(f"unknown hint {item!r}")
    return bounds_mod.TopologyHints(**hints)


def cmd_bounds(args):
    C = _load(args.infile)
    report = bounds_mod.bound_report(C, _parse_hints(args.hint))
    print(report.to_kv() if args.format == "kv" else report.to_text())
    return OK if not report.violations() else FAIL


def cmd_census(args):
    if args.cap is not None:
        print(f"warning: cap overridden to {args.cap}", file=sys.stderr)
    if args.what == "surfaces":
        result = census_mod.enumerate_surfaces(args.n, cap=args.cap,
                                               threads=args.threads)
        for line in result.lines():
            print(line)
    else:
        count = census_mod.enumerate_spheres(args.n, cap=args.cap,
                                             threads=args.threads)
        print(f"n={args.n} {census_mod.SurfaceClass.of(2, True)} "
              f"count={count}")
    return OK


def cmd_realize(args):
    C = _load(args.infile)
    with open(args.coords, "r", encoding="ascii") as fh:
        coords = tri_io.parse_coords(fh.read())
    verdict = realization_check(C, coords)
    print("valid" if verdict.valid else f"invalid: {verdict.witness}")
    return OK if verdict.valid else FAIL


def cmd_replay(args):
    C = _load(args.infile)
    with open(args.trace, "r", encoding="ascii") as fh:
        trace = tri_io.parse_trace(fh.read())
    result = flips.replay(C, trace)
    fv = f_vector(result)
    print(f"replayed {len(trace)} moves: f = {fv.counts}")
    if args.out:
        tri_io.save(args.out, result)
    return OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 in one line, like every other input error."""

    def error(self, message):
        raise InvalidArgument(message)


class _Decimal(argparse.Action):
    """An integer option, read by _decimal_arg as it is parsed, so a bad
    value exits 2 in one line."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest,
                _decimal_arg(value, self.option_strings[0]))


def build_parser():
    p = _Parser(
        prog="mw", description="workbench for small triangulated manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, infile=True, out=False, fmt=False):
        sp.set_defaults(run=run)
        if infile:
            sp.add_argument("--in", dest="infile",
                            help=".tri file or catalog entry name")
        if out:
            sp.add_argument("--out", help="output .tri file")
        if fmt:
            sp.add_argument("--format", choices=("text", "kv"), default="text")

    common(sub.add_parser("info", help="summary of a complex"), cmd_info)
    common(sub.add_parser("fvector", help="face counts and Euler characteristic"),
           cmd_fvector, fmt=True)
    sp = sub.add_parser("homology", help="integral homology or Betti numbers")
    common(sp, cmd_homology)
    sp.add_argument("--mod", action=_Decimal, default=0,
                    help="Betti numbers over Z_p instead, for a prime p below "
                         "2**31, derived from the integral homology")
    sp = sub.add_parser("verify", help="pseudomanifold/manifold/catalog checks")
    sp.add_argument("what", choices=("pseudomanifold", "manifold", "catalog"))
    common(sp, cmd_verify)
    sp.add_argument("--budget", action=_Decimal, default=10_000,
                    help="flip budget per link for manifold verification")
    sp = sub.add_parser("reduce", help="search for a smaller triangulation")
    common(sp, cmd_reduce, out=True)
    seeds = sp.add_mutually_exclusive_group()
    seeds.add_argument("--seed", action=_Decimal, default=1)
    seeds.add_argument("--seeds", help="run several seeds, e.g. 1-16 or 3,7,9 "
                                       f"(at most {MAX_SEEDS}); "
                                       "the first seed in this order that "
                                       "reaches the target wins, else the "
                                       "(objective, seed)-best run")
    sp.add_argument("--threads", action=_Decimal, default=1,
                    help="worker processes for multi-seed runs, at most "
                         "one per seed and per CPU; a pool runs every seed "
                         "to its end, where one worker stops at the winner")
    sp.add_argument("--budget", action=_Decimal, default=100_000)
    sp.add_argument("--trace", help="write the move trace here")
    sp.add_argument("--target-f0", dest="target_f0", action=_Decimal)
    sp.add_argument("--target-f", dest="target_f",
                    help="comma-separated f-vector to stop at")
    sp = sub.add_parser("construct", help="builders")
    sp.add_argument("kind", choices=("boundary", "product", "sum", "bundle",
                                     "stack", "join"))
    common(sp, cmd_construct, out=True)
    sp.add_argument("--in2", dest="infile2", help="second input complex")
    sp.add_argument("--dim", action=_Decimal, default=3)
    sp.add_argument("--facet", help="facet of the first summand (sum/stack)")
    sp.add_argument("--facet2", help="facet of the second summand (sum)")
    sp.add_argument("--orientable", action="store_true",
                    help="bundle: build the orientable sibling")
    sp = sub.add_parser("iso", help="isomorphism test")
    common(sp, cmd_iso)
    sp.add_argument("--in2", dest="infile2", required=True)
    common(sub.add_parser("auto", help="automorphism group"), cmd_auto)
    sp = sub.add_parser("det", help="incidence determinants")
    common(sp, cmd_det)
    sp.add_argument("--links", action="store_true",
                    help="per-vertex link determinants")
    sp = sub.add_parser("bounds", help="evaluate every applicable bound")
    common(sp, cmd_bounds, fmt=True)
    sp.add_argument("--hint", action="append",
                    help="topology hint, e.g. manifold=RP3 or "
                         "not-simply-connected")
    sp = sub.add_parser("census", help="surface or sphere census")
    sp.add_argument("what", choices=("surfaces", "spheres"))
    common(sp, cmd_census, infile=False)
    sp.add_argument("--n", action=_Decimal, required=True)
    sp.add_argument("--cap", action=_Decimal)
    sp.add_argument("--threads", action=_Decimal, default=1,
                    help="worker processes, at most one per root degree "
                         "and per CPU")
    sp = sub.add_parser("realize", help="check straight-line coordinates")
    common(sp, cmd_realize)
    sp.add_argument("--coords", required=True)
    sp = sub.add_parser("replay", help="re-apply a move trace")
    common(sp, cmd_replay, out=True)
    sp.add_argument("--trace", required=True)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.run(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here
        return status
    except BrokenPipeError:  # the reader has gone: flush to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET
    except (WorkbenchError, OSError, UnicodeDecodeError) as exc:
        # input files are ASCII; a stray byte is an input error, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
