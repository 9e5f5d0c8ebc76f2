"""Vertex-count and f-vector bounds, evaluated exactly.

Every bound is an integer (or exact-fraction) inequality; ``slack`` is
LHS - RHS in the bound's stated orientation, so ``sharp`` means slack 0.
Conjectural bounds are computed but flagged and never fail verification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .homology import HomologyVector, betti, homology, orientability
from .core import Complex, FVector, f_vector, is_pseudomanifold
from .errors import InvalidArgument, WrongDimension


@dataclass(frozen=True)
class TopologyHints:
    """Caller-supplied topological facts; never inferred silently."""

    is_sphere: bool | None = None
    simply_connected: bool | None = None
    connectivity: int | None = None  # (i-1)-connected but not i-connected
    is_homology_sphere: str | None = None  # "Z" or "Z2"
    known_manifold: str | None = None  # e.g. "S3", "RP3", "L(3,1)", "RP^4", "CP^2"


@dataclass
class BoundEntry:
    bound_id: str
    applicable: bool
    satisfied: bool | None = None
    slack: object = None  # int or Fraction
    sharp: bool = False
    conjectural: bool = False
    notes: str = ""

    def as_kv(self) -> str:
        parts = [f"bound={self.bound_id}", f"applicable={self.applicable}"]
        if self.applicable:
            parts += [f"satisfied={self.satisfied}", f"slack={self.slack}",
                      f"sharp={self.sharp}"]
        parts.append(f"conjectural={self.conjectural}")
        if self.notes:
            parts.append(f"notes={self.notes!r}")
        return " ".join(parts)


@dataclass
class BoundReport:
    inputs: dict
    entries: list = field(default_factory=list)

    def entry(self, bound_id: str) -> BoundEntry:
        for e in self.entries:
            if e.bound_id == bound_id:
                return e
        raise KeyError(bound_id)

    def violations(self):
        return [e for e in self.entries
                if e.applicable and not e.conjectural and e.satisfied is False]

    def to_text(self) -> str:
        lines = [f"n={self.inputs['n']} d={self.inputs['d']} "
                 f"f={self.inputs['f']} chi={self.inputs['chi']}"]
        for e in self.entries:
            if not e.applicable:
                lines.append(f"  {e.bound_id}: not applicable"
                             + (f" ({e.notes})" if e.notes else ""))
                continue
            status = "ok" if e.satisfied else "VIOLATED"
            extra = " sharp" if e.sharp else ""
            conj = " [conjectural]" if e.conjectural else ""
            note = f" ({e.notes})" if e.notes else ""
            lines.append(f"  {e.bound_id}: {status} slack={e.slack}{extra}{conj}{note}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        return "\n".join(e.as_kv() for e in self.entries)


def _entry(report, bound_id, lhs, rhs, conjectural=False, notes=""):
    slack = lhs - rhs
    e = BoundEntry(bound_id, True, slack >= 0, slack, slack == 0,
                   conjectural, notes)
    report.entries.append(e)
    return e


def _na(report, bound_id, notes=""):
    e = BoundEntry(bound_id, False, notes=notes)
    report.entries.append(e)
    return e


# ---------------------------------------------------------------- surfaces

def heawood_min_vertices(chi: int, exceptional: bool = False) -> int:
    """Least n admitted by the surface vertex bound for Euler characteristic chi."""
    if chi > 2:
        raise ValueError("a closed surface has chi <= 2")
    off = 4 if exceptional else 3
    n = 4
    while comb(n - off, 2) < 3 * (2 - chi):
        n += 1
    return n


def surface_f_from_n(n: int, chi: int) -> FVector:
    return FVector((n, 3 * n - 3 * chi, 2 * n - 2 * chi), chi)


# ----------------------------------------------------- general lower bounds

def brehm_kuehnel_bounds(d: int, hints: TopologyHints) -> list:
    """Applicable lower bounds on n: (bound_id, minimum, note) triples."""
    if d < 2:
        raise ValueError("d must be >= 2")
    out = []
    if hints.is_sphere is False:
        note = ("equality only possible in dimensions 2, 4, 8, 16"
                if d in (2, 4, 8, 16) else "")
        out.append(("non-sphere", 3 * ((d + 1) // 2) + 3, note))
    i = hints.connectivity
    if i is not None and 1 <= i < d / 2:
        out.append((f"connected-{i - 1}-not-{i}", 2 * d + 4 - i, ""))
    if hints.simply_connected is False:
        out.append(("non-simply-connected", 6 if d == 2 else 2 * d + 3, ""))
    return out


def kuehnel_4d_check(n: int, chi: int):
    """4-manifold Euler bound (Kuehnel-Kalai, k = 2); sharp iff 3-neighborly."""
    if n < 6:
        raise ValueError("n must be >= 6")
    return kuehnel_kalai_bound(2, n, chi)


def kuehnel_kalai_bound(k: int, n: int, chi: int):
    """Conjectural generalized Heawood bound for 2k-manifolds."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = comb(n - k - 2, k + 1)
    rhs = (-1) ** k * comb(2 * k + 1, k + 1) * (chi - 2)
    return lhs >= rhs, lhs == rhs


def kuehnel_triangle_bounds(d: int, n: int, reduced_betti) -> list:
    """Conjectural per-j bounds from the Pascal-like triangle of lower bounds.

    Returns (j, lhs, rhs, satisfied, sharp) rows; the j = d/2 bound for even
    d carries the halved Betti number, compared exactly.
    """
    reduced_betti = tuple(reduced_betti)
    if len(reduced_betti) != d // 2 + 1:
        raise ValueError("need reduced Betti numbers for j = 0..floor(d/2)")
    rows = []
    for j in range((d - 1) // 2 + 1):
        lhs = comb(n - d + j - 2, j + 1)
        rhs = comb(d + 2, j + 1) * reduced_betti[j]
        rows.append((j, lhs, rhs, lhs >= rhs, lhs == rhs))
    if d % 2 == 0:
        j = d // 2
        lhs = comb(n - j - 2, j + 1)
        rhs = Fraction(comb(d + 2, j + 1) * reduced_betti[j], 2)
        rows.append((j, lhs, rhs, lhs >= rhs, lhs == rhs))
    return rows


def lbt_check(F: FVector, d: int) -> list:
    """Lower bound theorem rows (k, lhs, rhs, satisfied, sharp) for a
    d-pseudomanifold f-vector."""
    if d < 2:
        raise ValueError("d must be >= 2")
    n = F[0]
    rows = []
    for k in range(1, d):
        rhs = comb(d + 1, k) * n - comb(d + 2, k + 1) * k
        rows.append((k, F[k], rhs, F[k] >= rhs, F[k] == rhs))
    rhs = d * n - (d - 1) * (d + 2)
    rows.append((d, F[d], rhs, F[d] >= rhs, F[d] == rhs))
    return rows


def _h_vector(counts, d: int) -> tuple:
    D = d + 1
    f = (1,) + tuple(counts)
    return tuple(sum((-1) ** (k - i) * comb(D - i, k - i) * f[i]
                     for i in range(k + 1)) for k in range(D + 1))


def cyclic_f(dim: int, n: int) -> FVector:
    """f-vector of the boundary of the cyclic (dim+1)-polytope on n vertices,
    from neighborliness plus the Dehn-Sommerville relations."""
    D = dim + 1
    if n < D + 1:
        raise ValueError("need n >= dim + 2")
    h = [0] * (D + 1)
    for i in range(D // 2 + 1):
        h[i] = comb(n - D - 1 + i, i)
    for i in range(D // 2 + 1, D + 1):
        h[i] = h[D - i]
    counts = tuple(sum(comb(D - i, j - i) * h[i] for i in range(j + 1))
                   for j in range(1, D + 1))
    euler = sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))
    return FVector(counts, euler)


def ubt_check(F: FVector, d: int) -> list:
    """Upper bound theorem rows (k, f_k, cyclic f_k, satisfied, sharp)."""
    cyc = cyclic_f(d, F[0])
    return [(k, F[k], cyc[k], F[k] <= cyc[k], F[k] == cyc[k])
            for k in range(1, d + 1)]


# ------------------------------------------------------------- 3-manifolds

@dataclass(frozen=True)
class GammaEntry:
    gamma: int
    gamma_star: int | None
    conjectural: bool = False
    exceptions: tuple = ()  # (n, f1) pairs excluded from gamma* realizability


WALKUP_GAMMA = {
    "S3": GammaEntry(-10, -10),
    "S2~S1": GammaEntry(0, 0),
    "S2xS1": GammaEntry(0, 1, exceptions=((9, 36),)),
    "RP3": GammaEntry(7, 7),
    "L(3,1)": GammaEntry(18, 18, conjectural=True),
    "T3": GammaEntry(45, 45, conjectural=True),
}
OTHER_MIN_GAMMA = 8  # every further 3-manifold


def walkup_gamma_table() -> dict:
    return dict(WALKUP_GAMMA)


def walkup_relation(F: FVector, gamma: int):
    """Check the 3-manifold f-vector shape and the edge bound f1 >= 4n + gamma."""
    if len(F.counts) != 4:
        raise WrongDimension("walkup_relation needs a 3-dimensional f-vector")
    n, f1, f2, f3 = F.counts
    consistent = (f2 == 2 * f1 - 2 * n) and (f3 == f1 - n)
    slack = f1 - (4 * n + gamma)
    return consistent and slack >= 0, slack


# --------------------------------------------------------------- the rest

def novik_bounds(d: int, n: int, betti_f2) -> list:
    """Novik's three inequalities inside their stated (n, k) windows.

    Returns (name, applicable, lhs, rhs, satisfied, sharp) rows; outside a
    window the row is marked not applicable.
    """
    b = tuple(betti_f2)
    rows = []
    if d % 2 == 0:
        k = d // 2
        reduced = (b[0] - 1,) + tuple(b[1:])
        in1 = n <= 3 * k + 3 or n >= 4 * k + 3
        lhs = comb(n - k - 2, k + 1)
        rhs = comb(2 * k + 1, k + 1) * (
            b[k] + 2 * sum(reduced[i] for i in range(k - 1)))
        rows.append(("novik-even-reduced", in1, lhs, rhs,
                     lhs >= rhs if in1 else None,
                     lhs == rhs if in1 else False))
        in2 = n <= 3 * k + 3 or n >= 7 * k + 3
        rhs2 = comb(2 * k + 1, k + 1) * (b[k] + 2 * sum(b[i] for i in range(1, k)))
        rows.append(("novik-even-unreduced", in2, lhs, rhs2,
                     lhs >= rhs2 if in2 else None,
                     lhs == rhs2 if in2 else False))
    else:
        k = (d + 1) // 2
        in3 = n <= 3 * k + 2 or n >= 4 * k + 1
        lhs = Fraction(2 * n, n + k + 2) * comb(n - k - 2, k)
        rhs = comb(2 * k - 1, k) * 2 * sum(b[i] for i in range(1, k))
        rows.append(("novik-odd", in3, lhs, rhs,
                     lhs >= rhs if in3 else None,
                     lhs == rhs if in3 else False))
    return rows


def arnoux_marin_min(kind: str, dim: int) -> int:
    """Effective minimum vertex count for real/complex projective spaces.

    Equality in the raw bound is possible only in the plane cases, so the
    returned minimum is raised by one elsewhere.
    """
    if kind == "RP":
        base = (dim + 1) * (dim + 2) // 2
        return base if dim == 2 else base + 1
    if kind == "CP":
        base = (dim + 1) ** 2
        return base if dim == 2 else base + 1
    raise ValueError("kind must be 'RP' or 'CP'")


def bagchi_datta_min(d: int) -> int:
    """Z2-homology spheres need d+9 vertices for 3 <= d <= 6."""
    if not 3 <= d <= 6:
        raise ValueError("stated only for 3 <= d <= 6")
    return d + 9


# ------------------------------------------------------------- aggregation

_SURFACE_EXCEPTIONAL = {(-2, True), (0, False), (-1, False)}  # (chi, orientable)


def _sphere_product_index(h: HomologyVector, d: int):
    """Detect homology equal to that of S^(d-i) x S^i; return i or None."""
    for i in range(1, d // 2 + 1):
        free = [0] * (d + 1)
        free[0] += 1
        free[i] += 1
        free[d - i] += 1
        free[d] += 1
        if h.free == tuple(free) and all(not t for t in h.torsion):
            return i
    return None


_GAMMA_KEYS = {name.upper(): name for name in WALKUP_GAMMA}


def _manifold_key(name: str | None):
    return None if name is None else name.replace(" ", "").upper()


def bound_report(C: Complex, hints: TopologyHints | None = None) -> BoundReport:
    """Evaluate every applicable bound against a complex."""
    hints = hints or TopologyHints()
    d = C.dim
    F = f_vector(C)
    n = C.n
    chi = F.euler
    H = homology(C)
    b2 = betti(C, 2).ranks
    pm = bool(is_pseudomanifold(C))
    report = BoundReport({"n": n, "d": d, "f": F.counts, "chi": chi,
                          "homology": str(H), "betti_f2": b2,
                          "pseudomanifold": pm})

    sphere_h = H.free == tuple(
        1 if k in (0, d) else 0 for k in range(d + 1)) and not any(H.torsion)
    not_sphere = hints.is_sphere is False or not sphere_h

    if d == 2:
        orient = orientability(C) == "orientable"
        exceptional = (chi, orient) in _SURFACE_EXCEPTIONAL
        off = 4 if exceptional else 3
        _entry(report, "heawood", comb(n - off, 2), 3 * (2 - chi),
               notes="exceptional surface" if exceptional else "")
        ok = F.counts == surface_f_from_n(n, chi).counts
        report.entries.append(BoundEntry(
            "surface-f-relation", True, ok, 0 if ok else None, ok))

    if d >= 2 and not_sphere:
        _entry(report, "bk-non-sphere", n, 3 * ((d + 1) // 2) + 3,
               notes="equality only in dimensions 2, 4, 8, 16")
    else:
        _na(report, "bk-non-sphere", "not known to be a non-sphere")

    i = hints.connectivity
    if i is not None and 1 <= i < d / 2:
        _entry(report, "bk-connectivity", n, 2 * d + 4 - i)
    else:
        _na(report, "bk-connectivity", "no connectivity hint")

    spi = _sphere_product_index(H, d)
    if spi is not None:
        _entry(report, "bk-sphere-product-homology", n, 2 * d + 4 - spi,
               notes=f"homology of a sphere product with i={spi}")
    else:
        _na(report, "bk-sphere-product-homology", "homology does not match")

    if hints.simply_connected is False:
        _entry(report, "bk-non-simply-connected", n, 6 if d == 2 else 2 * d + 3)
    else:
        _na(report, "bk-non-simply-connected", "no fundamental-group hint")

    if d == 4:
        e = _entry(report, "kuehnel-4d", comb(n - 4, 3), 10 * (chi - 2))
        if e.sharp and n <= 13 and n not in (6, 9):
            e.notes = ("sharp-but-excluded: no 3-neighborly 4-manifold "
                       "exists at this vertex count")

    if d % 2 == 0 and d >= 6:
        # k = 1 and k = 2 restate the Heawood and the proved 4-dimensional row
        k = d // 2
        _entry(report, "kuehnel-kalai", comb(n - k - 2, k + 1),
               (-1) ** k * comb(2 * k + 1, k + 1) * (chi - 2),
               conjectural=True)

    rb = (b2[0] - 1,) + b2[1:d // 2 + 1]
    for j, lhs, rhs, _, _ in kuehnel_triangle_bounds(d, n, rb):
        _entry(report, f"kuehnel-triangle-j{j}", lhs, rhs, conjectural=True)

    if pm and d >= 2:
        for k, lhs, rhs, _, _ in lbt_check(F, d):
            _entry(report, f"lbt-k{k}", lhs, rhs)
    else:
        _na(report, "lbt", "not a pseudomanifold")

    ubt_ok = d % 2 == 1
    if d % 2 == 0:
        # middle Betti number dominated by the reduced lower ones, over F_2
        k = d // 2
        reduced = (b2[0] - 1,) + b2[1:]
        ubt_ok = b2[k] <= 2 * reduced[k - 1] + 2 * sum(
            reduced[i] for i in range(1, k - 2))
    if ubt_ok:
        for k, lhs, rhs, _, _ in ubt_check(F, d):
            _entry(report, f"ubt-k{k}", rhs, lhs,
                   notes="upper bound: slack = cyclic f_k - f_k")
    else:
        _na(report, "ubt", "middle Betti number outside the stated range")

    key = _manifold_key(hints.known_manifold)
    kind, _, k = (key or "").partition("^")
    projective_dim = None
    if kind in ("RP", "CP"):
        if not (k.isascii() and k.isdigit() and len(k) < 10):
            raise InvalidArgument("projective space hint must read RP^k or CP^k")
        k = int(k)
        projective_dim = k if kind == "RP" else 2 * k
    wrong_dim = f"{kind}^{k} is not {d}-dimensional"

    if d == 3:
        ok = F[2] == 2 * F[1] - 2 * n and F[3] == F[1] - n
        report.entries.append(BoundEntry(
            "3-manifold-f-relation", True, ok, 0 if ok else None, ok))
        known = _GAMMA_KEYS.get((key or "").replace("^", ""))  # S^3 is S3
        if projective_dim not in (None, 3):
            _na(report, "walkup-gamma", wrong_dim)
        elif known is not None:
            g = WALKUP_GAMMA[known]
            _entry(report, "walkup-gamma", F[1], 4 * n + g.gamma,
                   conjectural=g.conjectural, notes=f"gamma({known})={g.gamma}")
        elif key is not None:
            _entry(report, "walkup-gamma", F[1], 4 * n + OTHER_MIN_GAMMA,
                   notes="gamma >= 8 for all other 3-manifolds")
        else:
            _na(report, "walkup-gamma", "manifold not identified")

    for name, applicable, lhs, rhs, ok, sharp in novik_bounds(d, n, b2):
        if applicable:
            _entry(report, name, lhs, rhs)
        else:
            _na(report, name, "n outside the stated window")

    if projective_dim is None:
        _na(report, "arnoux-marin", "not a real/complex projective space")
    elif projective_dim == d:
        _entry(report, "arnoux-marin", n, arnoux_marin_min(kind, k))
    else:
        _na(report, "arnoux-marin", wrong_dim)

    if hints.is_homology_sphere == "Z2" and 3 <= d <= 6:
        _entry(report, "bagchi-datta", n, d + 9)
    elif hints.is_homology_sphere == "Z" and d >= 6:
        _entry(report, "bk-homology-sphere", n, 2 * d + 3)
    else:
        _na(report, "bagchi-datta", "no homology-sphere hint in range")

    return report
