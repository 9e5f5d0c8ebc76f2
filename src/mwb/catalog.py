"""Bundled, verified triangulations with their published invariants.

Facet lists live in ``mwb/data`` (override the directory with the
MW_CATALOG_DIR environment variable); every expected value here is
recomputed by the test suite.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from . import iso, tri_io
from .bounds import TopologyHints
from .census import SurfaceClass
from .core import Complex, f_vector, is_k_neighborly, is_pseudomanifold
from .homology import HomologyVector, homology, orientability
from .realization import realization_check


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    filename: str
    description: str
    expected_f: tuple
    expected_homology: HomologyVector
    expected_chi: int
    neighborly: int = 1  # largest k asserted
    orientable: bool | None = None
    genus: int | None = None
    expected_as_determinant: int | None = None
    expected_link_determinants: dict | None = None  # value -> multiplicity
    expected_automorphism_order: int | None = None
    hints: TopologyHints = field(default_factory=TopologyHints)
    has_coordinates: bool = False

    def load(self) -> Complex:
        return tri_io.parse(_read_data(self.filename))

    def load_coordinates(self) -> dict:
        base = self.filename.rsplit(".", 1)[0]
        return tri_io.parse_coords(_read_data(base + ".coords"))


def _read_data(filename: str) -> str:
    override = os.environ.get("MW_CATALOG_DIR")
    if override:
        with open(os.path.join(override, filename), "r", encoding="ascii") as fh:
            return fh.read()
    return resources.files("mwb.data").joinpath(filename).read_text("ascii")


def _H(free, torsion=None):
    torsion = torsion or {}
    return HomologyVector(tuple(free),
                          tuple(tuple(torsion.get(k, ())) for k in range(len(free))))


ENTRIES = (
    CatalogEntry(
        name="csaszar-torus",
        filename="csaszar-torus.tri",
        description="Csaszar's straight-line 7-vertex torus (the neighborly "
                    "Moebius triangulation)",
        expected_f=(7, 21, 14),
        expected_homology=_H((1, 2, 1)),
        expected_chi=0,
        neighborly=2,
        orientable=True,
        genus=1,
        hints=TopologyHints(is_sphere=False, simply_connected=False),
        has_coordinates=True,
    ),
    CatalogEntry(
        name="RP3-11",
        filename="rp3-11.tri",
        description="Walkup's vertex-minimal 11-vertex real projective 3-space",
        expected_f=(11, 51, 80, 40),
        expected_homology=_H((1, 0, 0, 1), {1: (2,)}),
        expected_chi=0,
        orientable=True,
        expected_link_determinants={41616: 6, 12096: 4, 0: 1},
        expected_automorphism_order=48,
        hints=TopologyHints(is_sphere=False, simply_connected=False,
                            known_manifold="RP3"),
    ),
    CatalogEntry(
        name="L31-12",
        filename="l31-12.tri",
        description="12-vertex lens space L(3,1), reduced from the "
                    "Brehm-Swiatkowski series by bistellar flips",
        expected_f=(12, 66, 108, 54),
        expected_homology=_H((1, 0, 0, 1), {1: (3,)}),
        expected_chi=0,
        neighborly=2,
        orientable=True,
        expected_link_determinants={134784: 6, 133056: 3, 112320: 3},
        expected_automorphism_order=6,
        hints=TopologyHints(is_sphere=False, simply_connected=False,
                            is_homology_sphere="Z2", known_manifold="L(3,1)"),
    ),
    CatalogEntry(
        name="S2xS2-11",
        filename="s2xs2-11.tri",
        description="vertex-minimal 11-vertex triangulation of S^2 x S^2",
        expected_f=(11, 55, 150, 170, 68),
        expected_homology=_H((1, 0, 2, 0, 1)),
        expected_chi=4,
        neighborly=2,
        orientable=True,
        hints=TopologyHints(is_sphere=False, simply_connected=True),
    ),
    CatalogEntry(
        name="S3twS1-12",
        filename="s3xs1tw-12.tri",
        description="12-vertex twisted S^3-bundle over S^1",
        expected_f=(12, 60, 120, 120, 48),
        expected_homology=_H((1, 1, 0, 0, 0), {3: (2,)}),
        expected_chi=0,
        orientable=False,
        hints=TopologyHints(is_sphere=False, simply_connected=False),
    ),
    CatalogEntry(
        name="S3xS2-a-12",
        filename="s3xs2-a-12.tri",
        description="vertex-minimal 12-vertex triangulation (a) of S^3 x S^2",
        expected_f=(12, 66, 220, 390, 336, 112),
        expected_homology=_H((1, 0, 1, 1, 0, 1)),
        expected_chi=0,
        neighborly=3,
        orientable=True,
        expected_as_determinant=4471184572226676864,
        hints=TopologyHints(is_sphere=False, simply_connected=True,
                            connectivity=2),
    ),
    CatalogEntry(
        name="S3xS3-a-13",
        filename="s3xs3-a-13.tri",
        description="vertex-minimal 13-vertex triangulation (a) of S^3 x S^3",
        expected_f=(13, 78, 286, 715, 1014, 728, 208),
        expected_homology=_H((1, 0, 0, 2, 0, 0, 1)),
        expected_chi=0,
        neighborly=4,
        orientable=True,
        expected_as_determinant=745714154823444619853824,
        hints=TopologyHints(is_sphere=False, simply_connected=True),
    ),
)


def catalog() -> list:
    """All bundled entries (complexes load lazily via entry.load())."""
    return list(ENTRIES)


def entry(name: str) -> CatalogEntry:
    for e in ENTRIES:
        if e.name.lower() == name.lower():
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def verify_catalog() -> list:
    """Recompute every expected value; returns (name, ok, detail) triples."""
    results = []
    for e in ENTRIES:
        problems = []
        C = e.load()
        fv = f_vector(C)
        if fv.counts != e.expected_f:
            problems.append(f"f-vector {fv.counts} != {e.expected_f}")
        if fv.euler != e.expected_chi:
            problems.append(f"chi {fv.euler} != {e.expected_chi}")
        if homology(C) != e.expected_homology:
            problems.append(f"homology {homology(C)} != {e.expected_homology}")
        pm = is_pseudomanifold(C)
        if not pm:
            problems.append("not a pseudomanifold")
        if e.neighborly > 1 and not is_k_neighborly(C, e.neighborly):
            problems.append(f"not {e.neighborly}-neighborly")
        if pm and (e.orientable is not None or e.genus is not None):
            orientable = orientability(C) == "orientable"  # needs a pseudomanifold
            if e.orientable is not None and orientable != e.orientable:
                problems.append("orientability mismatch")
            if e.genus is not None and C.dim == 2:
                genus = SurfaceClass.of(fv.euler, orientable).genus
                if genus != e.genus:
                    problems.append(f"genus {genus} != {e.genus}")
        if e.expected_as_determinant is not None:
            det = iso.as_determinant(C)
            if det != e.expected_as_determinant:
                problems.append(f"AS determinant {det}")
        if e.expected_link_determinants is not None:
            got: dict = {}
            for d in iso.as_link_determinants(C):
                got[d] = got.get(d, 0) + 1
            if got != e.expected_link_determinants:
                problems.append(f"link determinants {got}")
        if e.expected_automorphism_order is not None:
            order = iso.automorphism_group(C).order
            if order != e.expected_automorphism_order:
                problems.append(f"automorphism order {order}")
        if e.has_coordinates:
            verdict = realization_check(C, e.load_coordinates())
            if not verdict.valid:
                problems.append(f"realization: {verdict.witness}")
        results.append((e.name, not problems, "; ".join(problems) or "ok"))
    return results
