"""Published and topological reference values that the benchmark checks
outputs against.  Nothing here is computed by mwb.
"""

# Closed surfaces with n vertices, counted per (Euler characteristic,
# orientable) up to isomorphism.  Source: F. H. Lutz and T. Sulanke,
# "Isomorphism-free lexicographic enumeration of triangulated surfaces and
# 3-manifolds", arXiv:math/0610022, Table 1 (the rows n <= 9 agree with the
# earlier hand and computer counts it cites).
SURFACE_COUNTS = {
    4: {(2, True): 1},
    5: {(2, True): 1},
    6: {(2, True): 2, (1, False): 1},
    7: {(2, True): 5, (0, True): 1, (1, False): 3},
    8: {(2, True): 14, (0, True): 7, (1, False): 16, (0, False): 6},
    9: {(2, True): 50, (0, True): 112, (1, False): 134, (0, False): 187,
        (-1, False): 133, (-2, False): 37, (-3, False): 2},
}

# Combinatorial types of triangulated 2-spheres with n vertices, the
# simplicial 3-polytopes of Steinitz' theorem.  Source: R. Bowen and
# S. Fisk, "Generation of triangulations of the sphere", Math. Comp. 21
# (1967), the n = 10 row reproduced in arXiv:math/0610022, Table 1.
SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}

# Integral homology H_0..H_d, in the notation mwb prints, of the manifolds
# the workloads touch.  These follow from the Kuenneth formula, Poincare
# duality and the standard computations for lens spaces and mapping tori,
# independently of any triangulation.
HOMOLOGY = {
    "torus": "(Z, Z^2, Z)",
    "RP3": "(Z, Z_2, 0, Z)",
    "L(3,1)": "(Z, Z_3, 0, Z)",
    "S2xS2": "(Z, 0, Z^2, 0, Z)",
    "S3 twisted over S1": "(Z, Z, 0, Z_2, 0)",
    "S3xS2": "(Z, 0, Z, Z, 0, Z)",
    "S3xS3": "(Z, 0, 0, Z^2, 0, 0, Z)",
    # the non-orientable S2-bundle over S1: H_1 = Z from the base circle,
    # and a closed non-orientable 3-manifold has H_2 torsion Z_2, H_3 = 0
    "S2 twisted over S1": "(Z, Z, Z_2, 0)",
}

# The manifold each bundled catalog entry triangulates.
CATALOG_TOPOLOGY = {
    "csaszar-torus": "torus",
    "RP3-11": "RP3",
    "L31-12": "L(3,1)",
    "S2xS2-11": "S2xS2",
    "S3twS1-12": "S3 twisted over S1",
    "S3xS2-a-12": "S3xS2",
    "S3xS3-a-13": "S3xS3",
}

# Flip-reduction targets, after Bjoerner and Lutz, Experiment. Math. 9
# (2000).  The 16-vertex staircase product of two boundary triangles must
# come down to at most 12 vertices (the vertex-minimal S2xS2 has 11); the
# twisted S2-bundle over S1 must reach Walkup's vertex-minimal 9-vertex
# triangulation, which is 2-neighborly, so Dehn-Sommerville fixes its
# f-vector at (9, 36, 54, 27).
S2XS2_TARGET_F0 = 12
TWISTED_BUNDLE_TARGET_F = (9, 36, 54, 27)
