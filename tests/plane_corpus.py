"""Embedded test graphs: platonic solids, wheels, random triangulations.

Solids are built from consistently oriented face lists; random triangulations
grow by repeatedly placing a new vertex inside a face (the rotation updates
keep the embedding valid by construction), and random plane graphs with
minimum degree 2 come from triangulations by seeded edge deletion.
"""

from __future__ import annotations

import random

from kempe.planar import PlaneGraph, delete_edge_planar, plane_graph_from_faces, trace_faces
from kempe.graphs import is_connected

TETRAHEDRON_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]

CUBE_FACES = [(0, 1, 2, 3), (0, 4, 5, 1), (1, 5, 6, 2), (2, 6, 7, 3),
              (3, 7, 4, 0), (7, 6, 5, 4)]

OCTAHEDRON_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
                    (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]

# Pentagonal faces of the dodecahedron, oriented consistently.
DODECAHEDRON_FACES = [
    (0, 1, 2, 3, 4), (0, 5, 10, 6, 1), (1, 6, 11, 7, 2), (2, 7, 12, 8, 3),
    (3, 8, 13, 9, 4), (4, 9, 14, 5, 0), (15, 16, 11, 6, 10), (16, 17, 12, 7, 11),
    (17, 18, 13, 8, 12), (18, 19, 14, 9, 13), (19, 15, 10, 5, 14), (19, 18, 17, 16, 15),
]

# Icosahedron: vertex 0 on top, ring 1-5, ring 6-10, vertex 11 at bottom.
ICOSAHEDRON_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 6, 2), (2, 7, 3), (3, 8, 4), (4, 9, 5), (5, 10, 1),
    (6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1),
    (11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10),
]


def tetrahedron() -> PlaneGraph:
    return plane_graph_from_faces(4, TETRAHEDRON_FACES)


def cube() -> PlaneGraph:
    return plane_graph_from_faces(8, CUBE_FACES)


def octahedron() -> PlaneGraph:
    return plane_graph_from_faces(6, OCTAHEDRON_FACES)


def dodecahedron() -> PlaneGraph:
    return plane_graph_from_faces(20, DODECAHEDRON_FACES)


def icosahedron() -> PlaneGraph:
    return plane_graph_from_faces(12, ICOSAHEDRON_FACES)


def platonic_solids() -> list[PlaneGraph]:
    return [tetrahedron(), cube(), octahedron(), dodecahedron(), icosahedron()]


def wheel(rim: int) -> PlaneGraph:
    """Wheel: rim cycle 0..rim-1 around center vertex rim."""
    faces = [(i, (i + 1) % rim, rim) for i in range(rim)]
    faces.append(tuple(reversed(range(rim))))
    return plane_graph_from_faces(rim + 1, faces)


def prism(k: int) -> PlaneGraph:
    """The cubic prism C_k x K2: cycle 0..k-1 inside cycle k..2k-1, spokes i - k+i."""
    faces = [tuple(range(k)), tuple(range(2 * k - 1, k - 1, -1))]
    faces += [((i + 1) % k, i, k + i, k + (i + 1) % k) for i in range(k)]
    return plane_graph_from_faces(2 * k, faces)


def random_triangulation(n: int, seed: int) -> PlaneGraph:
    """Grow an embedded triangulation from K3 by inserting vertices into faces."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    rotation = [[1, 2], [2, 0], [0, 1]]
    faces = [(0, 1, 2), (2, 1, 0)]
    for u in range(3, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        rotation.append([a, c, b])
        # At each corner (x, y, z) of the old face, u slots in right after x
        # in the rotation at y.
        for x, y in ((a, b), (b, c), (c, a)):
            rot = rotation[y]
            rot.insert(rot.index(x) + 1, u)
        faces[fi] = (a, b, u)
        faces.append((b, c, u))
        faces.append((c, a, u))
    pg = PlaneGraph(_graph(rotation), _rot(rotation))
    trace_faces(pg)
    return pg


def _graph(rotation):
    from kempe.graphs import Graph
    return Graph(len(rotation), tuple(tuple(sorted(r)) for r in rotation))


def _rot(rotation):
    return tuple(tuple(r) for r in rotation)


def random_plane_min2(n: int, seed: int, deletions: int | None = None) -> PlaneGraph:
    """A random connected plane graph with min degree >= 2 (<= n vertices)."""
    rng = random.Random(seed)
    pg = random_triangulation(n, seed * 7919 + 1)
    tries = deletions if deletions is not None else 3 * n
    for _ in range(tries):
        edges = pg.graph.edges()
        u, v = edges[rng.randrange(len(edges))]
        if pg.graph.degree(u) <= 2 or pg.graph.degree(v) <= 2:
            continue
        candidate = delete_edge_planar(pg, u, v)
        if is_connected(candidate.graph):
            pg = candidate
    return pg
