"""Bipartite dimer combinatorics.

Matchings and their enumeration, trivalent height functions,
characteristic polynomials of periodic fundamental domains, and the
gadget correspondence between the free-fermion six-vertex model and a
dimer model with a small "city" replacing each vertex.

Orientation conventions:

* The three-valent height machinery orients every edge white -> black;
  faces are traversed counterclockwise, so the face on the left of an
  oriented edge is the face whose boundary walk contains it.
* Cut crossings: each edge carries an integer vector counting signed
  crossings of the two branch cuts along the black -> white traversal;
  monodromies of a matching are crossing sums relative to the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (Inconsistent, NegativeWeight, NotTrivalent, OutOfRange,
                     TooLarge)

MATCHING_EDGE_CAP = 40
CURVE_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    eid: int
    black: str
    white: str
    weight: float = 1.0
    crossing: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.weight < 0:
            raise NegativeWeight(f"edge {self.eid} has weight {self.weight}")

    def other(self, v: str) -> str:
        return self.white if v == self.black else self.black


class BipartiteGraph:
    """Bipartite graph with optional planar embedding data.

    ``rotations`` maps a vertex to the counterclockwise cyclic order of its
    incident edge ids; when coordinates are supplied instead, rotations are
    derived by angle sorting (simple graphs only).  Faces are traced from
    the rotation system; 1-valent vertices count as boundary.
    """

    def __init__(self, colors: dict, edges: list, coords: dict | None = None,
                 rotations: dict | None = None):
        self.colors = dict(colors)
        self.edges = list(edges)
        self.coords = dict(coords) if coords else None
        for e in self.edges:
            if self.colors.get(e.black) != "black" or self.colors.get(e.white) != "white":
                raise Inconsistent(f"edge {e.eid} must join a black to a white vertex")
        self.incident: dict = {v: [] for v in self.colors}
        for e in self.edges:
            self.incident[e.black].append(e.eid)
            self.incident[e.white].append(e.eid)
        self.boundary = {v for v, inc in self.incident.items() if len(inc) == 1}
        self._rotations = rotations
        self._faces = None
        self._side = None

    # -- embedding ---------------------------------------------------------

    def rotations(self) -> dict:
        if self._rotations is not None:
            return self._rotations
        if self.coords is None:
            raise Inconsistent("no embedding: supply coordinates or rotations")
        rot = {}
        for v, inc in self.incident.items():
            if len(set(inc)) != len(inc):
                raise Inconsistent("parallel edges need explicit rotations")
            x0, y0 = self.coords[v]

            def ang(eid):
                e = self._edge(eid)
                x1, y1 = self.coords[e.other(v)]
                return math.atan2(y1 - y0, x1 - x0)

            rot[v] = sorted(inc, key=ang)
        self._rotations = rot
        return rot

    def _edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def _trace_faces(self):
        """Orbit decomposition of the half-edge successor map.

        Faces are walked with the interior on the left, so for an oriented
        half-edge (u -> v) the next one leaves v along the edge that
        precedes (v -> u) in the counterclockwise rotation at v.
        """
        rot = self.rotations()
        pos = {v: {eid: k for k, eid in enumerate(r)} for v, r in rot.items()}
        faces = []
        seen = set()
        for e in self.edges:
            for tail in (e.black, e.white):
                he = (e.eid, tail)
                if he in seen:
                    continue
                walk = []
                cur = he
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur)
                    eid, t = cur
                    head = self._edge(eid).other(t)
                    r = rot[head]
                    k = pos[head][eid]
                    nxt = r[(k - 1) % len(r)]
                    cur = (nxt, head)
                faces.append(walk)
        self._faces = faces
        side = {}
        for fid, walk in enumerate(faces):
            for eid, tail in walk:
                e = self._edge(eid)
                # half-edge tail->head with the face on its left
                if tail == e.white:
                    side.setdefault(eid, [None, None])[0] = fid   # left of w->b
                else:
                    side.setdefault(eid, [None, None])[1] = fid   # right of w->b
        self._side = {eid: tuple(lr) for eid, lr in side.items()}

    def faces(self) -> list:
        if self._faces is None:
            self._trace_faces()
        return self._faces

    def edge_sides(self) -> dict:
        """eid -> (face left of white->black, face right of white->black)."""
        if self._side is None:
            self._trace_faces()
        return self._side

    def face_boundary_sign(self) -> dict:
        """fid -> list of (eid, +1/-1); +1 when the walk runs white->black."""
        out = {}
        for fid, walk in enumerate(self.faces()):
            items = []
            for eid, tail in walk:
                e = self._edge(eid)
                items.append((eid, 1 if tail == e.white else -1))
            out[fid] = items
        return out

    def internal_vertices(self) -> list:
        return [v for v in sorted(self.colors) if v not in self.boundary]


def config_weight(g: BipartiteGraph, d: frozenset) -> float:
    total = 1.0
    for eid in d:
        total *= g._edge(eid).weight
    return total


def enumerate_matchings(g: BipartiteGraph) -> list[frozenset]:
    """All dimer configurations: internal vertices covered exactly once,
    boundary vertices at most once.  Capped at 40 edges."""
    if len(g.edges) > MATCHING_EDGE_CAP:
        raise TooLarge(f"{len(g.edges)} edges exceeds the matching cap")
    internal = g.internal_vertices()
    out: list[frozenset] = []
    covered: set = set()
    chosen: list = []

    def rec(i: int):
        while i < len(internal) and internal[i] in covered:
            i += 1
        if i == len(internal):
            out.append(frozenset(chosen))
            return
        v = internal[i]
        for eid in sorted(g.incident[v]):
            e = g._edge(eid)
            u = e.other(v)
            if u in covered:
                continue
            covered.add(v)
            covered.add(u)
            chosen.append(eid)
            rec(i + 1)
            chosen.pop()
            covered.discard(v)
            covered.discard(u)

    rec(0)
    return out


# ---------------------------------------------------------------------------
# face walks
# ---------------------------------------------------------------------------

def _face_walk(g: BipartiteGraph, step, ref_face: int | None, ref_value,
               what: str) -> dict:
    """Face values from ref_value at ref_face (default: the last face).

    Crossing edge eid from its left to its right face, as `edge_sides` gives
    them, adds step(eid); the other way subtracts it.  A face reached twice
    with values 1e-9 apart raises Inconsistent("<what> do not close up").
    """
    sides = g.edge_sides()
    nf = len(g.faces())
    if ref_face is None:
        ref_face = nf - 1
    vals = {ref_face: ref_value}
    queue = [ref_face]
    while queue:
        f = queue.pop()
        for eid, (lw, rw) in sides.items():
            if f not in (lw, rw):
                continue
            other, delta = (rw, step(eid)) if f == lw else (lw, -step(eid))
            if other in vals:
                if abs(vals[other] - (vals[f] + delta)) > 1e-9:
                    raise Inconsistent(f"{what} do not close up")
            else:
                vals[other] = vals[f] + delta
                queue.append(other)
    if len(vals) != nf:
        raise Inconsistent("graph not connected through faces")
    return vals


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralCurve:
    """Real Laurent polynomial sum c_ij z^i w^j with |i|, |j| <= 8."""

    coeffs: tuple

    @staticmethod
    def from_dict(d: dict) -> "SpectralCurve":
        items = tuple(sorted((k, float(v)) for k, v in d.items() if v != 0.0))
        return SpectralCurve(items)

    def __post_init__(self):
        if not self.coeffs:
            raise Inconsistent("spectral curve is identically zero")
        for (i, j), _ in self.coeffs:
            if abs(i) > CURVE_DEGREE_CAP or abs(j) > CURVE_DEGREE_CAP:
                raise OutOfRange(f"exponent ({i},{j}) beyond the degree cap")

    def as_dict(self) -> dict:
        return {k: v for k, v in self.coeffs}

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        total = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for (i, j), c in self.coeffs:
            total = total + c * z ** i * w ** j
        return total

    def transformed(self, swap=False, invert_z=False, invert_w=False,
                    negate_z=False, negate_w=False) -> "SpectralCurve":
        out = {}
        for (i, j), c in self.coeffs:
            if invert_z:
                i = -i
            if invert_w:
                j = -j
            if negate_z and i % 2:
                c = -c
            if negate_w and j % 2:
                c = -c
            if swap:
                i, j = j, i
            out[(i, j)] = out.get((i, j), 0.0) + c
        return SpectralCurve.from_dict(out)

    def normalized(self) -> "SpectralCurve":
        """Divide by the coefficient at the lexicographically smallest
        exponent and shift that exponent to the origin."""
        scale = max(abs(c) for _, c in self.coeffs)
        kept = [(k, c) for k, c in self.coeffs if abs(c) > 1e-12 * scale]
        (i0, j0), c0 = min(kept)
        out = {(i - i0, j - j0): c / c0 for (i, j), c in kept}
        return SpectralCurve.from_dict(out)


def _close(p: SpectralCurve, q: SpectralCurve, tol: float) -> bool:
    a, b = p.as_dict(), q.as_dict()
    keys = set(a) | set(b)
    scale = max(abs(v) for v in a.values())
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol * scale for k in keys)


def curves_equal_mod_units(p: SpectralCurve, q: SpectralCurve,
                           relabel: bool = False, invert: bool = False,
                           negate: bool = False, tol: float = 1e-9):
    """Test q = +- z^a w^b p, optionally up to flagged variable changes.

    Returns (equal, transform) where transform records the variant used:
    swap (z <-> w), inversions z -> 1/z, w -> 1/w, and sign flips
    z -> -z, w -> -w.  Only the plain monomial-unit comparison runs unless
    the corresponding flags are set.
    """
    base = p.normalized()
    swaps = (False, True) if relabel else (False,)
    invs = ((False, False), (True, False), (False, True), (True, True)) if invert \
        else ((False, False),)
    negs = ((False, False), (True, False), (False, True), (True, True)) if negate \
        else ((False, False),)
    for sw in swaps:
        for iz, iw in invs:
            for nz, nw in negs:
                cand = q.transformed(swap=sw, invert_z=iz, invert_w=iw,
                                     negate_z=nz, negate_w=nw).normalized()
                if _close(base, cand, tol):
                    used = {"swap": sw, "invert_z": iz, "invert_w": iw,
                            "negate_z": nz, "negate_w": nw}
                    return True, used
    return False, None


# ---------------------------------------------------------------------------
# fundamental domains and characteristic polynomials
# ---------------------------------------------------------------------------

def matching_monodromy(g: BipartiteGraph, d: frozenset) -> tuple[int, int]:
    cx = sum(g._edge(e).crossing[0] for e in d)
    cy = sum(g._edge(e).crossing[1] for e in d)
    return cx, cy


def characteristic_polynomial(g: BipartiteGraph,
                              reference: frozenset | None = None) -> SpectralCurve:
    """P(z, w) from the toric matchings of a periodic cell, whose edges
    carry their cut crossings.

    Each matching contributes its weight (normalized by the reference
    matching) times z^dz w^dw and the sign (-1)^(dz dw + dz + dw), with
    (dz, dw) the cut-crossing monodromies relative to the reference.
    """
    matchings = enumerate_matchings(g)
    if not matchings:
        raise Inconsistent("cell admits no toric dimer configuration")
    ref = matchings[0] if reference is None else reference
    w_ref = config_weight(g, ref)
    cx0, cy0 = matching_monodromy(g, ref)
    coeffs: dict = {}
    for m in matchings:
        cx, cy = matching_monodromy(g, m)
        dz, dw = cx - cx0, cy - cy0
        sign = -1.0 if (dz * dw + dz + dw) % 2 else 1.0
        term = sign * config_weight(g, m) / w_ref
        coeffs[(dz, dw)] = coeffs.get((dz, dw), 0.0) + term
    return SpectralCurve.from_dict(coeffs)


def hexagonal_cell(alpha: float = 1.0, beta: float = 1.0,
                   gamma: float = 1.0) -> BipartiteGraph:
    """One black and one white vertex; three toric matchings."""
    colors = {"b": "black", "w": "white"}
    edges = [
        Edge(0, "b", "w", alpha, (0, 0)),
        Edge(1, "b", "w", beta, (1, 0)),
        Edge(2, "b", "w", gamma, (0, 1)),
    ]
    return BipartiteGraph(colors, edges)


def dimer_city_cell(a1: float, a2: float, a3: float, a4: float,
                    b1: float, b2: float, g: float) -> BipartiteGraph:
    """Six-vertex city gadget closed into a torus cell.

    The two diagonal edges are b1 (southwest) and b2 (northeast); a1..a4
    run counterclockwise from the north-northwest position; g is the
    central chord.  External legs fuse into one horizontal and one
    vertical wrap edge of weight 1.
    """
    colors = {"d0": "black", "d3": "black", "d5": "black",
              "d1": "white", "d2": "white", "d4": "white"}
    edges = [
        Edge(0, "d0", "d1", b2, (0, 0)),
        Edge(1, "d5", "d1", a1, (0, 0)),
        Edge(2, "d5", "d2", a2, (0, 0)),
        Edge(3, "d3", "d2", b1, (0, 0)),
        Edge(4, "d3", "d4", a3, (0, 0)),
        Edge(5, "d0", "d4", a4, (0, 0)),
        Edge(6, "d5", "d4", g, (0, 0)),
        Edge(7, "d0", "d2", 1.0, (1, 0)),   # east leg onto the next west leg
        Edge(8, "d3", "d1", 1.0, (0, 1)),   # south leg onto the next north leg
    ]
    return BipartiteGraph(colors, edges)


# ---------------------------------------------------------------------------
# free-fermion correspondence
# ---------------------------------------------------------------------------

def ff_weights_to_city(a: float, b: float, c: float) -> tuple[float, float, float]:
    """City weights (alpha, beta, gamma) realizing the free-fermion
    six-vertex weights (a, b, c); needs c >= b."""
    if a <= 0 or b <= 0 or c <= 0:
        raise OutOfRange("weights must be positive")
    if c < b:
        raise NegativeWeight(f"c={c} < b={b} makes the diagonal weight negative")
    return math.sqrt(b), (c - b) / a, a


def ff_city_curve(u: float) -> SpectralCurve:
    """Characteristic polynomial of the city cell at a = cos u, b = sin u,
    c = 1."""
    alpha, beta, gamma = ff_weights_to_city(math.cos(u), math.sin(u), 1.0)
    cell = dimer_city_cell(alpha, alpha, alpha, alpha, beta, beta, gamma)
    return characteristic_polynomial(cell)


def ff_reference_curve(u: float) -> SpectralCurve:
    """(w z - 1) cos u + (z + w) sin u."""
    cu, su = math.cos(u), math.sin(u)
    return SpectralCurve.from_dict({(1, 1): cu, (0, 0): -cu, (1, 0): su, (0, 1): su})


def hex_reference_curve() -> SpectralCurve:
    return SpectralCurve.from_dict({(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0})


# ---------------------------------------------------------------------------
# three-valent height functions (uniform-cover normalization)
# ---------------------------------------------------------------------------

def trivalent_height(g: BipartiteGraph, d: frozenset,
                     ref_face: int | None = None,
                     ref_value: float = 0.0) -> dict:
    """Height on faces with steps +1 across dimers and -1/2 otherwise.

    Edges are oriented white -> black; the step is taken from the right
    face to the left face.  Equals 3/2 times the height relative to the
    uniform cover.  All internal vertices must be 3-valent.
    """
    for v in g.internal_vertices():
        if len(g.incident[v]) != 3:
            raise NotTrivalent(f"vertex {v} has valence {len(g.incident[v])}")
    # theta(rw) - theta(lw) = -(theta(L) - theta(R)) = -(1 or -1/2)
    return _face_walk(g, lambda eid: -1.0 if eid in d else 0.5,
                      ref_face, ref_value, "height steps")


def weight_from_height(theta: dict, g: BipartiteGraph) -> float:
    """Reassemble a configuration weight from its trivalent height.

    Computes prod_e w(e)^(1/3) * prod_f q_f^(2 theta(f) / 3) in log space;
    equals the product of the matched edge weights.
    """
    logw = 0.0
    for e in g.edges:
        if e.weight <= 0:
            raise NegativeWeight("weights must be strictly positive")
        logw += math.log(e.weight) / 3.0
    bnd = g.face_boundary_sign()
    for fid, items in bnd.items():
        logq = sum(eps * math.log(g._edge(eid).weight) for eid, eps in items)
        logw += 2.0 * theta[fid] / 3.0 * logq
    return math.exp(logw)


# ---------------------------------------------------------------------------
# test graphs
# ---------------------------------------------------------------------------

def theta_graph(w0: float = 1.0, w1: float = 1.0, w2: float = 1.0) -> BipartiteGraph:
    """Two 3-valent vertices joined by three parallel edges."""
    colors = {"b": "black", "w": "white"}
    edges = [Edge(0, "b", "w", w0), Edge(1, "b", "w", w1), Edge(2, "b", "w", w2)]
    rotations = {"b": [0, 1, 2], "w": [2, 1, 0]}
    return BipartiteGraph(colors, edges, rotations=rotations)


def _prism_graph(outer, inner, weights) -> BipartiteGraph:
    """Rings at `outer` and `inner` joined spoke by spoke, colours alternating."""
    n = len(outer)
    colors, coords, pairs = {}, {}, []
    for k in range(n):
        colors[f"o{k}"] = "black" if k % 2 == 0 else "white"
        colors[f"i{k}"] = "white" if k % 2 == 0 else "black"
        coords[f"o{k}"] = outer[k]
        coords[f"i{k}"] = inner[k]
        pairs += [(f"o{k}", f"o{(k + 1) % n}"), (f"i{k}", f"i{(k + 1) % n}"), (f"o{k}", f"i{k}")]
    ws = [1.0] * len(pairs) if weights is None else list(weights)
    edges = [Edge(eid, *((u, v) if colors[u] == "black" else (v, u)), ws[eid])
             for eid, (u, v) in enumerate(pairs)]
    return BipartiteGraph(colors, edges, coords=coords)


def cube_graph(weights=None) -> BipartiteGraph:
    """Planar cube skeleton: 8 vertices, 12 edges, 9 matchings."""
    return _prism_graph([(2, 2), (-2, 2), (-2, -2), (2, -2)],
                        [(1, 1), (-1, 1), (-1, -1), (1, -1)], weights)


def prism_graph(weights=None) -> BipartiteGraph:
    """Hexagonal prism skeleton: 12 vertices, 18 edges, 3-valent."""
    angles = [math.pi * k / 3.0 for k in range(6)]
    return _prism_graph([(2 * math.cos(a), 2 * math.sin(a)) for a in angles],
                        [(math.cos(a), math.sin(a)) for a in angles], weights)


def parse_graph_text(text: str) -> BipartiteGraph:
    """Parse the plain-text adjacency listing documented in the CLI.

    Each non-comment line: ``vertex color [@x,y] [nbr:weight ...]``.
    Edges may be listed from either endpoint; duplicates must agree.
    """
    colors: dict = {}
    coords: dict = {}
    pending: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise Inconsistent(f"malformed line: {raw!r}")
        vid, color = parts[0], parts[1].lower()
        if color not in ("black", "white"):
            raise Inconsistent(f"color must be black or white, got {color!r}")
        colors[vid] = color
        rest = parts[2:]
        if rest and rest[0].startswith("@"):
            x, y = rest[0][1:].split(",")
            coords[vid] = (float(x), float(y))
            rest = rest[1:]
        for item in rest:
            nbr, _, wtxt = item.partition(":")
            wgt = float(wtxt) if wtxt else 1.0
            key = tuple(sorted((vid, nbr)))
            if key in pending and abs(pending[key] - wgt) > 1e-12:
                raise Inconsistent(f"edge {key} listed twice with different weights")
            pending[key] = wgt
    edges = []
    for eid, ((u, v), wgt) in enumerate(sorted(pending.items())):
        if u not in colors or v not in colors:
            raise Inconsistent(f"edge ({u},{v}) references an unknown vertex")
        if colors[u] == colors[v]:
            raise Inconsistent(f"edge ({u},{v}) joins vertices of equal color")
        b, wv = (u, v) if colors[u] == "black" else (v, u)
        edges.append(Edge(eid, b, wv, wgt))
    return BipartiteGraph(colors, edges, coords=coords or None)
