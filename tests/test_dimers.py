import math

import numpy as np
import pytest

from icelab import dimers as dm
from icelab.dimers import BipartiteGraph, Edge, _face_walk
from icelab.errors import Inconsistent, NegativeWeight, NotTrivalent, TooLarge


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------

def test_matching_counts():
    assert len(dm.enumerate_matchings(single_edge_graph())) == 1
    assert len(dm.enumerate_matchings(dm.hexagonal_cell())) == 3
    assert len(dm.enumerate_matchings(dm.dimer_city_cell(1, 1, 1, 1, 1, 1, 1))) == 6


def test_matchings_cover_each_internal_vertex_once():
    g = dm.cube_graph()
    for d in dm.enumerate_matchings(g):
        seen = {}
        for eid in d:
            e = g.edges[eid]
            for v in (e.black, e.white):
                seen[v] = seen.get(v, 0) + 1
        assert all(seen.get(v, 0) == 1 for v in g.internal_vertices())


def test_matching_cap():
    colors = {}
    edges = []
    for k in range(42):
        colors[f"v{k}"] = "black" if k % 2 == 0 else "white"
    for k in range(41):
        b, w = (f"v{k}", f"v{k+1}") if k % 2 == 0 else (f"v{k+1}", f"v{k}")
        edges.append(dm.Edge(k, b, w))
    with pytest.raises(TooLarge):
        dm.enumerate_matchings(dm.BipartiteGraph(colors, edges))


# ---------------------------------------------------------------------------
# relative heights
#
# Composition cycles orient matched edges of the first configuration
# black -> white and of the reference white -> black; the height increases
# by one when stepping across a cycle from its right side to its left side.
# ---------------------------------------------------------------------------

def relative_height(g: BipartiteGraph, d: frozenset, d0: frozenset,
                    ref_face: int | None = None, ref_value: int = 0) -> dict:
    """Integer face function of the composition cycles of (d, d0).

    Planar graphs only.  The step from the right to the left side of an
    edge (left/right along black -> white) is +1 for edges of ``d`` and
    -1 for edges of ``d0``.
    """
    # theta(L_bw) - theta(R_bw) = theta(rw) - theta(lw)
    return _face_walk(g, lambda eid: (1 if eid in d else 0) - (1 if eid in d0 else 0),
                      ref_face, ref_value, "composition cycles")


def outer_face(g: BipartiteGraph) -> int:
    """Face with clockwise (negative-area) boundary walk; needs coords."""
    if g.coords is None:
        raise Inconsistent("outer face detection needs coordinates")
    best, best_area = None, None
    for fid, walk in enumerate(g.faces()):
        pts = [g.coords[tail] for _, tail in walk]
        area = 0.0
        for k in range(len(pts)):
            x0, y0 = pts[k]
            x1, y1 = pts[(k + 1) % len(pts)]
            area += x0 * y1 - x1 * y0
        if best is None or area < best_area:
            best, best_area = fid, area
    return best


def single_edge_graph(weight: float = 1.0) -> BipartiteGraph:
    """One dimer edge with the two sides of the plane as distinct faces."""
    g = BipartiteGraph({"b": "black", "w": "white"},
                       [Edge(0, "b", "w", weight)],
                       rotations={"b": [0], "w": [0]})
    # the rotation-system trace would merge both sides into one walk; keep
    # them apart so the local height step across the dimer is visible
    g._faces = [[(0, "w")], [(0, "b")]]
    g._side = {0: (0, 1)}
    return g


def composition_figure_graph() -> BipartiteGraph:
    """The 12-vertex planar graph used for the composition-cycle example."""
    pts_b = [(-0.8, 0.1), (0.1, -0.1), (0.4, 0.8), (0.3, -1.0), (1.0, 0.1), (1.3, -0.7)]
    pts_w = [(-0.2, 0.6), (-0.4, -0.65), (0.5, -0.5), (0.7, 0.5), (1.0, -1.1), (1.3, -0.3)]
    colors = {}
    coords = {}
    for k, p in enumerate(pts_b):
        colors[f"b{k}"] = "black"
        coords[f"b{k}"] = p
    for k, p in enumerate(pts_w):
        colors[f"w{k}"] = "white"
        coords[f"w{k}"] = p
    pairs = ["b0w0", "b0w1", "b1w0", "b1w1", "b1w2", "b3w1", "b3w2", "b3w4",
             "b2w0", "b2w3", "b4w2", "b4w3", "b4w5", "b5w4", "b5w5"]
    edges = [Edge(eid, s[:2], s[2:], 1.0) for eid, s in enumerate(pairs)]
    return BipartiteGraph(colors, edges, coords=coords)


def _fig_graph_configs():
    g = composition_figure_graph()

    def eids(names):
        return frozenset(next(e.eid for e in g.edges if e.black + e.white == nm)
                         for nm in names)

    d0 = eids(["b0w0", "b1w1", "b3w2", "b4w5", "b5w4", "b2w3"])
    d = eids(["b0w1", "b1w0", "b3w4", "b5w5", "b4w2", "b2w3"])
    return g, d, d0


def test_relative_height_zero_on_equal_configs():
    g, d, d0 = _fig_graph_configs()
    vals = relative_height(g, d0, d0, ref_face=outer_face(g))
    assert all(v == 0 for v in vals.values())


def test_relative_height_figure_labels():
    g, d, d0 = _fig_graph_configs()
    outer = outer_face(g)
    h = relative_height(g, d, d0, ref_face=outer, ref_value=0)

    def face_at(pt):
        for fid, walk in enumerate(g.faces()):
            if fid == outer:
                continue
            pts = [g.coords[tail] for _, tail in walk]
            x, y = pt
            inside = False
            for k in range(len(pts)):
                x0, y0 = pts[k]
                x1, y1 = pts[(k + 1) % len(pts)]
                if (y0 > y) != (y1 > y) and x < x0 + (y - y0) * (x1 - x0) / (y1 - y0):
                    inside = not inside
            if inside:
                return fid
        return outer

    assert h[face_at((-0.3, 0.0))] == 1
    assert h[face_at((0.9, -0.6))] == 1
    assert h[face_at((0.4, 0.2))] == 0
    assert h[face_at((0.1, -0.5))] == 0


def test_relative_height_increment_property():
    g = dm.cube_graph()
    ms = dm.enumerate_matchings(g)
    sides = g.edge_sides()
    for d in ms[:4]:
        for d0 in ms[:4]:
            h = relative_height(g, d, d0)   # raises if cycles fail to close
            for eid, (lw, rw) in sides.items():
                assert h[rw] - h[lw] in (-1, 0, 1)


# ---------------------------------------------------------------------------
# spectral curves
# ---------------------------------------------------------------------------

def test_hex_curve_strict():
    p = dm.characteristic_polynomial(dm.hexagonal_cell())
    eq, tr = dm.curves_equal_mod_units(p, dm.hex_reference_curve())
    assert eq and not any(tr.values())


def test_curves_equal_trivials():
    p = dm.hex_reference_curve()
    q = dm.SpectralCurve.from_dict({(-1, 0): -1.0, (0, 0): 1.0, (-1, 1): 1.0})
    # q = -z^-1 (1 - z - w)
    assert dm.curves_equal_mod_units(p, q)[0]
    q2 = dm.SpectralCurve.from_dict({(0, 0): 1.0, (1, 0): -1.0, (0, 1): -2.0})
    assert not dm.curves_equal_mod_units(p, q2)[0]


def test_hex_weight_doubling_is_overall_constant():
    p1 = dm.characteristic_polynomial(dm.hexagonal_cell(1.0, 1.0, 1.0))
    p2 = dm.characteristic_polynomial(dm.hexagonal_cell(2.0, 2.0, 2.0))
    # every toric matching has one dimer, so P just rescales
    eq, _ = dm.curves_equal_mod_units(p1, p2)
    assert eq
    d1, d2 = p1.as_dict(), p2.as_dict()
    ratios = {k: d2[k] / d1[k] for k in d1}
    assert max(ratios.values()) - min(ratios.values()) < 1e-14


def test_city_symbolic_matches_reference_form():
    # the cell polynomial against the hand-expanded toric matching sum,
    # written in the inverted-and-swapped variable convention
    rng = np.random.default_rng(3)
    a1, a2, a3, a4, b1, b2, g = rng.uniform(0.5, 2.0, 7)
    P = dm.characteristic_polynomial(dm.dimer_city_cell(a1, a2, a3, a4, b1, b2, g))
    reference = dm.SpectralCurve.from_dict({
        (0, 0): b1 * b2 * g + a1 * a4 * b1 + a2 * a3 * b2,
        (0, 1): -a1 * a3,
        (-1, 0): -a2 * a4,
        (-1, 1): -g,
    })
    eq, tr = dm.curves_equal_mod_units(P, reference, relabel=True, invert=True)
    assert eq
    assert tr["swap"] and tr["invert_z"]
    assert not dm.curves_equal_mod_units(P, reference)[0]


def test_ff_curve_identity():
    for u in (math.pi / 6, math.pi / 4, math.pi / 3):
        eq, tr = dm.curves_equal_mod_units(dm.ff_city_curve(u),
                                           dm.ff_reference_curve(u))
        assert eq and not any(tr.values())


def test_reference_matching_independence():
    g = dm.dimer_city_cell(1.3, 0.7, 1.1, 0.8, 1.4, 0.9, 1.2)
    ms = dm.enumerate_matchings(g)
    p0 = dm.characteristic_polynomial(g, reference=ms[0])
    p1 = dm.characteristic_polynomial(g, reference=ms[1])
    eq, _ = dm.curves_equal_mod_units(p0, p1, negate=True)
    assert eq
    # hexagonal cell: any two references differ by a unit and sign flips
    hexg = dm.hexagonal_cell()
    hms = dm.enumerate_matchings(hexg)
    q0 = dm.characteristic_polynomial(hexg, reference=hms[0])
    q1 = dm.characteristic_polynomial(hexg, reference=hms[1])
    assert dm.curves_equal_mod_units(q0, q1, negate=True)[0]


# ---------------------------------------------------------------------------
# free-fermion correspondence
# ---------------------------------------------------------------------------

def city_vertex_weights(a1, a2, a3, a4, b1, b2, g) -> tuple:
    """Six-vertex weights w1..w6 realized by the city gadget.

    Both two-dimer terms carry the central-chord factor; that is what
    makes w1 w2 + w3 w4 = w5 w6 hold identically, i.e. the gadget sits at
    the free-fermion point for every choice of weights.
    """
    if min(a1, a2, a3, a4, b1, b2, g) < 0:
        raise NegativeWeight("city weights must be nonnegative")
    w1 = b1 * b2 * g + b2 * a2 * a3 + b1 * a1 * a4
    w2 = g
    w3 = a1 * a3
    w4 = a4 * a2
    w5 = a2 * a3 + b1 * g
    w6 = a1 * a4 + b2 * g
    return (w1, w2, w3, w4, w5, w6)


def test_ff_weights_to_city_examples():
    u = math.pi / 4
    alpha, beta, gamma = dm.ff_weights_to_city(math.cos(u), math.sin(u), 1.0)
    assert abs(alpha - 2 ** (-0.25)) < 1e-15
    s2 = math.sqrt(2) / 2
    assert abs(beta - (1 - s2) / s2) < 1e-14
    assert abs(gamma - s2) < 1e-15
    assert dm.ff_weights_to_city(0.8, 0.7, 0.7)[1] == 0.0
    with pytest.raises(NegativeWeight):
        dm.ff_weights_to_city(0.8, 0.9, 0.7)


def test_reconstructed_weights_are_free_fermionic():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.uniform(0.2, 1.5, 2)
        c = rng.uniform(b, b + 1.5)
        alpha, beta, gamma = dm.ff_weights_to_city(a, b, c)
        w = city_vertex_weights(alpha, alpha, alpha, alpha, beta, beta, gamma)
        delta = (w[0] * w[1] + w[2] * w[3] - w[4] * w[5]) \
            / (2 * math.sqrt(w[0] * w[1] * w[2] * w[3]))
        assert abs(delta) < 1e-12


def test_city_vertex_weights_examples():
    assert city_vertex_weights(1, 1, 1, 1, 1, 1, 1) == (3, 1, 1, 1, 2, 2)
    rng = np.random.default_rng(10)
    for _ in range(8):
        v = rng.uniform(0.2, 2.5, 7)
        w = city_vertex_weights(*v)
        assert abs(w[0] * w[1] + w[2] * w[3] - w[4] * w[5]) < 1e-12
    w = city_vertex_weights(1.0, 1.1, 0.9, 1.2, 0.0, 0.0, 1.3)
    assert w[0] == 0.0


# ---------------------------------------------------------------------------
# three-valent heights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker,nw", [(lambda ws: dm.theta_graph(*ws), 3),
                                      (dm.cube_graph, 12), (dm.prism_graph, 18)])
def test_leftright_lemma_exhaustive(maker, nw):
    rng = np.random.default_rng(12)
    g = maker(list(rng.uniform(0.3, 2.5, nw)))
    sides = g.edge_sides()
    for d in dm.enumerate_matchings(g):
        theta = dm.trivalent_height(g, d)
        for e in g.edges:
            lw, rw = sides[e.eid]
            step = theta[lw] - theta[rw] + 0.5
            assert abs(step - (1.5 if e.eid in d else 0.0)) < 1e-12


@pytest.mark.parametrize("maker,nw", [(lambda ws: dm.theta_graph(*ws), 3),
                                      (dm.cube_graph, 12), (dm.prism_graph, 18)])
def test_weight_from_height_equals_config_weight(maker, nw):
    rng = np.random.default_rng(13)
    g = maker(list(rng.uniform(0.3, 2.5, nw)))
    for d in dm.enumerate_matchings(g):
        theta = dm.trivalent_height(g, d)
        wa = dm.weight_from_height(theta, g)
        wb = dm.config_weight(g, d)
        assert abs(wa - wb) <= 1e-10 * wb


def test_all_unit_weights_give_unit_weight():
    g = dm.cube_graph()
    for d in dm.enumerate_matchings(g):
        theta = dm.trivalent_height(g, d)
        assert abs(dm.weight_from_height(theta, g) - 1.0) < 1e-12


def test_face_walks_reject_non_matchings():
    # around a vertex the steps of a matching cancel; an empty set leaves -1
    # per matched vertex (relative) and -3/2 per vertex (trivalent)
    g = dm.cube_graph()
    d0 = dm.enumerate_matchings(g)[0]
    with pytest.raises(Inconsistent, match="composition cycles do not close up"):
        relative_height(g, frozenset(), d0)
    with pytest.raises(Inconsistent, match="height steps do not close up"):
        dm.trivalent_height(g, frozenset())


def test_single_edge_height_step():
    g = single_edge_graph()
    theta = dm.trivalent_height(g, frozenset({0}), ref_face=1, ref_value=0.0)
    assert theta[0] - theta[1] == 1.0


def test_trivalent_gauge_freedom():
    g = dm.cube_graph()
    d = dm.enumerate_matchings(g)[2]
    t0 = dm.trivalent_height(g, d, ref_face=0)
    t1 = dm.trivalent_height(g, d, ref_face=3, ref_value=2.0)
    diffs = {round(t0[f] - t1[f], 12) for f in t0}
    assert len(diffs) == 1


def test_not_trivalent_raises():
    g = composition_figure_graph()   # has vertices of valence 2 and 4
    d = dm.enumerate_matchings(g)[0]
    with pytest.raises(NotTrivalent):
        dm.trivalent_height(g, d)


def test_hexagonal_five_vertex_weights():
    # cell weights exp(l+m), exp((l-m)/2), exp((m-l)/2) against the
    # strong-field limit entries: the path configurations pick up one
    # factor sin(u) each, the through configuration none
    from icelab import sixvertex as sv
    l, m, u = 0.3, -0.2, 0.9
    alpha = math.exp(l + m)
    beta = math.exp((l - m) / 2)
    gamma = math.exp((m - l) / 2)
    lim = sv.five_vertex_limit_r(2, u=u, l=l, m=m)
    su = math.sin(u)
    assert abs(lim[0, 0] / alpha - 1.0) < 1e-14              # through
    assert abs(lim[1, 1] / beta ** 2 - su) < 1e-14           # horizontal pair
    assert abs(lim[2, 2] / gamma ** 2 - su) < 1e-14          # vertical pair
    assert abs(lim[1, 2] / (beta * gamma) - su) < 1e-14      # turns
    assert abs(lim[2, 1] / (beta * gamma) - su) < 1e-14


# ---------------------------------------------------------------------------
# height dictionaries
# ---------------------------------------------------------------------------

def height_relation_6v_dimer(theta_6v, x, y):
    """Dimer height from the six-vertex height: add (x + y) / 2."""
    return np.asarray(theta_6v) + (np.asarray(x) + np.asarray(y)) / 2.0


def test_height_relation_6v_dimer():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
    theta = height_relation_6v_dimer(np.zeros_like(xs), xs, ys)
    assert np.array_equal(theta, (xs + ys) / 2.0)
    rng = np.random.default_rng(14)
    t6 = rng.standard_normal(xs.shape)
    td = height_relation_6v_dimer(t6, xs, ys)
    assert np.max(np.abs((td - (xs + ys) / 2.0) - t6)) < 1e-15


def test_w2_row_of_the_city_dictionary():
    # six-vertex faces of the all-occupied vertex vs the city-gadget face
    # values of the dictionary example, equal modulo a global constant
    six = {(0.5, -0.5): 0.5, (0.5, 0.5): 1.0, (-0.5, -0.5): 0.0, (-0.5, 0.5): 0.5}
    city = {(0.5, -0.5): 0.0, (0.5, 0.5): 1.0, (-0.5, -0.5): -1.0, (-0.5, 0.5): 0.0}
    diffs = {round(city[k] - float(height_relation_6v_dimer(six[k], *k)), 12)
             for k in six}
    assert len(diffs) == 1


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_graph_text_round_trip():
    text = """
    # a theta-like pair with coordinates
    b0 black @0,0 w0:1.5 w1:0.5
    w0 white @1,0
    w1 white @0,1 b1:2.0
    b1 black @1,1 w0:1.0
    """
    g = dm.parse_graph_text(text)
    assert len(g.edges) == 4
    weights = sorted(e.weight for e in g.edges)
    assert weights == [0.5, 1.0, 1.5, 2.0]
    assert len(dm.enumerate_matchings(g)) == 2


def test_parse_graph_text_errors():
    with pytest.raises(Inconsistent):
        dm.parse_graph_text("b0 black w0:1\nw0 purple")
    with pytest.raises(Inconsistent):
        dm.parse_graph_text("b0 black b1:1\nb1 black")
    with pytest.raises(Inconsistent):
        dm.parse_graph_text("b0 black w0:1\nw0 white b0:2")
