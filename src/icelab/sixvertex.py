"""Exact finite-size six-vertex machinery.

Weights, Baxter parametrizations, R-matrices, Yang-Baxter residuals,
column-to-column transfer operators, cylinder/torus partition functions,
brute-force state enumeration, and the height-function bijection.

Conventions, fixed once and pinned against enumeration in the tests:

* Edge states: e1 = empty, e2 = occupied.  The 4x4 vertex matrix acts on
  (horizontal edge) x (vertical edge) in the tensor basis
  e1 x e1, e1 x e2, e2 x e1, e2 x e2.  As a map, the column index holds the
  incoming pair (west, north) and the row index the outgoing pair
  (east, south), so the six admissible local shapes are: all empty, all
  occupied, horizontal through, vertical through, and the two turns
  {south, west} and {north, east}.
* Field weights inside the matrix: an empty half-edge carries
  exp(+field/2), an occupied one exp(-field/2); H sits on the first slot,
  V on the second.
* Transfer operator: quantum space = the N horizontal edges of a slice
  (row r is bit r of the basis index, row 0 least significant), auxiliary
  space = the vertical edges threading one column, traced out for
  periodicity around the cylinder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, Inconsistent, OutOfRange, TooLarge)

REGIMES = ("A1", "A2", "B1", "B2", "C")

DENSE_CAP = 12          # dense transfer operators up to 2^12 rows
ENUM_EDGE_CAP = 36      # brute-force enumeration cap


# ---------------------------------------------------------------------------
# weights and parametrizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexWeights:
    """Six-vertex weight triple (a, b, c) with magnetic fields (H, V)."""

    a: float
    b: float
    c: float
    H: float = 0.0
    V: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"weight {name}={val} must be positive and finite")
        for name in ("H", "V"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"field {name} must be finite")


def anisotropy_delta(w: VertexWeights) -> float:
    """Delta = (a^2 + b^2 - c^2) / (2ab); independent of the fields."""
    return (w.a ** 2 + w.b ** 2 - w.c ** 2) / (2.0 * w.a * w.b)


@dataclass(frozen=True)
class BaxterParam:
    """Spectral point (regime, u, gamma, r) of the Baxter parametrization.

    Regimes: A1 (a largest, Delta = cosh g), A2 (b largest, Delta = cosh g),
    B1 and B2 (trigonometric, with Delta = +cos g and -cos g respectively,
    as direct substitution into the anisotropy gives), C (Delta = -cosh g).
    """

    regime: str
    u: float
    gamma: float
    r: float = 1.0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise OutOfRange(f"unknown regime {self.regime!r}")
        if self.r <= 0:
            raise OutOfRange("scale r must be positive")
        u, g = self.u, self.gamma
        ok = {
            "A1": g > 0 and u > 0,
            "A2": 0 < g < u,
            "B1": 0 < g < np.pi / 2 and g < u < np.pi / 2,
            "B2": 0 < g < np.pi / 2 and 0 < u < g,
            "C": 0 < u < g,
        }[self.regime]
        if not ok:
            raise OutOfRange(f"(u, gamma)=({u}, {g}) outside the {self.regime} window")


def baxter_delta(regime: str, gamma: float) -> float:
    """Delta of a Baxter family (sign as computed from the weights)."""
    return {
        "A1": math.cosh(gamma),
        "A2": math.cosh(gamma),
        "B1": math.cos(gamma),
        "B2": -math.cos(gamma),
        "C": -math.cosh(gamma),
    }[regime]


def weights_from_baxter(p: BaxterParam, H: float = 0.0, V: float = 0.0) -> VertexWeights:
    """Weight triple of a Baxter spectral point, with optional fields."""
    a, b, c = _baxter_abc(p.regime, p.u, p.gamma)
    return VertexWeights(p.r * a, p.r * b, p.r * c, H, V)


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter residual
# ---------------------------------------------------------------------------

def field_matrix(h: float) -> np.ndarray:
    """D^h = diag(exp(h/2), exp(-h/2))."""
    return np.diag([math.exp(h / 2.0), math.exp(-h / 2.0)])


def r_matrix(w: VertexWeights) -> np.ndarray:
    """The 4x4 vertex matrix in the basis e1e1, e1e2, e2e1, e2e2."""
    a, b, c, H, V = w.a, w.b, w.c, w.H, w.V
    return np.array([
        [a * math.exp(H + V), 0.0, 0.0, 0.0],
        [0.0, b * math.exp(H - V), c, 0.0],
        [0.0, c, b * math.exp(V - H), 0.0],
        [0.0, 0.0, 0.0, a * math.exp(-H - V)],
    ])


def _r_from_abc(a: float, b: float, c: float) -> np.ndarray:
    return np.array([
        [a, 0.0, 0.0, 0.0],
        [0.0, b, c, 0.0],
        [0.0, c, b, 0.0],
        [0.0, 0.0, 0.0, a],
    ])


def _baxter_abc(regime: str, u: float, gamma: float) -> tuple[float, float, float]:
    # raw formulas, allowed outside the positivity windows (needed for the
    # middle factor of the Yang-Baxter triple)
    if regime == "A1":
        return math.sinh(u + gamma), math.sinh(u), math.sinh(gamma)
    if regime == "A2":
        return math.sinh(u - gamma), math.sinh(u), math.sinh(gamma)
    if regime == "B1":
        return math.sin(u - gamma), math.sin(u), math.sin(gamma)
    if regime == "B2":
        return math.sin(gamma - u), math.sin(u), math.sin(gamma)
    if regime == "C":
        return math.sinh(gamma - u), math.sinh(u), math.sinh(gamma)
    raise OutOfRange(f"unknown regime {regime!r}")


def baxter_r(regime: str, u: float, gamma: float) -> np.ndarray:
    """Zero-field R-matrix of a Baxter family at spectral parameter u."""
    return _r_from_abc(*_baxter_abc(regime, u, gamma))


def _middle_r(regime: str, u_plus_v: float, gamma: float) -> np.ndarray:
    """The middle factor of the Yang-Baxter triple.

    For the families with a = f(gamma + u) (A1, B2, C) the plain matrix at
    u + v works.  The a = f(u - gamma) branches (A2, B1) close under the
    same relation only after flipping the sign of the c entries of the
    middle factor, which is the analytic continuation of the family
    through its parametrization (for B1 it equals -R(u + v - pi)).
    """
    a, b, c = _baxter_abc(regime, u_plus_v, gamma)
    if regime in ("A2", "B1"):
        c = -c
    return _r_from_abc(a, b, c)


def _embed_three(r4: np.ndarray, pos: tuple[int, int]) -> np.ndarray:
    """Embed a two-site operator into C2 x C2 x C2 at the given slots."""
    t = r4.reshape(2, 2, 2, 2)
    out = np.zeros((2, 2, 2, 2, 2, 2))
    idx_out = [None, None, None]
    i, j = pos
    k = ({0, 1, 2} - {i, j}).pop()
    for oi in range(2):
        for oj in range(2):
            for ii in range(2):
                for jj in range(2):
                    val = t[oi, oj, ii, jj]
                    if val == 0.0:
                        continue
                    for kk in range(2):
                        o = [0, 0, 0]
                        n = [0, 0, 0]
                        o[i], o[j], o[k] = oi, oj, kk
                        n[i], n[j], n[k] = ii, jj, kk
                        out[o[0], o[1], o[2], n[0], n[1], n[2]] += val
    return out.reshape(8, 8)


def yang_baxter_residual(u: float, v: float, regime: str, gamma: float,
                         gamma_mid: float | None = None) -> float:
    """Max-norm of R12(u) R13(u+v) R23(v) - R23(v) R13(u+v) R12(u).

    All three factors come from the same Baxter family at zero field; a
    different gamma_mid for the middle factor serves as a mismatch control.
    """
    g_mid = gamma if gamma_mid is None else gamma_mid
    r12 = _embed_three(baxter_r(regime, u, gamma), (0, 1))
    r23 = _embed_three(baxter_r(regime, v, gamma), (1, 2))
    r13 = _embed_three(_middle_r(regime, u + v, g_mid), (0, 2))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryWord:
    """Occupancies of the N horizontal edges of a slice (row 0 first)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return sum(b << r for r, b in enumerate(self.bits))

    def magnetization(self) -> int:
        """m = (#occupied) - (#empty)."""
        k = sum(self.bits)
        return 2 * k - len(self.bits)


def _site_tensor(w: VertexWeights) -> np.ndarray:
    # R[(q_out, a_out), (q_in, a_in)] -> [q_out, a_south, q_in, a_north]
    return r_matrix(w).reshape(2, 2, 2, 2)


@dataclass
class TransferOperator:
    """Column-to-column transfer operator on the 2^N slice space."""

    n_rows: int
    weights: VertexWeights
    matrix: np.ndarray | None = None
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._tensor = _site_tensor(self.weights)

    @property
    def dim(self) -> int:
        return 1 << self.n_rows

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free application, O(N 2^N)."""
        n = self.n_rows
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {vec.shape} vs 2^{n}")
        if self.matrix is not None:
            return self.matrix @ vec
        # G[e0, e_cur, out-block, in-block]; rows consumed LSB first, so the
        # current input row is the fastest axis of the in-block.
        g = np.zeros((2, 2, 1, self.dim))
        g[0, 0, 0, :] = vec
        g[1, 1, 0, :] = vec
        t = self._tensor  # [q_out, a_south, q_in, a_north]
        for _ in range(n):
            d_out = g.shape[2]
            d_in = g.shape[3] // 2
            view = g.reshape(2, 2, d_out, d_in, 2)  # [e0, ec, o, rest, q_in]
            g = np.einsum("qsin,bsoxi->bnqox", t, view)
            g = g.reshape(2, 2, 2 * d_out, d_in)
        return g[0, 0, :, 0] + g[1, 1, :, 0]

    def sector_indices(self) -> list[np.ndarray]:
        """Basis indices grouped by occupation number 0..N."""
        n = self.n_rows
        groups: list[list[int]] = [[] for _ in range(n + 1)]
        for i in range(self.dim):
            groups[bin(i).count("1")].append(i)
        return [np.array(g, dtype=int) for g in groups]


def _fold_row(t: np.ndarray, cur: list, pairs) -> np.ndarray:
    """Sum over (e0, etop) in pairs of the blocks with one more row folded in.

    The new row is the most significant bit: block (i, j) of the result is
    sum_er t[i, er, j, etop] * cur[e0][er].  The ice rule i + er = j + etop
    leaves one er per block, so each block is a single scaled copy, equal
    bit for bit to the sum of Kronecker products t[:, er, :, etop] (x)
    cur[e0][er].
    """
    m = cur[0][0].shape[0]
    out = np.zeros((2 * m, 2 * m))
    for n, (e0, etop) in enumerate(pairs):
        for i in range(2):
            for j in range(2):
                er = j + etop - i
                if er not in (0, 1):
                    continue
                block = out[i * m:(i + 1) * m, j * m:(j + 1) * m]
                if n == 0:
                    np.multiply(cur[e0][er], t[i, er, j, etop], out=block)
                else:
                    block += t[i, er, j, etop] * cur[e0][er]
    return out


def _dense_transfer(n: int, w: VertexWeights) -> np.ndarray:
    t = _site_tensor(w)  # [q_out, a_south, q_in, a_north]
    # cur[e_bottom][e_top]: rows 0..r folded in, row r most significant bit
    cur = [[t[:, e0, :, e1] for e1 in range(2)] for e0 in range(2)]
    if n == 1:
        return cur[0][0] + cur[1][1]
    for _ in range(2, n):
        cur = [[_fold_row(t, cur, [(e0, etop)]) for etop in range(2)] for e0 in range(2)]
    # the last row: only the traced blocks e_bottom = e_top
    return _fold_row(t, cur, [(0, 0), (1, 1)])


def transfer(n: int, w: VertexWeights, dense: bool | None = None) -> TransferOperator:
    """Transfer operator for N rows; dense up to N = 12, matrix-free above."""
    if n < 1:
        raise OutOfRange("need at least one row")
    if dense is None:
        dense = n <= DENSE_CAP
    if dense and n > DENSE_CAP:
        raise TooLarge(f"dense transfer capped at N = {DENSE_CAP}, got {n}")
    mat = _dense_transfer(n, w) if dense else None
    return TransferOperator(n, w, mat)


def commutator_residual(t1: TransferOperator, t2: TransferOperator) -> float:
    """Relative max-norm of [t1, t2], evaluated sector by sector."""
    if t1.n_rows != t2.n_rows:
        raise DimensionMismatch("transfer operators of different size")
    if t1.matrix is None or t2.matrix is None:
        raise TooLarge("commutator test needs dense operators")
    num = 0.0
    den = 0.0
    for idx in t1.sector_indices():
        a = t1.matrix[np.ix_(idx, idx)]
        b = t2.matrix[np.ix_(idx, idx)]
        ab = a @ b
        num = max(num, float(np.max(np.abs(ab - b @ a))))
        den = max(den, float(np.max(np.abs(ab))))
    return num / max(den, 1e-300)


def cylinder_partition(m: int, n: int, w: VertexWeights,
                       eta1: BoundaryWord, eta2: BoundaryWord) -> float:
    """Matrix element (psi_eta1, t^M psi_eta2); exact 0 across sectors."""
    if m < 1:
        raise OutOfRange("need at least one column")
    if eta1.n != n or eta2.n != n:
        raise DimensionMismatch("boundary words must have length N")
    if eta1.magnetization() != eta2.magnetization():
        return 0.0
    op = transfer(n, w)
    vec = np.zeros(op.dim)
    vec[eta2.index] = 1.0
    for _ in range(m):
        vec = op.apply(vec)
    return float(vec[eta1.index])


def torus_partition(m: int, n: int, w: VertexWeights) -> float:
    """Trace of t^M."""
    if m < 1 or n < 1:
        raise OutOfRange("need at least one row and one column")
    if n > DENSE_CAP:
        raise TooLarge(f"torus trace capped at N = {DENSE_CAP}")
    t = transfer(n, w).matrix
    return float(np.trace(np.linalg.matrix_power(t, m)))


def cylinder_field_exponent(m: int, eta: BoundaryWord) -> float:
    """Empirically pinned factorization: Z(H) = Z(0) exp(H * this).

    Equals M * (#empty - #occupied); the conserved horizontal flux makes
    the H-dependence a pure boundary exponential.
    """
    return -float(m * eta.magnetization())


# ---------------------------------------------------------------------------
# lattices and brute-force enumeration
# ---------------------------------------------------------------------------

# shape -> (bare letter, H exponent sign, V exponent sign); occupancy order
# is (west, south, north, east)
_SHAPES = {
    (0, 0, 0, 0): ("a", +1, +1),
    (1, 1, 1, 1): ("a", -1, -1),
    (1, 0, 0, 1): ("b", -1, +1),   # horizontal through
    (0, 1, 1, 0): ("b", +1, -1),   # vertical through
    (1, 1, 0, 0): ("c", 0, 0),     # turn {south, west}
    (0, 0, 1, 1): ("c", 0, 0),     # turn {north, east}
}


def shape_weight(shape: tuple[int, int, int, int], w: VertexWeights) -> float:
    """Weight of one local configuration; 0 if inadmissible."""
    entry = _SHAPES.get(shape)
    if entry is None:
        return 0.0
    letter, sh, sv = entry
    bare = {"a": w.a, "b": w.b, "c": w.c}[letter]
    return bare * math.exp(sh * w.H + sv * w.V)


@dataclass(frozen=True)
class LatticeSpec:
    """Square-lattice domain: plane block, cylinder (periodic y), or torus."""

    kind: str
    m: int   # columns (x direction)
    n: int   # rows (y direction)

    def __post_init__(self):
        if self.kind not in ("plane", "cylinder", "torus"):
            raise OutOfRange(f"unknown lattice kind {self.kind!r}")
        if self.kind == "plane":
            if self.m < 0 or self.n < 0:
                raise OutOfRange("vertex counts must be nonnegative")
        elif self.m < 1 or self.n < 1:
            raise OutOfRange("need at least one column and one row")

    def vertices(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.n) for x in range(self.m)]

    def h_edge(self, x: int, y: int):
        """Horizontal edge west of vertex (x, y); x runs 0..M (stubs at ends)."""
        if self.kind == "torus":
            return ("h", x % self.m, y % self.n)
        return ("h", x, y % self.n if self.kind == "cylinder" else y)

    def v_edge(self, x: int, y: int):
        """Vertical edge south of vertex (x, y); y runs 0..N for the plane."""
        if self.kind == "plane":
            return ("v", x, y)
        return ("v", x, y % self.n)

    def vertex_edges(self, x: int, y: int):
        """Edges (west, south, north, east) around an internal vertex."""
        return (self.h_edge(x, y), self.v_edge(x, y),
                self.v_edge(x, y + 1), self.h_edge(x + 1, y))

    def edges(self) -> list:
        out = set()
        for x, y in self.vertices():
            out.update(self.vertex_edges(x, y))
        return sorted(out)


def enumerate_states(spec: LatticeSpec, boundary: dict | None = None) -> list[frozenset]:
    """All ice states as frozensets of occupied edges.

    ``boundary`` optionally pins stub edges to 0/1.  Capped at 36 edges.
    """
    edges = spec.edges()
    if len(edges) > ENUM_EDGE_CAP:
        raise TooLarge(f"{len(edges)} edges exceeds the enumeration cap {ENUM_EDGE_CAP}")
    fixed = dict(boundary or {})
    verts = spec.vertices()
    states: list[frozenset] = []
    assign: dict = dict(fixed)

    def rec(i: int):
        if i == len(verts):
            states.append(frozenset(e for e, occ in assign.items() if occ))
            return
        x, y = verts[i]
        vedges = spec.vertex_edges(x, y)
        for shape in _SHAPES:
            # assign sequentially so repeated edges (wrapped 1-row/1-column
            # domains) are forced to agree with themselves
            added = []
            ok = True
            for e, s in zip(vedges, shape):
                if e in assign:
                    if assign[e] != s:
                        ok = False
                        break
                else:
                    assign[e] = s
                    added.append(e)
            if ok:
                rec(i + 1)
            for e in added:
                del assign[e]

    rec(0)
    return states


def state_weight(spec: LatticeSpec, state: frozenset, w: VertexWeights) -> float:
    total = 1.0
    for x, y in spec.vertices():
        shape = tuple(int(e in state) for e in spec.vertex_edges(x, y))
        wt = shape_weight(shape, w)
        if wt == 0.0:
            return 0.0
        total *= wt
    return total


def enumerate_cylinder_partition(m: int, n: int, w: VertexWeights,
                                 eta1: BoundaryWord, eta2: BoundaryWord) -> float:
    """Oracle for cylinder_partition by exhaustive enumeration."""
    spec = LatticeSpec("cylinder", m, n)
    boundary = {}
    for y in range(n):
        boundary[spec.h_edge(0, y)] = eta2.bits[y]
        boundary[spec.h_edge(m, y)] = eta1.bits[y]
    return sum(state_weight(spec, s, w) for s in enumerate_states(spec, boundary))


def enumerate_torus_partition(m: int, n: int, w: VertexWeights) -> float:
    """Oracle for torus_partition by exhaustive enumeration."""
    spec = LatticeSpec("torus", m, n)
    return sum(state_weight(spec, s, w) for s in enumerate_states(spec))


# ---------------------------------------------------------------------------
# height functions
# ---------------------------------------------------------------------------

@dataclass
class LatticeHeight:
    """Half-integer heights on the faces of a lattice domain.

    Faces are indexed (i, j) with i = 0..M, j = 0..N; face (i, j) sits
    southwest of vertex (i, j).  On the cylinder the branch cut runs along
    the y = 0 grid line, so face rows j = 0 and j = N are the two sides of
    the cut and their difference is the monodromy.
    """

    spec: LatticeSpec
    values: dict

    def monodromy(self, i: int = 0) -> float:
        if self.spec.kind != "cylinder":
            return 0.0
        return self.values[(i, self.spec.n)] - self.values[(i, 0)]


def state_to_height(spec: LatticeSpec, state: frozenset,
                    ref_face: tuple[int, int] = (0, 0),
                    ref_value: float = 0.0) -> LatticeHeight:
    """Integrate the ice-rule increments into a face height function.

    Crossing a vertical edge eastward raises the height by +1/2 if the
    edge is occupied, -1/2 if empty; crossing a horizontal edge northward
    likewise.  Plane and cut-cylinder domains only.
    """
    if spec.kind == "torus":
        raise Inconsistent("heights on the torus need two branch cuts; use the cylinder")
    vals: dict = {ref_face: ref_value}

    def v_step(i, j):
        # vertical edge between faces (i, j) and (i+1, j); on the cylinder
        # v_edge wraps the j = N band back onto the cut edges
        return 0.5 if spec.v_edge(i, j) in state else -0.5

    def h_step(i, j):
        # horizontal edge between faces (i, j) and (i, j+1)
        return 0.5 if spec.h_edge(i, j) in state else -0.5

    i0, j0 = ref_face
    for j in range(j0 + 1, spec.n + 1):
        vals[(i0, j)] = vals[(i0, j - 1)] + h_step(i0, j - 1)
    for j in range(j0 - 1, -1, -1):
        vals[(i0, j)] = vals[(i0, j + 1)] - h_step(i0, j)
    for j in range(spec.n + 1):
        for i in range(i0 + 1, spec.m + 1):
            vals[(i, j)] = vals[(i - 1, j)] + v_step(i - 1, j)
        for i in range(i0 - 1, -1, -1):
            vals[(i, j)] = vals[(i + 1, j)] - v_step(i, j)
    return LatticeHeight(spec, vals)


def height_to_state(h: LatticeHeight) -> frozenset:
    """Invert state_to_height; raises Inconsistent on bad increments."""
    spec = h.spec
    occ = set()
    for i in range(spec.m + 1):
        for j in range(spec.n):
            d = h.values[(i, j + 1)] - h.values[(i, j)]
            if abs(abs(d) - 0.5) > 1e-9:
                raise Inconsistent(f"horizontal increment {d} at face ({i},{j})")
            if d > 0:
                occ.add(spec.h_edge(i, j))
    for j in range(spec.n + 1):
        if spec.kind == "cylinder" and j == spec.n:
            continue
        for i in range(spec.m):
            d = h.values[(i + 1, j)] - h.values[(i, j)]
            if abs(abs(d) - 0.5) > 1e-9:
                raise Inconsistent(f"vertical increment {d} at face ({i},{j})")
            if d > 0:
                occ.add(spec.v_edge(i, j))
    state = frozenset(occ)
    for x, y in spec.vertices():
        shape = tuple(int(e in state) for e in spec.vertex_edges(x, y))
        if shape not in _SHAPES:
            raise Inconsistent(f"faces around vertex ({x},{y}) violate the ice rule")
    return state


# ---------------------------------------------------------------------------
# five-vertex limits
# ---------------------------------------------------------------------------

def five_vertex_limit_r(case: int, *, xi: float | None = None,
                        u: float | None = None, l: float = 0.0,
                        m: float = 0.0) -> np.ndarray:
    """Limiting 4x4 matrices of the three strong-field degenerations.

    Each matrix is the entrywise limit of the substituted finite-gamma
    vertex matrix after overall-factor normalization; the convergence gap
    helper measures the approach.
    """
    if case == 1:
        if xi is None or xi <= 0:
            raise OutOfRange("case 1 needs xi > 0")
        return np.array([
            [2.0 * math.sinh(xi) * math.exp(l + m), 0, 0, 0],
            [0, math.exp(xi + l - m), 1.0, 0],
            [0, 1.0, math.exp(xi - l + m), 0],
            [0, 0, 0, 0.0],
        ])
    if case == 2:
        if u is None or not 0 < u < np.pi / 2:
            raise OutOfRange("case 2 needs 0 < u < pi/2")
        su = math.sin(u)
        return np.array([
            [math.exp(l + m), 0, 0, 0],
            [0, su * math.exp(l - m), su, 0],
            [0, su, su * math.exp(m - l), 0],
            [0, 0, 0, 0.0],
        ])
    if case == 3:
        if xi is None or xi <= 0:
            raise OutOfRange("case 3 needs xi > 0")
        return np.array([
            [2.0 * math.sinh(xi) * math.exp(l + m), 0, 0, 0],
            [0, math.exp(-xi + l - m), 1.0, 0],
            [0, 1.0, math.exp(-xi - l + m), 0],
            [0, 0, 0, 0.0],
        ])
    raise OutOfRange(f"case must be 1, 2 or 3, got {case}")


def five_vertex_finite_r(case: int, gamma: float, *, xi: float | None = None,
                         u: float | None = None, l: float = 0.0,
                         m: float = 0.0) -> np.ndarray:
    """Finite-gamma six-vertex R-matrix entering the strong-field limit."""
    if case == 1:
        if xi is None or xi <= 0 or gamma <= 0:
            raise OutOfRange("case 1 needs xi > 0 and gamma > 0")
        w = VertexWeights(math.sinh(xi), math.sinh(gamma + xi), math.sinh(gamma),
                          H=gamma / 2.0 + l, V=gamma / 2.0 + m)
    elif case == 2:
        if u is None or not 0 < u < gamma or gamma >= np.pi:
            raise OutOfRange("case 2 needs 0 < u < gamma")
        d = gamma - u
        w = VertexWeights(math.sin(d), math.sin(u), math.sin(gamma),
                          H=-0.5 * math.log(d) + l, V=-0.5 * math.log(d) + m)
    elif case == 3:
        if xi is None or xi <= 0 or gamma <= xi:
            raise OutOfRange("case 3 needs 0 < xi < gamma")
        w = VertexWeights(math.sinh(xi), math.sinh(gamma - xi), math.sinh(gamma),
                          H=gamma / 2.0 + l, V=gamma / 2.0 + m)
    else:
        raise OutOfRange(f"case must be 1, 2 or 3, got {case}")
    return r_matrix(w)


def convergence_gap(case: int, gamma: float, *, xi: float | None = None,
                    u: float | None = None, l: float = 0.0, m: float = 0.0) -> float:
    """Entrywise distance to the limit after max-entry normalization."""
    fin = five_vertex_finite_r(case, gamma, xi=xi, u=u, l=l, m=m)
    lim = five_vertex_limit_r(case, xi=xi, u=u, l=l, m=m)
    fin = fin / np.max(np.abs(fin))
    lim = lim / np.max(np.abs(lim))
    return float(np.max(np.abs(fin - lim)))
