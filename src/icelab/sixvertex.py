"""Exact finite-size six-vertex machinery.

Weights, Baxter parametrizations, R-matrices, Yang-Baxter residuals,
column-to-column transfer operators, cylinder/torus partition functions,
brute-force state enumeration, and the height function of a state.

Conventions, fixed once and pinned against enumeration in the tests (the
matrix layout in `_vertex_matrix`, the Baxter families in `_FAMILIES`):

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

DENSE_CAP = 12          # explicit sector blocks up to N = 12: 21.6 MB, 1.5 MB at N = 10
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


# regime -> ((a, b, c) at (u, gamma), valid outside the window too, as the
# Yang-Baxter middle factor needs; the (u, gamma) window in which all three
# weights are positive; whether the middle factor negates c)
_FAMILIES = {
    "A1": (lambda u, g: (math.sinh(u + g), math.sinh(u), math.sinh(g)),
           lambda u, g: g > 0 and u > 0, False),
    "A2": (lambda u, g: (math.sinh(u - g), math.sinh(u), math.sinh(g)),
           lambda u, g: 0 < g < u, True),
    "B1": (lambda u, g: (math.sin(u - g), math.sin(u), math.sin(g)),
           lambda u, g: 0 < g < np.pi / 2 and g < u < np.pi / 2, True),
    "B2": (lambda u, g: (math.sin(g - u), math.sin(u), math.sin(g)),
           lambda u, g: 0 < g < np.pi / 2 and 0 < u < g, False),
    "C": (lambda u, g: (math.sinh(g - u), math.sinh(u), math.sinh(g)),
          lambda u, g: 0 < u < g, False),
}
REGIMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class BaxterParam:
    """Spectral point (regime, u, gamma, r) of the Baxter parametrization.

    Regimes: A1 (a largest, Delta = cosh g), A2 (b largest, Delta = cosh g),
    B1 and B2 (trigonometric, with Delta = +cos g and -cos g respectively,
    as direct substitution into the anisotropy gives), C (Delta = -cosh g).
    Inside each regime's window all three weights are positive.
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
        if not _FAMILIES[self.regime][1](u, g):
            raise OutOfRange(f"(u, gamma)=({u}, {g}) outside the {self.regime} window")


def weights_from_baxter(p: BaxterParam, H: float = 0.0, V: float = 0.0) -> VertexWeights:
    """Weight triple of a Baxter spectral point, with optional fields."""
    a, b, c = _baxter_abc(p.regime, p.u, p.gamma)
    return VertexWeights(p.r * a, p.r * b, p.r * c, H, V)


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter residual
# ---------------------------------------------------------------------------

def _vertex_matrix(a1, b1, b2, a2, c) -> np.ndarray:
    """a1 all empty, a2 all occupied, b1 horizontal and b2 vertical through,
    c both turns, in the basis e1e1, e1e2, e2e1, e2e2."""
    return np.array([
        [a1, 0.0, 0.0, 0.0],
        [0.0, b1, c, 0.0],
        [0.0, c, b2, 0.0],
        [0.0, 0.0, 0.0, a2],
    ])


def r_matrix(w: VertexWeights) -> np.ndarray:
    """The 4x4 vertex matrix in the basis e1e1, e1e2, e2e1, e2e2."""
    a, b, c, H, V = w.a, w.b, w.c, w.H, w.V
    return _vertex_matrix(a * math.exp(H + V), b * math.exp(H - V), b * math.exp(V - H),
                          a * math.exp(-H - V), c)


def _r_from_abc(a: float, b: float, c: float) -> np.ndarray:
    return _vertex_matrix(a, b, b, a, c)


def _baxter_abc(regime: str, u: float, gamma: float) -> tuple[float, float, float]:
    if regime not in _FAMILIES:
        raise OutOfRange(f"unknown regime {regime!r}")
    return _FAMILIES[regime][0](u, gamma)


def baxter_r(regime: str, u: float, gamma: float) -> np.ndarray:
    """Zero-field R-matrix of a Baxter family at spectral parameter u."""
    return _r_from_abc(*_baxter_abc(regime, u, gamma))


def _middle_r(regime: str, u_plus_v: float, gamma: float) -> np.ndarray:
    """The middle factor of the Yang-Baxter triple: the family's matrix at
    u + v, with c negated for the a = f(u - gamma) families (A2, B1), which
    is their analytic continuation through the parametrization (for B1 it
    equals -R(u + v - pi)); the a = f(gamma + u) families need no flip."""
    a, b, c = _baxter_abc(regime, u_plus_v, gamma)
    return _r_from_abc(a, b, -c if _FAMILIES[regime][2] else c)


def _embed_three(r4: np.ndarray, pos: tuple[int, int]) -> np.ndarray:
    """Embed a two-site operator into C2 x C2 x C2 at the given slots."""
    i, j = pos
    k = ({0, 1, 2} - {i, j}).pop()
    # axes (out i, out j, out k, in i, in j, in k), identity on slot k
    full = np.einsum("abcd,ef->abecdf", r4.reshape(2, 2, 2, 2), np.eye(2))
    slots = np.argsort((i, j, k))
    return full.transpose(*slots, *(slots + 3)).reshape(8, 8)


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
    """Column-to-column transfer operator on the 2^N slice space.

    The ice rule conserves the number k of occupied horizontal edges, so
    T is block diagonal, T = (+)_k T_k.  The explicit form keeps only these
    blocks, blocks[k] with rows and columns in sector_indices()[k] order
    (1.5 MB at N = 10, 21.6 MB at N = 12); without them apply is matrix-free.
    """

    n_rows: int
    weights: VertexWeights
    blocks: list[np.ndarray] | None = None
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._tensor = _site_tensor(self.weights)

    @property
    def dim(self) -> int:
        return 1 << self.n_rows

    @property
    def matrix(self) -> np.ndarray | None:
        """The dense 2^N x 2^N matrix, assembled from the blocks on demand."""
        if self.blocks is None:
            return None
        out = np.zeros((self.dim, self.dim))
        for idx, blk in zip(self.sector_indices(), self.blocks):
            out[np.ix_(idx, idx)] = blk
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Block by block if explicit, else matrix-free in O(N 2^N)."""
        n = self.n_rows
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {vec.shape} vs 2^{n}")
        if self.blocks is not None:
            out = np.empty(self.dim)
            for idx, blk in zip(self.sector_indices(), self.blocks):
                out[idx] = blk @ vec[idx]
            return out
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
            # sum a_south = ec and q_in: [q_out, a_north, e0, o, rest]
            g = np.tensordot(t, view, axes=([1, 2], [1, 4])).transpose(2, 1, 0, 3, 4)
            g = g.reshape(2, 2, 2 * d_out, d_in)
        return g[0, 0, :, 0] + g[1, 1, :, 0]

    def sector_indices(self) -> list[np.ndarray]:
        """Basis indices grouped by occupation number 0..N."""
        counts = np.bitwise_count(np.arange(self.dim))
        order = np.argsort(counts, kind="stable")
        sizes = np.bincount(counts, minlength=self.n_rows + 1)
        return np.split(order, np.cumsum(sizes)[:-1])


def _fold_sectors(t: list, cur: list, r: int, pairs) -> list[np.ndarray]:
    """Sector blocks with row r folded in, summed over (e0, etop) in pairs.

    cur[e0][etop][k] maps sector k of rows 0..r-1 to sector k + etop - e0.
    The new row is the most significant bit, so sector k of r + 1 rows is
    sector k of r rows, then sector k - 1 shifted by 2^r.  Quadrant (i, j)
    (new-row bit out, in) is t[i][er][j][etop] cur[e0][er][k - j], with
    er = j + etop - i by the ice rule: the Kronecker-product sum's copies.
    """
    size = [math.comb(r, m) for m in range(r + 3)] + [0]   # m = -2, -1 read 0
    d = pairs[0][1] - pairs[0][0]
    terms = [(p, i, j, cur[e0][er], t[i][er][j][etop]) for p, (e0, etop) in enumerate(pairs)
             for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)) if 0 <= (er := j + etop - i) <= 1]
    out = []
    for k in range(r + 2):
        r0, c0 = size[k + d], size[k]
        blk = np.zeros((r0 + size[k + d - 1], c0 + size[k - 1]))
        rows, cols = (slice(r0), slice(r0, None)), (slice(c0), slice(c0, None))
        for p, i, j, src, s in terms:
            if not (size[k + d - i] and size[k - j]):
                continue
            if p == 0:
                blk[rows[i], cols[j]] = s * src[k - j]
            else:
                blk[rows[i], cols[j]] += s * src[k - j]
        out.append(blk)
    return out


def transfer(n: int, w: VertexWeights) -> TransferOperator:
    """Transfer operator for N rows: explicit sector blocks up to DENSE_CAP,
    matrix-free above.  The blocks hold C(2N, N) of the 4^N dense entries:
    1.5 MB instead of 8.4 MB at N = 10, 21.6 MB instead of 134 MB at N = 12."""
    if n < 1:
        raise OutOfRange("need at least one row")
    if n > DENSE_CAP:
        return TransferOperator(n, w)
    t = _site_tensor(w).tolist()  # [q_out][a_south][q_in][a_north]
    # zero rows: the auxiliary edge passes through unchanged
    cur = [[[np.ones((1, 1)) if e0 == etop else np.zeros((0, 1))] for etop in range(2)]
           for e0 in range(2)]
    for r in range(n - 1):
        cur = [[_fold_sectors(t, cur, r, [(e0, etop)]) for etop in range(2)] for e0 in range(2)]
    # the last row: only the traced blocks e_bottom = e_top
    return TransferOperator(n, w, _fold_sectors(t, cur, n - 1, [(0, 0), (1, 1)]))


def commutator_residual(t1: TransferOperator, t2: TransferOperator) -> float:
    """Relative max-norm of [t1, t2], evaluated sector by sector."""
    if t1.n_rows != t2.n_rows:
        raise DimensionMismatch("transfer operators of different size")
    if t1.blocks is None or t2.blocks is None:
        raise TooLarge("commutator test needs dense operators")
    num = den = 0.0
    for a, b in zip(t1.blocks, t2.blocks):
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
    if op.blocks is None:       # matrix-free, over the whole space
        idx, step = np.arange(op.dim), op.apply
    else:                       # inside eta2's sector only
        k = sum(eta2.bits)
        idx, step = op.sector_indices()[k], op.blocks[k].__matmul__
    vec = (idx == eta2.index).astype(float)
    for _ in range(m):
        vec = step(vec)
    return float(vec[np.searchsorted(idx, eta1.index)])


def torus_partition(m: int, n: int, w: VertexWeights) -> float:
    """Trace of t^M, summed over the sector blocks."""
    if m < 1 or n < 1:
        raise OutOfRange("need at least one row and one column")
    if n > DENSE_CAP:
        raise TooLarge(f"torus trace capped at N = {DENSE_CAP}")
    return float(sum(np.trace(np.linalg.matrix_power(b, m)) for b in transfer(n, w).blocks))


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
    if case in (1, 3):
        if xi is None or xi <= 0:
            raise OutOfRange(f"case {case} needs xi > 0")
        x = xi if case == 1 else -xi     # case 3 mirrors xi in the b entries
        return _vertex_matrix(2.0 * math.sinh(xi) * math.exp(l + m), math.exp(x + l - m),
                              math.exp(x - l + m), 0.0, 1.0)
    if case == 2:
        if u is None or not 0 < u < np.pi / 2:
            raise OutOfRange("case 2 needs 0 < u < pi/2")
        su = math.sin(u)
        return _vertex_matrix(math.exp(l + m), su * math.exp(l - m), su * math.exp(m - l),
                              0.0, su)
    raise OutOfRange(f"case must be 1, 2 or 3, got {case}")


def five_vertex_finite_r(case: int, gamma: float, *, xi: float | None = None,
                         u: float | None = None, l: float = 0.0,
                         m: float = 0.0) -> np.ndarray:
    """Finite-gamma six-vertex R-matrix entering the strong-field limit."""
    if case in (1, 3):
        if xi is None or xi <= 0 or gamma <= (0 if case == 1 else xi):
            raise OutOfRange("case 1 needs xi > 0 and gamma > 0" if case == 1
                             else "case 3 needs 0 < xi < gamma")
        x = xi if case == 1 else -xi     # case 3 mirrors xi in the b weight
        w = VertexWeights(math.sinh(xi), math.sinh(gamma + x), math.sinh(gamma),
                          H=gamma / 2.0 + l, V=gamma / 2.0 + m)
    elif case == 2:
        if u is None or not 0 < u < gamma or gamma >= np.pi:
            raise OutOfRange("case 2 needs 0 < u < gamma")
        d = gamma - u
        w = VertexWeights(math.sin(d), math.sin(u), math.sin(gamma),
                          H=-0.5 * math.log(d) + l, V=-0.5 * math.log(d) + m)
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
