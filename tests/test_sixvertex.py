import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icelab import sixvertex as sv
from icelab.errors import DimensionMismatch, Inconsistent, OutOfRange, TooLarge
from icelab.sixvertex import _SHAPES, LatticeHeight


def ff_weights(u, H=0.0, V=0.0):
    return sv.VertexWeights(math.cos(u), math.sin(u), 1.0, H, V)


# Delta of each Baxter family at gamma, as BaxterParam's docstring states it
_BAXTER_DELTA = {"A1": math.cosh, "A2": math.cosh, "B1": math.cos,
                 "B2": lambda g: -math.cos(g), "C": lambda g: -math.cosh(g)}


def baxter_delta(regime: str, gamma: float) -> float:
    """Delta of a Baxter family (sign as computed from the weights)."""
    return _BAXTER_DELTA[regime](gamma)


def field_matrix(h: float) -> np.ndarray:
    """D^h = diag(exp(h/2), exp(-h/2))."""
    return np.diag([math.exp(h / 2.0), math.exp(-h / 2.0)])


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
# weights and parametrizations
# ---------------------------------------------------------------------------

def test_anisotropy_examples():
    assert sv.anisotropy_delta(sv.VertexWeights(3, 4, 5)) == 0.0
    assert sv.anisotropy_delta(sv.VertexWeights(1, 1, 1)) == 0.5
    w = sv.weights_from_baxter(sv.BaxterParam("A1", 0.5, 0.3))
    assert abs(sv.anisotropy_delta(w) - math.cosh(0.3)) < 1e-14
    # fields do not enter
    wf = sv.VertexWeights(3, 4, 5, H=0.7, V=-0.2)
    assert sv.anisotropy_delta(wf) == 0.0


def test_weights_from_baxter_examples():
    w = sv.weights_from_baxter(sv.BaxterParam("B2", math.pi / 6, math.pi / 3))
    assert abs(w.a - 0.5) < 1e-15
    assert abs(w.b - 0.5) < 1e-15
    assert abs(w.c - math.sqrt(3) / 2) < 1e-15
    w = sv.weights_from_baxter(sv.BaxterParam("B1", math.pi / 3, math.pi / 6))
    assert abs(sv.anisotropy_delta(w) - math.sqrt(3) / 2) < 1e-14
    g = 0.8
    w = sv.weights_from_baxter(sv.BaxterParam("C", g / 2, g))
    assert abs(w.a - w.b) < 1e-15


@pytest.mark.parametrize("regime, u, g, abc", [
    ("A1", 0.5, 0.3, lambda u, g: (math.sinh(u + g), math.sinh(u), math.sinh(g))),
    ("A2", 0.9, 0.3, lambda u, g: (math.sinh(u - g), math.sinh(u), math.sinh(g))),
    ("B1", 0.6, 0.3, lambda u, g: (math.sin(u - g), math.sin(u), math.sin(g))),
    ("B2", 0.4, 0.9, lambda u, g: (math.sin(g - u), math.sin(u), math.sin(g))),
    ("C", 0.4, 1.1, lambda u, g: (math.sinh(g - u), math.sinh(u), math.sinh(g))),
])
def test_weights_from_baxter_are_the_scaled_family_weights(regime, u, g, abc):
    w = sv.weights_from_baxter(sv.BaxterParam(regime, u, g, r=1.7), H=0.2, V=-0.1)
    a, b, c = abc(u, g)
    assert w == sv.VertexWeights(1.7 * a, 1.7 * b, 1.7 * c, 0.2, -0.1)


def test_baxter_delta_signs_match_computation():
    # the stated Delta of each family equals the computed anisotropy
    cases = [("A1", 0.5, 0.3), ("A2", 0.9, 0.3), ("B1", 0.6, 0.3),
             ("B2", 0.4, 0.9), ("C", 0.4, 1.1)]
    for regime, u, g in cases:
        w = sv.weights_from_baxter(sv.BaxterParam(regime, u, g))
        assert abs(sv.anisotropy_delta(w) - baxter_delta(regime, g)) < 1e-12


def test_baxter_windows_raise():
    with pytest.raises(OutOfRange):
        sv.BaxterParam("A2", 0.2, 0.5)      # needs gamma < u
    with pytest.raises(OutOfRange):
        sv.BaxterParam("B1", 0.2, 0.3)      # needs u > gamma
    with pytest.raises(OutOfRange):
        sv.BaxterParam("B2", 0.95, 0.9)     # needs u < gamma
    with pytest.raises(OutOfRange):
        sv.BaxterParam("C", 1.2, 1.1)
    with pytest.raises(OutOfRange):
        sv.BaxterParam("Z", 0.1, 0.2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(regime=st.sampled_from(sv.REGIMES), u=st.floats(0.0, 3.0), g=st.floats(0.0, 3.0))
def test_weights_are_positive_inside_each_family_window(regime, u, g):
    assume(sv._FAMILIES[regime][1](u, g))
    assert min(sv._baxter_abc(regime, u, g)) > 0.0
    w = sv.weights_from_baxter(sv.BaxterParam(regime, u, g))
    assert min(w.a, w.b, w.c) > 0.0


def test_vertex_weights_validation():
    with pytest.raises(ValueError):
        sv.VertexWeights(1.0, -0.2, 1.0)
    with pytest.raises(ValueError):
        sv.VertexWeights(1.0, 1.0, 1.0, H=float("inf"))


# ---------------------------------------------------------------------------
# R-matrix
# ---------------------------------------------------------------------------

def test_r_matrix_zero_pattern():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, c = rng.uniform(0.2, 2.0, 3)
        H, V = rng.uniform(-1, 1, 2)
        r = sv.r_matrix(sv.VertexWeights(a, b, c, H, V))
        nz = {(i, j) for i in range(4) for j in range(4) if r[i, j] != 0}
        assert nz == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        assert np.all(r[r != 0] > 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(abc=st.tuples(*[st.floats(0.01, 10.0)] * 3), H=st.floats(-3.0, 3.0),
       V=st.floats(-3.0, 3.0))
def test_r_matrix_is_the_documented_layout(abc, H, V):
    # basis e1e1, e1e2, e2e1, e2e2; an empty half-edge carries exp(+field/2)
    a, b, c = abc
    want = np.zeros((4, 4))
    want[0, 0], want[3, 3] = a * math.exp(H + V), a * math.exp(-H - V)
    want[1, 1], want[2, 2] = b * math.exp(H - V), b * math.exp(V - H)
    want[1, 2] = want[2, 1] = c
    assert np.array_equal(sv.r_matrix(sv.VertexWeights(a, b, c, H, V)), want)


def test_r_matrix_b_zero_swap_pattern():
    # a = c, b -> 0 degenerates to a multiple of the middle swap
    c = 1.3
    r = sv._r_from_abc(c, 0.0, c)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=float)
    assert np.array_equal(r, c * swap)


def test_r_matrix_field_factorization():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b, c = rng.uniform(0.2, 2.0, 3)
        H, V = rng.uniform(-1, 1, 2)
        lhs = sv.r_matrix(sv.VertexWeights(a, b, c, H, V))
        d = np.kron(field_matrix(H), field_matrix(V))
        rhs = d @ sv.r_matrix(sv.VertexWeights(a, b, c)) @ d
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_r_matrix_diagonal_commutation():
    rng = np.random.default_rng(2)
    r = sv.r_matrix(sv.VertexWeights(1.2, 0.7, 0.9, 0.3, -0.4))
    for _ in range(5):
        d = np.diag(rng.uniform(0.5, 2.0, 2))
        dd = np.kron(d, d)
        assert np.max(np.abs(dd @ r - r @ dd)) < 1e-13


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------

def test_ybe_regime_a1_example():
    assert sv.yang_baxter_residual(0.3, 0.4, "A1", 0.5) < 1e-12


def test_ybe_all_regimes():
    cases = [("A1", 0.5, 0.3, 0.4), ("A2", 0.3, 0.5, 0.7),
             ("B1", 0.3, 0.45, 0.6), ("B2", 1.3, 0.3, 0.4),
             ("C", 1.5, 0.3, 0.4)]
    for regime, g, u, v in cases:
        assert sv.yang_baxter_residual(u, v, regime, g) < 1e-12


def test_ybe_swap_point_exact():
    # u = 0 in the sin(gamma - u) family: R(0) is proportional to the swap
    assert sv.yang_baxter_residual(0.0, 0.4, "B2", 0.9) == 0.0


def test_ybe_mismatched_gamma_control():
    res = sv.yang_baxter_residual(0.3, 0.4, "B2", 0.5, gamma_mid=0.9)
    assert res > 1e-3


def _embed_three_by_loops(r4, pos):
    """Entry-by-entry reference for sv._embed_three."""
    t = r4.reshape(2, 2, 2, 2)
    out = np.zeros((2,) * 6)
    i, j = pos
    k = ({0, 1, 2} - {i, j}).pop()
    for oi, oj, ii, jj, kk in np.ndindex(2, 2, 2, 2, 2):
        o, n = [0, 0, 0], [0, 0, 0]
        o[i], o[j], o[k] = oi, oj, kk
        n[i], n[j], n[k] = ii, jj, kk
        out[(*o, *n)] = t[oi, oj, ii, jj]
    return out.reshape(8, 8)


def test_embed_three_matches_the_loops():
    rng = np.random.default_rng(12)
    for _ in range(20):
        r4 = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.7)
        for pos in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
            assert np.array_equal(sv._embed_three(r4, pos), _embed_three_by_loops(r4, pos))


# ---------------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------------

def test_transfer_n1_closed_form():
    w = sv.VertexWeights(1.4, 0.6, 1.1, 0.3, -0.2)
    t = sv.transfer(1, w).matrix
    a, b, H, V = w.a, w.b, w.H, w.V
    expect = np.diag([a * math.exp(H + V) + b * math.exp(H - V),
                      b * math.exp(V - H) + a * math.exp(-H - V)])
    assert np.max(np.abs(t - expect)) < 1e-14
    # each magnetization sector is one-dimensional: any pair commutes
    t2 = sv.transfer(1, sv.VertexWeights(0.5, 2.0, 0.7))
    assert sv.commutator_residual(sv.transfer(1, w), t2) < 1e-15


def test_transfer_ff_commutes_n3():
    t1 = sv.transfer(3, ff_weights(0.3))
    t2 = sv.transfer(3, ff_weights(0.7))
    assert sv.commutator_residual(t1, t2) <= 1e-12


def test_transfer_different_weights_do_not_commute():
    # N = 4 is the smallest honest control: for N <= 3 every magnetization
    # sector holds at most one state per momentum, so translation
    # invariance alone makes any two transfer matrices commute exactly
    t1 = sv.transfer(4, sv.VertexWeights(1, 1, 1))
    t2 = sv.transfer(4, sv.VertexWeights(2, 1, 1))
    assert sv.commutator_residual(t1, t2) > 1e-3
    t1s = sv.transfer(3, sv.VertexWeights(1, 1, 1))
    t2s = sv.transfer(3, sv.VertexWeights(2, 1, 1))
    assert sv.commutator_residual(t1s, t2s) < 1e-14


def test_same_gamma_baxter_pair_commutes_n6():
    g = 1.1
    wu = sv.weights_from_baxter(sv.BaxterParam("B2", 0.3, g), H=0.2, V=-0.1)
    wv = sv.weights_from_baxter(sv.BaxterParam("B2", 0.8, g), H=0.2, V=-0.1)
    res = sv.commutator_residual(sv.transfer(6, wu), sv.transfer(6, wv))
    assert res <= 1e-10


def test_commutator_trivials():
    t = sv.transfer(3, ff_weights(0.4))
    assert sv.commutator_residual(t, t) == 0.0
    with pytest.raises(DimensionMismatch):
        sv.commutator_residual(t, sv.transfer(4, ff_weights(0.4)))


def test_transfer_sector_conservation():
    t = sv.transfer(4, sv.VertexWeights(1.1, 0.8, 1.3, 0.2, 0.4)).matrix
    for i in range(16):
        for j in range(16):
            if bin(i).count("1") != bin(j).count("1"):
                assert t[i, j] == 0.0


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_indices_match_the_popcount_loop(n):
    groups = [[] for _ in range(n + 1)]
    for i in range(1 << n):
        groups[bin(i).count("1")].append(i)
    got = sv.TransferOperator(n, ff_weights(0.4)).sector_indices()
    assert len(got) == n + 1
    for g, ref in zip(got, groups):
        assert g.dtype == np.array(ref, dtype=int).dtype
        assert np.array_equal(g, np.array(ref, dtype=int))


def test_transfer_field_factorization_ctm():
    w0 = sv.VertexWeights(1.1, 0.8, 1.3, 0.0, 0.4)
    wH = sv.VertexWeights(1.1, 0.8, 1.3, 0.6, 0.4)
    n = 3
    d = field_matrix(0.6)
    dn = d
    for _ in range(n - 1):
        dn = np.kron(dn, d)
    lhs = sv.transfer(n, wH).matrix
    rhs = dn @ sv.transfer(n, w0).matrix @ dn
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _kron_transfer(n, w):
    """The dense transfer matrix built as a sum of Kronecker products.

    An independent oracle for the block-wise build: all four auxiliary
    blocks of every row, summed over the shared edge, traced at the end.
    """
    t = sv.r_matrix(w).reshape(2, 2, 2, 2)  # [q_out, a_south, q_in, a_north]
    blocks = [[t[:, s, :, a] for a in range(2)] for s in range(2)]
    cur = [[blocks[e0][e1] for e1 in range(2)] for e0 in range(2)]
    for _ in range(1, n):
        nxt = [[None, None], [None, None]]
        for e0 in range(2):
            for etop in range(2):
                acc = None
                for er in range(2):
                    term = np.kron(blocks[er][etop], cur[e0][er])
                    acc = term if acc is None else acc + term
                nxt[e0][etop] = acc
        cur = nxt
    return cur[0][0] + cur[1][1]


@pytest.mark.parametrize("w", [ff_weights(0.7), sv.VertexWeights(1.1, 0.8, 1.3, 0.35, -0.6)],
                         ids=["free-fermion", "fields"])
def test_transfer_matches_kron_oracle(w):
    for n in range(1, 11):
        assert np.array_equal(sv.transfer(n, w).matrix, _kron_transfer(n, w)), n


def test_transfer_dense_cap_and_matrix_free():
    # above DENSE_CAP the operator is matrix-free, and dense-only work refuses it
    big = sv.transfer(13, ff_weights(0.5))
    assert big.blocks is None
    with pytest.raises(TooLarge, match=r"^dense transfer capped at N = 12 \(DENSE_CAP\), got N = 13$"):
        sv.commutator_residual(big, big)
    # apply is the tensordot contraction at every N, not bit for bit the blocks
    rng = np.random.default_rng(4)
    for n in range(1, 12):
        for w in (ff_weights(0.7), sv.VertexWeights(1.1, 0.8, 1.3, 0.35, -0.6)):
            op, v = sv.transfer(n, w), rng.standard_normal(1 << n)
            ref = op.matrix @ v
            err = np.max(np.abs(op.apply(v) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (n, w)


@pytest.mark.parametrize("refused", ["matrix", "torus_partition"])
def test_dense_only_work_refuses_a_matrix_free_operator(refused):
    w = sv.VertexWeights(1.0, 1.0, 1.0)
    calls = {"matrix": lambda: sv.transfer(13, w).matrix,
             "torus_partition": lambda: sv.torus_partition(1, 13, w)}
    with pytest.raises(TooLarge) as exc:
        calls[refused]()
    assert str(exc.value) == "dense transfer capped at N = 12 (DENSE_CAP), got N = 13"


def test_sector_blocks_bound_memory_and_keep_sectors_apart():
    w = sv.VertexWeights(1.1, 0.8, 1.3, 0.35, -0.6)
    tracemalloc.start()
    try:
        sv.transfer(12, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6   # the dense 4096 x 4096 result alone is 128 MiB
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        a, b, c = rng.uniform(0.3, 2.0, 3)
        H, V = rng.uniform(-0.7, 0.7, 2)
        t = sv.transfer(n, sv.VertexWeights(a, b, c, H, V)).matrix
        k = np.bitwise_count(np.arange(1 << n))
        assert np.all(t[k[:, None] != k[None, :]] == 0.0), n


# ---------------------------------------------------------------------------
# partitions against enumeration
# ---------------------------------------------------------------------------

def test_cylinder_single_column_oracle():
    w = sv.VertexWeights(1, 1, 1)
    eta = sv.BoundaryWord((0, 0))
    z = sv.cylinder_partition(1, 2, w, eta, eta)
    ze = sv.enumerate_cylinder_partition(1, 2, w, eta, eta)
    assert abs(z - ze) < 1e-12 * abs(ze)


def test_cylinder_sector_mismatch_is_zero():
    w = sv.VertexWeights(1.2, 0.9, 1.1)
    z = sv.cylinder_partition(2, 3, w, sv.BoundaryWord((1, 0, 0)),
                              sv.BoundaryWord((1, 1, 0)))
    assert z == 0.0


def test_cylinder_field_factorization():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b, c = rng.uniform(0.4, 1.8, 3)
        V = rng.uniform(-0.5, 0.5)
        H = rng.uniform(-0.6, 0.6)
        bits = tuple(int(x) for x in rng.integers(0, 2, 3))
        eta = sv.BoundaryWord(bits)
        z0 = sv.cylinder_partition(2, 3, sv.VertexWeights(a, b, c, 0, V), eta, eta)
        zh = sv.cylinder_partition(2, 3, sv.VertexWeights(a, b, c, H, V), eta, eta)
        pred = z0 * math.exp(H * sv.cylinder_field_exponent(2, eta))
        assert abs(zh - pred) <= 1e-12 * abs(zh)


def test_torus_trivials():
    w = sv.VertexWeights(1.5, 0.7, 1.0)
    assert abs(sv.torus_partition(1, 1, w) - (2 * w.a + 2 * w.b)) < 1e-14
    z = sv.torus_partition(2, 2, sv.VertexWeights(1, 1, 1))
    count = len(sv.enumerate_states(sv.LatticeSpec("torus", 2, 2)))
    assert abs(z - count) < 1e-12
    # path-reversal symmetry of the trace at V = 0
    zp = sv.torus_partition(2, 3, sv.VertexWeights(1.3, 0.8, 1.1, 0.4, 0.0))
    zm = sv.torus_partition(2, 3, sv.VertexWeights(1.3, 0.8, 1.1, -0.4, 0.0))
    assert abs(zp - zm) < 1e-12 * abs(zp)


# Known defect "lattice partition functions under- and overflow silently":
# T^M is multiplied out with no renormalization
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="lattice partition functions under- and overflow silently: "
                          "the A1 torus at M = 2000, N = 10 comes back as 0.0")
def test_torus_partition_stays_finite_and_positive_at_large_m():
    w = sv.weights_from_baxter(sv.BaxterParam("A1", 0.3, 0.5))
    z = sv.torus_partition(2000, 10, w)
    assert math.isfinite(z) and z > 0.0


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="lattice partition functions under- and overflow silently: "
                          "the (1, 1, 1) cylinder at M = 300, N = 12 overflows to nan")
def test_cylinder_partition_stays_finite_and_positive_at_large_m():
    eta = sv.BoundaryWord((1, 0) * 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = sv.cylinder_partition(300, 12, sv.VertexWeights(1, 1, 1), eta, eta)
    assert math.isfinite(z) and z > 0.0


def test_oracle_equivalence_random():
    rng = np.random.default_rng(6)
    shapes = [(1, 1), (2, 2), (3, 2), (1, 4), (4, 1), (3, 3)]
    for m, n in shapes:
        a, b, c = rng.uniform(0.3, 2.0, 3)
        H, V = rng.uniform(-0.7, 0.7, 2)
        w = sv.VertexWeights(a, b, c, H, V)
        zt = sv.torus_partition(m, n, w)
        ze = sv.enumerate_torus_partition(m, n, w)
        assert abs(zt - ze) <= 1e-12 * abs(ze)
        bits = tuple(int(x) for x in rng.integers(0, 2, n))
        eta = sv.BoundaryWord(bits)
        zc = sv.cylinder_partition(m, n, w, eta, eta)
        zce = sv.enumerate_cylinder_partition(m, n, w, eta, eta)
        assert abs(zc - zce) <= 1e-12 * max(abs(zce), 1e-12)


def test_cylinder_partition_matrix_free_branch(monkeypatch):
    # with DENSE_CAP at 0 every N takes cylinder_partition's apply branch
    rng = np.random.default_rng(12)
    blocked = []
    for n in range(6, 9):
        a, b, c = rng.uniform(0.3, 2.0, 3)
        H, V = rng.uniform(-0.7, 0.7, 2)
        w = sv.VertexWeights(a, b, c, H, V)
        # two words in the sector of n // 2 occupied edges
        eta1, eta2 = (sv.BoundaryWord(tuple(int(x) for x in rng.permutation(n) < n // 2))
                      for _ in range(2))
        blocked.append((n, w, eta1, eta2, sv.cylinder_partition(7, n, w, eta1, eta2)))
    monkeypatch.setattr(sv, "DENSE_CAP", 0)
    assert sv.transfer(1, sv.VertexWeights(1, 1, 1)).blocks is None
    for n, w, eta1, eta2, z in blocked:
        assert abs(sv.cylinder_partition(7, n, w, eta1, eta2) - z) <= 1e-12 * abs(z), n
    for m, n in [(1, 1), (2, 2), (3, 2), (1, 4), (4, 1), (3, 3), (2, 4), (1, 9), (9, 1)]:
        a, b, c = rng.uniform(0.3, 2.0, 3)
        H, V = rng.uniform(-0.7, 0.7, 2)
        w = sv.VertexWeights(a, b, c, H, V)
        eta = sv.BoundaryWord(tuple(int(x) for x in rng.integers(0, 2, n)))
        zc = sv.cylinder_partition(m, n, w, eta, eta)
        zce = sv.enumerate_cylinder_partition(m, n, w, eta, eta)
        assert abs(zc - zce) <= 1e-12 * abs(zce), (m, n)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert len(sv.enumerate_states(sv.LatticeSpec("plane", 1, 1))) == 6
    assert len(sv.enumerate_states(sv.LatticeSpec("torus", 1, 1))) == 4
    assert sv.enumerate_states(sv.LatticeSpec("plane", 0, 0)) == [frozenset()]


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        sv.enumerate_states(sv.LatticeSpec("plane", 5, 5))


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def test_empty_state_height_is_linear():
    spec = sv.LatticeSpec("plane", 3, 3)
    h = sv.state_to_height(spec, frozenset())
    for i in range(4):
        for j in range(4):
            assert abs(h.values[(i, j)] + (i + j) / 2.0) < 1e-12


def test_single_w2_vertex_heights():
    spec = sv.LatticeSpec("plane", 1, 1)
    state = frozenset(spec.vertex_edges(0, 0))
    h = sv.state_to_height(spec, state, ref_face=(1, 0), ref_value=0.0)
    assert h.values[(0, 0)] == -0.5   # southwest
    assert h.values[(1, 0)] == 0.0    # southeast
    assert h.values[(0, 1)] == 0.0    # northwest
    assert h.values[(1, 1)] == 0.5    # northeast


@pytest.mark.parametrize("kind,m,n", [("plane", 2, 3), ("plane", 3, 3),
                                      ("cylinder", 2, 2), ("cylinder", 3, 2)])
def test_height_round_trip(kind, m, n):
    spec = sv.LatticeSpec(kind, m, n)
    for state in sv.enumerate_states(spec):
        h = sv.state_to_height(spec, state)
        assert height_to_state(h) == state


def _random_plane_state(spec, rng):
    """An ice state drawn vertex by vertex.  The west and south edges are
    known (or a random stub); the ice rule asks west + north = south + east,
    which leaves a free choice only when west and south agree."""
    occupied = set()

    def bit(edge, on):
        if on:
            occupied.add(edge)
        return on

    for x, y in spec.vertices():
        west, south, north, east = spec.vertex_edges(x, y)
        w = bit(west, rng.random() < 0.5) if x == 0 else west in occupied
        s = bit(south, rng.random() < 0.5) if y == 0 else south in occupied
        up = bit(north, rng.random() < 0.5 if w == s else s)
        bit(east, up + w - s == 1)
    return frozenset(occupied)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       ref=st.tuples(st.integers(0, 6), st.integers(0, 6)), ref_value=st.floats(-3.0, 3.0))
def test_height_round_trip_property(m, n, seed, ref, ref_value):
    spec = sv.LatticeSpec("plane", m, n)
    state = _random_plane_state(spec, random.Random(seed))
    assert sv.state_weight(spec, state, sv.VertexWeights(1.0, 1.0, 1.0)) == 1.0  # ice rule
    ref_face = (min(ref[0], m), min(ref[1], n))
    h = sv.state_to_height(spec, state, ref_face=ref_face, ref_value=ref_value)
    assert height_to_state(h) == state


def test_cylinder_monodromy_is_column_independent():
    spec = sv.LatticeSpec("cylinder", 3, 2)
    for state in sv.enumerate_states(spec)[:40]:
        h = sv.state_to_height(spec, state)
        ms = {h.monodromy(i) for i in range(spec.m + 1)}
        assert len(ms) == 1


def test_height_to_state_inconsistent():
    spec = sv.LatticeSpec("plane", 2, 2)
    h = sv.state_to_height(spec, frozenset())
    h.values[(1, 1)] += 1.0
    with pytest.raises(Inconsistent):
        height_to_state(h)


# ---------------------------------------------------------------------------
# five-vertex limits
# ---------------------------------------------------------------------------

def test_five_vertex_limit_patterns():
    for case, kw in ((1, dict(xi=0.4)), (2, dict(u=0.9)), (3, dict(xi=0.4))):
        lim = sv.five_vertex_limit_r(case, l=0.2, m=-0.1, **kw)
        assert lim[3, 3] == 0.0
    lim2 = sv.five_vertex_limit_r(2, u=0.9, l=0.2, m=-0.1)
    su = math.sin(0.9)
    assert abs(lim2[0, 0] - math.exp(0.1)) < 1e-15
    assert abs(lim2[1, 1] - su * math.exp(0.3)) < 1e-15
    assert abs(lim2[1, 2] - su) < 1e-15
    assert abs(lim2[2, 2] - su * math.exp(-0.3)) < 1e-15


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(xi=st.floats(0.01, 2.0), dg=st.floats(0.01, 4.0), l=st.floats(-1.0, 1.0),
       m=st.floats(-1.0, 1.0))
def test_five_vertex_case_3_is_case_1_with_xi_mirrored_in_b(xi, dg, l, m):
    lim1, lim3 = (sv.five_vertex_limit_r(case, xi=xi, l=l, m=m) for case in (1, 3))
    mirror = lim1.copy()
    mirror[1, 1], mirror[2, 2] = math.exp(-xi + l - m), math.exp(-xi - l + m)
    assert np.array_equal(lim3, mirror)
    gamma = xi + dg

    def weights(x):     # case 1's weights with xi -> x in the b weight
        return sv.VertexWeights(math.sinh(xi), math.sinh(gamma + x), math.sinh(gamma),
                                gamma / 2.0 + l, gamma / 2.0 + m)

    for case, x in ((1, xi), (3, -xi)):
        got = sv.five_vertex_finite_r(case, gamma, xi=xi, l=l, m=m)
        assert np.array_equal(got, sv.r_matrix(weights(x)))


def test_five_vertex_gaps_decrease():
    for case in (1, 3):
        gaps = [sv.convergence_gap(case, g, xi=0.4, l=0.15, m=-0.2)
                for g in (4.0, 6.0, 8.0)]
        assert gaps[0] > gaps[1] > gaps[2]
    g2 = [sv.convergence_gap(2, 0.9 + d, u=0.9, l=0.1, m=0.2)
          for d in (1e-2, 1e-3, 1e-4)]
    assert g2[0] > g2[1] > g2[2]


def test_five_vertex_out_of_range():
    with pytest.raises(OutOfRange):
        sv.five_vertex_limit_r(1, xi=-0.2)
    with pytest.raises(OutOfRange):
        sv.five_vertex_limit_r(4, xi=0.2)
    with pytest.raises(OutOfRange):
        sv.convergence_gap(2, 0.5, u=0.9)
