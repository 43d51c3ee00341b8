"""Self-tests of the benchmark: references, arithmetic, op and span counting.

Each takes well under a second; run with `python -m pytest perfbench`.
"""

import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import refs
import run
import spans
from workloads import Op


# -- references ---------------------------------------------------------------

def test_hex_free_energy_reference_is_smyths_mahler_measure():
    assert refs.smyth_mahler() == pytest.approx(refs.SMYTH_M, abs=1e-15)
    assert refs.free_energy(refs.HEX, 0.0, 0.0) == pytest.approx(refs.SMYTH_M, abs=1e-15)


def test_hex_free_energy_reference_off_the_amoeba():
    # outside the amoeba of 1 - z - w the free energy is affine: 0, H or V
    assert refs.free_energy(refs.HEX, -1.0, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert refs.free_energy(refs.HEX, 1.0, 0.2) == pytest.approx(1.0, abs=1e-15)
    assert refs.free_energy(refs.HEX, 0.2, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_lobachevsky_closed_form_is_the_legendre_dual_at_the_center():
    # grad sigma_hex(1/3, 1/3) = (0, 0), so sigma = -f(0, 0) = -m(1 + x + y)
    assert refs.grad_sigma_hex(1 / 3, 1 / 3) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert refs.sigma_hex(1 / 3, 1 / 3) == pytest.approx(-refs.SMYTH_M, abs=1e-15)


@pytest.mark.parametrize("curve, s, t, dual", [
    (refs.HEX, 0.3, 0.25, refs.grad_sigma_hex),
    (refs.ff_coeffs(1.0), 0.35, 0.6, lambda s, t: refs.ff_gradient_map(s, t, 1.0)),
])
def test_reference_gradient_maps_invert_the_free_energy(curve, s, t, dual):
    # Legendre duality: grad f at the dual point is the slope (s, t)
    H, V = dual(s, t)
    h = 1e-5
    dH = (refs.free_energy(curve, H + h, V) - refs.free_energy(curve, H - h, V)) / (2 * h)
    dV = (refs.free_energy(curve, H, V + h) - refs.free_energy(curve, H, V - h)) / (2 * h)
    assert (dH, dV) == pytest.approx((s, t), abs=1e-8)


# -- arithmetic -----------------------------------------------------------------

def test_summarize_throughput_and_median():
    out = run.summarize([1.0, 2.0, 3.0, 4.0])
    assert out["ops_per_s"] == pytest.approx(0.4)
    assert out["op_s.p50"] == pytest.approx(2.5)
    assert run.summarize([0.5, 0.1, 0.3])["op_s.p50"] == 0.3


# -- op and failure counting ----------------------------------------------------

def _ops(sleep=0.0):
    def good():
        time.sleep(sleep)
        return 1

    def check(out, ref):
        return [] if out == 1 else ["wrong"]

    return [Op("good", good, check), Op("good", good, check),
            Op("fault", lambda: 2, check, known_fault=True)]


def test_one_round_when_no_time_is_asked_for():
    res = run.run_rounds(_ops(), 0)
    assert len(res["op_seconds"]) == 3
    assert (res["failed"], res["unexpected"]) == (1, 0)


def test_whole_rounds_keep_the_failed_share_fixed():
    res = run.run_rounds(_ops(sleep=0.002), 0.02)
    attempted = len(res["op_seconds"])
    assert attempted >= 6 and attempted % 3 == 0
    assert res["failed"] * 3 == attempted
    assert res["unexpected"] == 0
    assert sum(res["op_seconds"]) >= 0.02


def test_an_op_that_raises_is_an_unexpected_failure():
    class Boom(Exception):
        pass

    def raise_boom():
        raise Boom("no")

    ops = [Op("boom", raise_boom, lambda out, ref: [str(out)] if out else [])]
    res = run.run_rounds(ops, 0, own_errors=(Boom,))
    assert (res["failed"], res["unexpected"]) == (1, 1)


# -- spans ------------------------------------------------------------------------

def test_span_self_time_and_counts():
    tr = spans.Tracer()
    grad = tr.span("tension.grad_free_energy", lambda: time.sleep(0.002))

    def solve():
        grad()
        grad()
        time.sleep(0.002)

    legendre = tr.span("tension.legendre_sigma", solve)
    op = tr.span("op.batch", lambda: (legendre(), grad()))
    grad()                      # inactive: no span
    tr.active = True
    op()
    op()
    tr.active = False
    m = spans.layer_metrics(tr, n_ops=2)
    assert m["tension.legendre_sigma.calls"] == 1
    assert m["tension.grad_free_energy.calls"] == 3
    assert m["tension.legendre_sigma.grad_calls"] == 2
    assert m["tension.legendre_sigma.s"] >= 0.002
    assert m["tension.legendre_sigma.s"] < 0.003 + m["tension.grad_free_energy.s"]
    assert set(m) == set(spans.LAYER_METRICS)
    assert m["shapes.accept_ratio"] == 0.0


def test_traced_free_energy_keeps_its_return_convention():
    # install on copies of the module namespaces, so nothing else sees the spans
    ic = run.load_icelab()
    copies = SimpleNamespace(**{name: SimpleNamespace(**vars(getattr(ic, name)))
                                for name in ("shapes", "tension", "flow", "sixvertex")})
    tr = spans.Tracer()
    spans.install(tr, copies)
    tn = copies.tension
    tr.active = True
    value = tn.free_energy(tn.hex_curve(), 2.0, 0.0)
    pair = tn.free_energy(tn.hex_curve(), 2.0, 0.0, return_info=True)
    tr.active = False
    assert value == pytest.approx(2.0) and pair[0] == value and "n" in pair[1]
    assert spans.layer_metrics(tr, 1)["tension.free_energy.n_final"] == 512
    assert ic.tension.free_energy is not tn.free_energy


# -- the command ----------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in bench.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "integrable",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
