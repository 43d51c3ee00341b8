"""The benchmark's tracing hooks still find every name they wrap.

perfbench/spans.py wraps icelab functions and bundle fields by name, so a
rename in icelab breaks `perfbench/run.py --trace 1` without failing any
other test.  The hooks are installed on copies of the module namespaces,
so nothing else sees the spans.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import icelab
from icelab import tension

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_finds_every_wrapped_name_and_bundle_field():
    spans = _load_spans()
    copies = SimpleNamespace(**{name: SimpleNamespace(**vars(getattr(icelab, name)))
                                for name in ("shapes", "tension", "flow", "sixvertex")})
    tracer = spans.Tracer()
    spans.install(tracer, copies)       # a missing name raises AttributeError
    fl, tn = copies.flow, copies.tension
    # dataclasses.replace raises TypeError if a bundle lost a traced field
    calls = [(fl.hex_density().d2, (0.1, 0.4)), (fl.ff_density(0.9).d2, (0.1, 0.4)),
             (fl.hex_burgers().f, (0.3 + 0.2j,)), (fl.ff_burgers(0.9).f, (0.3 + 0.2j,)),
             (tn.ff_tension(0.9).value, (0.3, 0.4))]
    tracer.active = True
    for fn, args in calls:
        fn(*args)
    tracer.active = False
    assert tracer.names == ["flow.density.d2"] * 2 + ["flow.burgers.F"] * 2 + ["tension.ff_value"]
    assert icelab.flow.hex_density is not fl.hex_density


class _Undone:
    """A module whose attribute writes go through monkeypatch, so each is
    undone when the test ends."""

    def __init__(self, module, monkeypatch):
        vars(self).update(module=module, monkeypatch=monkeypatch)

    def __getattr__(self, name):
        return getattr(self.module, name)

    def __setattr__(self, name, value):
        self.monkeypatch.setattr(self.module, name, value)


def test_traced_legendre_solve_reports_its_inner_calls(monkeypatch):
    # the hooks wrap the module's own names, so a solve that stops calling
    # grad_free_energy or free_energy by those names reads zero here
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, SimpleNamespace(**{
        name: _Undone(getattr(icelab, name), monkeypatch)
        for name in ("shapes", "tension", "flow", "sixvertex")}))
    tracer.active = True
    tension.legendre_sigma(tension.FreeEnergyField(tension.hex_curve()), 0.3, 0.35)
    tracer.active = False
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["tension.legendre_sigma.calls"] == 1
    assert metrics["tension.legendre_sigma.grad_calls"] > 0
    assert metrics["tension.free_energy.n_final"] > 0
