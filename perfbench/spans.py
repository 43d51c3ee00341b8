"""In-memory spans around the calls into icelab's layers.

`install` replaces public functions and bundle factories of the measured
modules (shapes, tension, flow, sixvertex) with wrappers that record a
span per call: name, start, end and parent.  It must run before the
workload builds its bundles, because a bundle keeps the callables it was
built from.  Spans are recorded only while `Tracer.active` is true, which
the runner sets for the duration of each op, so set-up, reference
computations and checks leave no spans.

Per-layer metrics are derived from the spans once the run ends: `<span>.s`
is self time per op (duration minus the time covered by child spans) and
`<span>.calls` is calls per op.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.active = False
        self._stack: list[int] = []

    def span(self, name, fn):
        """fn wrapped so that each call while active records a span."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def note(self, **attrs):
        """Attach attributes to the innermost open span."""
        if self.active and self._stack:
            self.attrs.setdefault(self._stack[-1], {}).update(attrs)

    def dump(self, path: str, meta: dict):
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names,
                   spans=[[ids[n], s, e, p] for n, s, e, p in
                          zip(self.names, self.start, self.end, self.parent)],
                   attrs={str(k): v for k, v in self.attrs.items()})
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _patch(module, attr, wrapper):
    setattr(module, attr, wrapper(getattr(module, attr)))


def _bundle_factory(tracer, factory, **fields):
    """factory(...) whose returned dataclass has the named fields traced."""
    def build(*args, **kwargs):
        bundle = factory(*args, **kwargs)
        return dataclasses.replace(bundle, **{
            f: tracer.span(name, getattr(bundle, f)) for f, name in fields.items()})
    return build


def install(tracer: Tracer, icelab) -> None:
    """Wrap the measured layers' entry points in `tracer` spans."""
    sh, tn, fl, sv = icelab.shapes, icelab.tension, icelab.flow, icelab.sixvertex

    def solve_counted(fn):
        def solve(*args, **kwargs):
            hf, info = fn(*args, **kwargs)
            tracer.note(accepted=len(info.actions))
            return hf, info
        return tracer.span("shapes.minimize_action", solve)

    def free_energy_counted(fn):
        def free_energy(*args, return_info=False, **kwargs):
            value, info = fn(*args, return_info=True, **kwargs)
            tracer.note(n=info["n"])
            return (value, info) if return_info else value
        return tracer.span("tension.free_energy", free_energy)

    _patch(sh, "minimize_action", solve_counted)
    for module, attr, name in (
            (sh, "action_gradient", "shapes.action_gradient"),
            (tn, "sigma_hex", "tension.value"),
            (tn, "grad_sigma_hex", "tension.grad"),
            (tn, "hess_sigma_hex", "tension.hess"),
            (tn, "lobachevsky_fast", "tension.lobachevsky_fast"),
            (tn, "grad_free_energy", "tension.grad_free_energy"),
            (tn, "legendre_sigma", "tension.legendre_sigma"),
            (fl, "hamilton_evolve", "flow.hamilton_evolve"),
            (fl, "burgers_evolve", "flow.burgers_evolve"),
            (fl, "spectral_dy", "flow.spectral_dy"),
            (sv, "transfer", "sixvertex.transfer"),
            (sv, "commutator_residual", "sixvertex.commutator_residual")):
        _patch(module, attr, lambda fn, name=name: tracer.span(name, fn))
    _patch(tn, "free_energy", free_energy_counted)
    _patch(tn, "ff_tension",
           lambda f: _bundle_factory(tracer, f, value="tension.ff_value"))
    for attr in ("hex_density", "ff_density"):
        _patch(fl, attr, lambda f: _bundle_factory(tracer, f, d2="flow.density.d2"))
    for attr in ("hex_burgers", "ff_burgers"):
        _patch(fl, attr, lambda f: _bundle_factory(tracer, f, f="flow.burgers.F"))


# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    "shapes.minimize_action.s": "s",
    "shapes.tension_evals": "count",
    "shapes.accepted_steps": "count",
    "shapes.accept_ratio": "ratio",
    "shapes.action_gradient.s": "s",
    "tension.value.s": "s",
    "tension.grad.s": "s",
    "tension.hess.s": "s",
    "tension.lobachevsky_fast.s": "s",
    "tension.free_energy.s": "s",
    "tension.free_energy.calls": "count",
    "tension.free_energy.n_final": "count",
    "tension.grad_free_energy.s": "s",
    "tension.grad_free_energy.calls": "count",
    "tension.legendre_sigma.s": "s",
    "tension.legendre_sigma.calls": "count",
    "tension.legendre_sigma.grad_calls": "count",
    "tension.ff_value.s": "s",
    "tension.ff_value.calls": "count",
    "flow.hamilton_evolve.s": "s",
    "flow.hamilton_evolve.rhs_evals": "count",
    "flow.burgers_evolve.s": "s",
    "flow.burgers_f_evals": "count",
    "flow.spectral_dy.calls": "count",
    "sixvertex.transfer.s": "s",
    "sixvertex.transfer.calls": "count",
    "sixvertex.commutator_residual.s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer figures from the recorded spans (see LAYER_METRICS)."""
    n = len(tracer.names)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(tracer.names):
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1

    # names of each span's ancestors; a parent is always recorded first
    ancestors: list[frozenset] = []
    chains: dict = {}
    for p in tracer.parent:
        if p < 0:
            ancestors.append(frozenset())
            continue
        key = (ancestors[p], tracer.names[p])
        if key not in chains:
            chains[key] = key[0] | {key[1]}
        ancestors.append(chains[key])

    def under(name, ancestor):
        """Calls of `name` made, at any depth, inside an `ancestor` span."""
        return sum(1 for nm, anc in zip(tracer.names, ancestors)
                   if nm == name and ancestor in anc)

    def notes(name, key):
        return [a[key] for i, a in tracer.attrs.items()
                if tracer.names[i] == name and key in a]

    solve = "shapes.minimize_action"
    accepted = sum(notes(solve, "accepted"))
    n_final = notes("tension.free_energy", "n")
    derived = {
        "shapes.tension_evals": under("tension.value", solve) + under("tension.grad", solve),
        "shapes.accepted_steps": accepted,
        "flow.hamilton_evolve.rhs_evals": under("flow.density.d2", "flow.hamilton_evolve"),
        "flow.burgers_f_evals": under("flow.burgers.F", "flow.burgers_evolve"),
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric == "shapes.accept_ratio":
            out[metric] = _ratio(accepted, under("shapes.action_gradient", solve))
        elif metric == "tension.free_energy.n_final":
            out[metric] = _ratio(sum(n_final), len(n_final))
        elif metric == "tension.legendre_sigma.grad_calls":
            out[metric] = _ratio(under("tension.grad_free_energy", "tension.legendre_sigma"),
                                 calls.get("tension.legendre_sigma", 0))
        elif metric in derived:
            out[metric] = _ratio(derived[metric], n_ops)
        elif metric.endswith(".s"):
            out[metric] = _ratio(self_s.get(metric[:-2], 0.0), n_ops)
        else:
            out[metric] = _ratio(calls.get(metric[:-len(".calls")], 0), n_ops)
    return out
