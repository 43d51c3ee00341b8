"""Acceptance gate: every numbered criterion at its stated tolerance.

Each criterion maps to one verification suite (some suites carry two
criteria, split here by check-name prefix).  One pass/fail line prints
per criterion; stated runtime budgets are asserted where given.
"""

import time

import numpy as np
import pytest

from icelab import flow as fl
from icelab.suites import SUITES, run_suite

# criterion -> (suite, check-name filter, runtime budget in seconds or None)
CRITERIA = {
    1: ("ybe", None, 1.0),
    2: ("commute", None, 30.0),
    3: ("oracle", None, 60.0),
    4: ("legendre", None, 60.0),
    5: ("hessian", "appendixA", None),
    6: ("hessian", "hessian-", None),
    7: ("poisson", None, None),
    8: ("conserve", None, None),
    9: ("equivalence", None, None),
    10: ("solver", None, None),
    11: ("appendixD", None, None),
    12: ("fivevertex", None, None),
}

_cache = {}


def suite_results(name):
    if name not in _cache:
        t0 = time.time()
        checks = run_suite(name, seed=1234)
        _cache[name] = (checks, time.time() - t0)
    return _cache[name]


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion):
    suite, prefix, budget = CRITERIA[criterion]
    checks, elapsed = suite_results(suite)
    if prefix is not None:
        checks = [c for c in checks if c.name.startswith(prefix)]
    assert checks, f"criterion {criterion}: no checks collected"
    passed = all(c.passed for c in checks)
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:2d}] {status}  suite={suite} "
          f"({len(checks)} checks, {elapsed:.1f}s)")
    for c in checks:
        mark = "ok  " if c.passed else "FAIL"
        print(f"    {mark} {c.name}: value={c.value:.6g} tol={c.tol:.3g}")
    for c in checks:
        assert c.passed, f"criterion {criterion}: {c.name} " \
                         f"value={c.value!r} tol={c.tol!r}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {criterion} overran its {budget}s budget ({elapsed:.1f}s)"


def test_every_criterion_has_exactly_one_suite():
    # criteria 1-12 each name one suite, and every suite carries a criterion
    assert sorted(CRITERIA) == list(range(1, 13))
    assert {suite for suite, _, _ in CRITERIA.values()} == set(SUITES)


def test_conserve_checks_are_the_inline_drifts_they_replaced(monkeypatch):
    # each conserve check reads flow.moment_drift and equals, bit for bit, the
    # drift formed inline from conserved_In on the same states; the Casimir
    # check also equals the larger of the I_1 and conj(I_1) drifts
    calls = []
    drift = fl.moment_drift
    monkeypatch.setattr(fl, "moment_drift", lambda *a: calls.append(a) or drift(*a))
    checks = {c.name: c for c in SUITES["conserve"]()}
    assert len(calls) == 5

    def inline(start, end, orders, moment=fl.conserved_In):
        return max(abs(moment(end, n) - moment(start, n)) / abs(moment(start, n))
                   for n in orders)

    def i_n_bar(st, n):
        return complex(np.mean(np.conj(st.l) ** n) * st.L)

    (hex0, (hex1,), o1), (ff0, (ff1,), o2), (c0, (c1,), o3), (f0, (f1,), o4), \
        (h0, (h1,), o5) = calls
    assert (o1, o2, o3, o4, o5) == ((1, 2, 3, 4), (1, 2, 3, 4), (2, 3, 4), (2, 3, 4), (1,))
    assert checks["conserve-burgers-hex"].value == inline(hex0, hex1, o1)
    assert checks["conserve-burgers-ff"].value == inline(ff0, ff1, o2)
    info = checks["conserve-refinement-decreasing"].info
    assert (info["coarse"], info["fine"]) == (inline(c0, c1, o3), inline(f0, f1, o4))
    assert checks["conserve-casimir-I1"].value == max(inline(h0, h1, o5),
                                                      inline(h0, h1, o5, i_n_bar))
