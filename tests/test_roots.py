"""roots.brentq against scipy.optimize.brentq, bit for bit.

Both solvers run on the same function; they must call it at the same
points, in the same order, and return the same float or raise the same
exception type.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from twpaopt.roots import brentq

#: f(x; c), each with a root at c, drawn from [0.1, 0.9].  At xtol 1e-12 and
#: below, the odd power runs out of its 100 iterations.
FAMILIES = {
    "smooth": lambda c: lambda x: x * x * x + x - (c * c * c + c),
    "steep": lambda c: lambda x: math.tanh(60.0 * (x - c)),
    "odd_power": lambda c: lambda x: (x - c) ** 7,
    "oscillating": lambda c: lambda x: math.sin(23.0 * (x - c)) + 0.7 * (x - c),
    # A few subnormal levels: equal values make the secant steps divide by
    # zero, which C turns into an inf or NaN step and Python into an error.
    "subnormal": lambda c: lambda x: 5e-324 * math.copysign(
        min(1e3 * abs(x - c), 3.0), x - c),
}


def run(solver, f, a, b, **kw):
    """Result as hex (or the exception type) and the points f was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    try:
        result = solver(g, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, calls


def assert_same(f, a, b, **kw):
    ours, our_calls = run(brentq, f, a, b, **kw)
    theirs, their_calls = run(scipy_brentq, f, a, b, **kw)
    assert ours == theirs, (a, b, kw)
    assert [x.hex() for x in our_calls] == [x.hex() for x in their_calls]
    assert all(type(x) is float for x in our_calls)
    return ours


def brackets(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 0.9, n)
    a = c - rng.uniform(1e-3, 1.0, n)
    b = c + rng.uniform(1e-3, 1.0, n)
    swap = rng.random(n) < 0.5
    return zip(c.tolist(), np.where(swap, b, a), np.where(swap, a, b))


@pytest.mark.parametrize("xtol", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_brentq_matches_scipy_bitwise(family, xtol):
    # a and b are numpy floats, as snail's grid-cell bracket is.
    results = [assert_same(FAMILIES[family](c), a, b, xtol=xtol, rtol=8.9e-16)
               for c, a, b in brackets(
                   100 * list(FAMILIES).index(family) - round(math.log10(xtol)),
                   120)]
    assert any(r is not ValueError for r in results)


@pytest.mark.parametrize("maxiter", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("disp", [False, True])
def test_brentq_iteration_cap_matches_scipy(maxiter, disp):
    # rtol a numpy float, as mixing passes it.
    results = [assert_same(FAMILIES[family](c), a, b, maxiter=maxiter,
                           disp=disp, rtol=4 * np.finfo(float).eps)
               for family in sorted(FAMILIES)
               for c, a, b in brackets(maxiter, 25)]
    # disp=False returns the last iterate where disp=True raises.
    assert any(r is RuntimeError for r in results) == disp


def test_brentq_errors_match_scipy():
    cases = [
        # Same sign at both ends, also where their product underflows.
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),
        (lambda x: 1e-200, 0.0, 1.0, {}),
        # NaN at an end and at an iterate.
        (lambda x: math.nan if x > 0.9 else x - 0.5, 0.0, 1.0, {}),
        (lambda x: math.nan if 0.0 < x < 0.9 else x - 0.5, 0.0, 1.0, {}),
        # No convergence within maxiter.
        (math.cos, 0.0, 3.0, {"maxiter": 3}),
        (math.cos, 0.0, 3.0, {"maxiter": 0}),
    ]
    want = [ValueError, ValueError, ValueError, ValueError, RuntimeError,
            RuntimeError]
    assert [assert_same(f, a, b, **kw) for f, a, b, kw in cases] == want


def test_brentq_ends_match_scipy():
    # An exact zero at either end is the root.
    assert assert_same(lambda x: x - 0.25, 0.25, 1.0) == (0.25).hex()
    assert assert_same(lambda x: x - 1.0, 0.25, 1.0) == (1.0).hex()
    # Opposite-signed values so small their product underflows to zero.
    assert isinstance(assert_same(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0), str)
