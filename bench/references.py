#!/usr/bin/env python3
"""Recompute mahler-ladder's numeric Mahler references without lapgraph.mahler.

    python3 bench/references.py

It needs mpmath, which the benchmark itself does not.  For f(x, x^s) it sums
log|root| over the roots outside the unit circle, with 60-digit
mpmath.polyroots.  For a two-variable P it integrates
m(P(e^{it}, y)) over t in [0, pi] by tanh-sinh quadrature (the integrand is
even in t because the coefficients are real) at 40 digits.  Delta_0 of a
connected quotient vanishes on the torus only at (1, 1), so the integrand is
smooth inside the interval.  The grid's value must come out as 4G/pi; it is
printed as a check of the method.  Delta_0 comes from lapgraph's exact
linear algebra and is pinned by the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import mpmath  # noqa: E402

from lapgraph import graphio, graphs, linalg  # noqa: E402
from lapgraph.fields import ZZ  # noqa: E402
from lapgraph.laurent import parse_poly  # noqa: E402


def measure_1var(coeffs: list) -> mpmath.mpf:
    """m of the polynomial with these coefficients, lowest degree first."""
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    while coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    m = mpmath.log(abs(coeffs[-1]))
    if len(coeffs) > 1:
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=2000, extraprec=200)
        m += sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1)
    return m


def measure_2var(f) -> mpmath.mpf:
    y_low = f.min_exp(1)
    width = f.max_exp(1) - y_low + 1

    def fiber(t):
        x = mpmath.expj(t)
        coeffs = [mpmath.mpc(0)] * width
        for (a, b), c in f.coeffs.items():
            coeffs[b - y_low] += c * x**a
        return measure_1var(coeffs)

    return mpmath.quad(fiber, [0, mpmath.pi]) / mpmath.pi


def delta0(name: str):
    obj = graphio.parse_graph_file((ROOT / "graphs" / f"{name}.lapgraph").read_text(encoding="utf-8"))
    vg = getattr(obj, "graph", obj)  # a plane graph carries its voltage graph
    return linalg.elementary_divisor(graphs.voltage_laplacian(vg), 0, ZZ)


def show(label: str, value) -> None:
    print(f"{label:22s} {mpmath.nstr(value, 20)}")


def main() -> int:
    mpmath.mp.dps = 60
    grid = parse_poly("4 - x - x^-1 - y - y^-1", 2)
    for s in (8, 16, 24, 32):
        f = grid.substitute_power(s)
        low = f.min_exp(0)
        coeffs = [0] * (f.max_exp(0) - low + 1)
        for (e,), c in f.coeffs.items():
            coeffs[e - low] = c
        show(f"m(f(x, x^{s}))", measure_1var(coeffs))
    mpmath.mp.dps = 40
    show("m(Delta_0 grid)", measure_2var(delta0("grid")))
    show("4G/pi", 4 * mpmath.catalan / mpmath.pi)
    show("m(Delta_0 mitsubishi)", measure_2var(delta0("mitsubishi")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
