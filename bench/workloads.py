"""The benchmark's workloads: seeded inputs, jobs, and the check of each output.

Jobs call lapgraph through module attributes (``spanning.complexity``, not a
name bound at import time), so a traced run sees the wrapped functions.  A
job's ``run`` is the timed call; its ``check`` runs untimed afterwards.

The seed orders the jobs and relabels every graph (edge order, edge
directions, rotation starts); it never changes the mathematics of a job.  Every exact output is therefore the same for all seeds and is pinned
in ``pins.json``, and a run's cost does not drift with the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
from lapgraph import graphio, graphs, linalg, spanning, verify
from lapgraph.fields import ZZ
from lapgraph.laurent import LaurentPoly, parse_poly
from lapgraph.planar import PlaneGraph

mahler = importlib.import_module("lapgraph.mahler")  # lapgraph.mahler is also a function

WORKLOADS = ("verify-corpus", "tree-growth", "mahler-ladder")
PINS_PATH = Path(__file__).with_name("pins.json")

# Seed of the random quotients in verify-corpus.  The run's --seed relabels
# them; drawing fresh graphs per seed would let the pass time swing by +-12%
# with the sizes drawn, more than the bounds allow.
CORPUS_SEED = 0

# verify checks that replay theorems must PASS on every valid input.
# growth-vs-mahler gates convergence at the largest cover, which --max 8
# keeps small, so FAIL is a legitimate answer there.
HEURISTIC_CHECKS = frozenset({"growth-vs-mahler"})

# A Mahler value further than this (relative) from its reference is wrong;
# closer but outside its own error_estimate, the job fails with a correct value.
WRONG_VALUE_REL = 1e-6

LOG_2_PLUS_SQRT3 = 1.3169578969248167086  # ladder: m(Delta_0) = log(2 + sqrt 3)
FOUR_LOG_2 = 2.7725887222397812377  # girder
TWO_LOG_PHI = 0.96242365011920689500  # circulant(1,2): tau = n F_n^2
FOUR_CATALAN_OVER_PI = 1.1662436161232751206  # square grid
LEHMER = 0.16235761200773813943  # log of Lehmer's number
# Computed with mpmath, independently of lapgraph.mahler, by references.py.
# m(f(x, x^s)) for f = 4 - x - 1/x - y - 1/y: 60-digit roots (mpmath.polyroots).
SUBSTITUTED_GRID = {
    8: 1.1500596448090800759,
    16: 1.1621638201682342849,
    24: 1.1644276911782260383,
    32: 1.1652216338851918420,
}
# Mitsubishi m(Delta_0): tanh-sinh quadrature over fibers, 40 digits.
MITSUBISHI = 3.4070892053253075713


@dataclass(frozen=True)
class Outcome:
    """What a job's check found."""

    payload: bytes = b""  # canonical bytes of the exact output; hashed and pinned
    problem: str | None = None  # why the job failed its check
    wrong: bool = False  # the output is wrong, not only its error bar
    closed_form_err: float | None = None  # |Mahler value - closed form|


@dataclass(frozen=True)
class Job:
    name: str
    input: object  # what lapgraph receives; the seed changes only this
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def build(workload: str, seed: int, root: Path) -> list[Job]:
    """Parse graphs/*.lapgraph, generate the seeded inputs, precompute, and
    return the workload's jobs in seeded order."""
    rng = random.Random(seed)
    files = {
        p.stem: graphio.parse_graph_file(p.read_text(encoding="utf-8"))
        for p in sorted((root / "graphs").glob("*.lapgraph"))
    }
    jobs = {
        "verify-corpus": _verify_jobs,
        "tree-growth": _tree_jobs,
        "mahler-ladder": _mahler_jobs,
    }[workload](files, rng)
    rng.shuffle(jobs)
    return jobs


# -- encodings -------------------------------------------------------------------
# Integers are written with hex(): str() refuses numbers above 4300 digits.


def _poly_bytes(f: LaurentPoly) -> bytes:
    return ";".join(f"{e}:{hex(c)}" for e, c in sorted(f.coeffs.items())).encode()


def _voltage_graph(obj) -> graphs.VoltageGraph:
    return obj.graph if isinstance(obj, PlaneGraph) else obj


# -- verify-corpus ---------------------------------------------------------------


def _verify_jobs(files, rng: random.Random) -> list[Job]:
    crng = random.Random(CORPUS_SEED)
    inputs = [(f"file/{name}", obj) for name, obj in files.items()]
    inputs += [(f"rank1/{i:02d}", corpus.random_voltage_graph(crng, 1, 6, 10)) for i in range(60)]
    inputs += [(f"rank2/{i:02d}", corpus.random_voltage_graph(crng, 2, 4, 7)) for i in range(12)]
    inputs += [(f"annulus/{i:02d}", corpus.random_annulus_quotient(crng, 8)) for i in range(12)]
    inputs += [(f"plane/{i:02d}", corpus.random_plane_graph(crng, 10)) for i in range(12)]
    jobs = []
    for name, obj in inputs:
        o = corpus.relabel(obj, rng)
        # The CLI's `verify --max 8 --fibers 64`.
        jobs.append(Job(f"verify/{name}", o, lambda o=o: verify.run_verify(o, max_cover=8, fibers=64), _check_verify))
    return jobs


def _check_verify(results) -> Outcome:
    payload = "\n".join(f"{r.name}|{r.status}|{r.detail}" for r in results).encode()
    bad = [
        r.name
        for r in results
        if r.status not in ("PASS", "FAIL", "SKIP")
        or (r.status == "FAIL" and r.name not in HEURISTIC_CHECKS)
    ]
    if bad:
        return Outcome(payload, f"identity checks failed: {', '.join(bad)}", wrong=True)
    return Outcome(payload)


# -- tree-growth -----------------------------------------------------------------


def _prism_trees(n: int) -> int:
    """Spanning trees of C_n x K2 (the ladder's n-fold cover): n L_n / 2 - n,
    with L_n = (2 + sqrt 3)^n + (2 - sqrt 3)^n."""
    a, b = 2, 4
    for _ in range(n):
        a, b = b, 4 * b - a
    return n * a // 2 - n


def _circulant12_trees(n: int) -> int:
    """Spanning trees of the circulant C_n(1, 2): n F_n^2."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return n * a * a


CLOSED_FORM_TREES = {"ladder": _prism_trees, "circulant12": _circulant12_trees}


def _tree_jobs(files, rng: random.Random) -> list[Job]:
    q = {name: corpus.relabel(_voltage_graph(files[name]), rng) for name in
         ("ladder", "girder", "circulant12", "mitsubishi", "grid")}
    jobs = []

    def cover(job, name, lam, expected=None):
        jobs.append(Job(job, (q[name], lam), lambda: spanning.complexity(graphs.cover_graph(q[name], lam)),
                        _count_check(expected)))

    def restriction(job, name, rect):
        jobs.append(Job(job, (q[name], rect), lambda: spanning.tree_count(graphs.restriction_subgraph(q[name], rect)),
                        _count_check(None)))

    for name in ("ladder", "girder", "circulant12"):
        closed = CLOSED_FORM_TREES.get(name)
        for n in (8, 16, 32, 64, 96, 128):
            cover(f"cover/{name}/{n}", name, graphs.SublatticeSpec.cyclic(n), closed(n) if closed else None)
    for name in ("mitsubishi", "grid"):
        for n in (4, 6, 8):
            cover(f"torus/{name}/{n}x{n}", name, graphs.SublatticeSpec.lattice2(((n, 0), (0, n))))
    for n in (8, 12, 16):
        restriction(f"restriction/grid/{n}x{n}", "grid", graphs.RectangleSpec((n, n)))
    for n in (64, 128):
        restriction(f"restriction/ladder/{n}", "ladder", graphs.RectangleSpec((n,)))
    return jobs


def _count_check(expected: int | None) -> Callable[[int], Outcome]:
    def check(t: int) -> Outcome:
        if expected is not None and t != expected:
            return Outcome(hex(t).encode(), "differs from the closed form", wrong=True)
        return Outcome(hex(t).encode())

    return check


# -- mahler-ladder ---------------------------------------------------------------


def _mahler_jobs(files, rng: random.Random) -> list[Job]:
    # The polynomials are used exactly as listed (the seed only orders the
    # jobs): Mahler errors depend on the concrete coefficients, and a seeded
    # variant of (x^2 - 4x + 1)^8 can hide its missed error bound.
    # Delta_0 of each quotient is set-up work, so the timed jobs are pure Mahler.
    d0 = {
        name: linalg.elementary_divisor(graphs.voltage_laplacian(_voltage_graph(files[name])), 0, ZZ)
        for name in ("ladder", "girder", "circulant12", "grid", "mitsubishi")
    }
    jobs = []

    def one(name, f, ref, closed_form, payload=b""):
        jobs.append(Job(name, f, lambda: mahler.mahler_1var(f), _mahler_check(ref, closed_form, payload)))

    grid = parse_poly("4 - x - x^-1 - y - y^-1", 2)
    for s, ref in SUBSTITUTED_GRID.items():
        one(f"mahler1/f(x,x^{s})", grid.substitute_power(s), ref, False)
    for k in (1, 2, 4, 6, 8):
        one(f"mahler1/(x^2-4x+1)^{k}", parse_poly("x^2 - 4*x + 1", 1) ** k, k * LOG_2_PLUS_SQRT3, True)
    one("mahler1/lehmer", parse_poly("x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1", 1), LEHMER, True)
    for name, ref in (("ladder", LOG_2_PLUS_SQRT3), ("girder", FOUR_LOG_2), ("circulant12", TWO_LOG_PHI)):
        one(f"mahler1/delta0/{name}", d0[name], ref, True, _poly_bytes(d0[name]))
    for name, ref in (("grid", FOUR_CATALAN_OVER_PI), ("mitsubishi", MITSUBISHI)):
        for fibers in (1024, 4096):
            jobs.append(Job(
                f"mahler2/delta0/{name}/{fibers}",
                (d0[name], fibers),
                lambda f=d0[name], fibers=fibers: mahler.mahler_2var(f, fibers),
                _mahler_check(ref, name == "grid", _poly_bytes(d0[name])),
            ))
    return jobs


def _mahler_check(ref: float, closed_form: bool, payload: bytes):
    def check(res) -> Outcome:
        err = abs(res.value - ref)
        problem = None
        if not err <= res.error_estimate:
            problem = f"|m - reference| = {err:.3e} exceeds its error_estimate {res.error_estimate:.1e}"
        return Outcome(
            payload,
            problem,
            wrong=not err <= WRONG_VALUE_REL * max(1.0, abs(ref)),
            closed_form_err=err if closed_form else None,
        )

    return check
