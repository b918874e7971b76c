"""Seeded inputs for the hderlab benchmark workloads.

A workload is a list of CLI operations ("ops") over plain JSON problem
files.  ``build(workload, seed, workdir)`` writes the files and returns the
ops; the same seed writes the same bytes.  Sizes (dimension, rank, degree,
order) are fixed per op slot, so every seed asks for about the same amount
of work; the seed picks elements, derivation coefficients and gauges.

Every op carries the exit code its input was built to produce: generated
pairs and gauge-trivial deformations must succeed, and the blocked and bad
fixtures must exit 1.

This module imports ``hderlab``; the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hderlab import samples
from hderlab.algebras import Algebra
from hderlab.deform import GaugeMap, apply_gauge, trivial_deformation
from hderlab.exactlin import Matrix
from hderlab.freecons import induced_tensor_hder
from hderlab.hder import HigherDerivation, ordinary_hder, power_commutator_hder
from hderlab.serialize import (
    algebra_to_json, deformation_to_json, hder_to_json, matrix_to_json,
)

WORKLOADS = ("small_batch", "cohomology_scaled", "deform_session")
FIXTURES = Path(__file__).with_name("fixtures.json")

# The command list of tests/test_cli.py, pinned here so that a change to the
# tests cannot change the benchmark.
CLI_COMMANDS = (
    (("check", "dual_pair.json"), 0),
    (("check", "split_pair.json"), 0),
    (("cohomology", "split_pair.json", "--degree", "2"), 0),
    (("cohomology", "split_pair.json", "--degree", "1", "--coefficients", "trivial"), 0),
    (("cohomology", "nil_central.json", "--degree", "2", "--coefficients", "file"), 0),
    (("classify-central", "nil_central.json"), 0),
    (("extend-abelian", "dual_cocycle.json"), 0),
    (("extend-abelian", "dual_bad_cocycle.json"), 1),
    (("cocycle-from-section", "dual_cocycle.json"), 0),
    (("deform-verify", "dual_deform.json"), 0),
    (("deform-verify", "dual_deform_bad.json"), 1),
    (("deform-obstruct", "dual_deform.json"), 0),
    (("deform-obstruct", "nil_deform_blocked.json"), 1),
    (("deform-extend", "dual_deform.json", "--to", "4"), 0),
    (("deform-extend", "nil_deform_blocked.json"), 1),
    (("deform-trivialize", "dual_deform.json"), 0),
    (("deform-trivialize", "nil_deform_blocked.json", "--to", "1"), 1),
    (("free-tensor", "tensor_line.json"), 0),
    (("free-tensor", "tensor_line.json", "--degree", "3"), 0),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv[1]`` is a file name inside the work directory."""

    argv: tuple[str, ...]
    expect: int

    @property
    def name(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Problem:
    """A generated problem file and the sizes it was built with."""

    file: str
    doc: dict
    sizes: dict


def _nonzero(rng: random.Random, shape: random.Random | None = None) -> int:
    """One of -2, -1, 1, 2; with ``shape``, the seed picks only the sign."""
    if shape is None:
        return rng.choice((-2, -1, 1, 2))
    return rng.choice((-1, 1)) * shape.choice((1, 2))


def _poly_derivation(n: int, coeffs: list[int]) -> Matrix:
    """D on Q[x]/(x^n) with D(x) = sum_i coeffs[i-1] x^i, extended by Leibniz."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n):  # D(x^j) = j x^{j-1} D(x)
        for i, c in enumerate(coeffs, start=1):
            if j - 1 + i < n:
                rows[j - 1 + i][j] += j * c
    return Matrix.from_rows(rows)


def _pair(kind: str, rank: int, rng: random.Random,
          shape: random.Random | None = None) -> tuple[Algebra, HigherDerivation]:
    """A stock sample algebra with a seeded higher derivation of the given rank.

    ``shape``, if given, picks the magnitudes of the ``tp`` coefficients.
    """
    if kind == "dual":
        return samples.dual_numbers(), ordinary_hder(
            samples.dual_numbers(), _poly_derivation(2, [_nonzero(rng)]), rank)
    if kind.startswith("tp"):
        n = int(kind[2:])
        alg = samples.truncated_polynomials(n)
        d1 = _poly_derivation(n, [_nonzero(rng, shape) for _ in range(n - 1)])
        return alg, ordinary_hder(alg, d1, rank)
    if kind.startswith("zero"):
        n = int(kind[4:])
        alg = samples.zero_algebra(n)
        d1 = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        return alg, ordinary_hder(alg, d1, rank)
    if kind == "fields":
        alg = samples.product_of_fields()
        return alg, power_commutator_hder(alg, (_nonzero(rng), _nonzero(rng)), rank)
    if kind == "m2":
        # Unital basis (I, E12, E21, E22); a seeded non-central element.
        alg = samples.matrix_units_with_unit()
        x = (rng.randint(-2, 2), _nonzero(rng), _nonzero(rng), _nonzero(rng))
        return alg, power_commutator_hder(alg, x, rank)
    raise ValueError(f"unknown pair kind {kind!r}")


def _pair_problem(file: str, kind: str, rank: int, rng: random.Random) -> Problem:
    alg, hd = _pair(kind, rank, rng)
    doc = {"algebra": algebra_to_json(alg), "hder": hder_to_json(hd)}
    return Problem(file, doc, {"algebra": kind, "dim": alg.dim, "rank": rank})


def _tensor_problem(file: str, vdim: int, degree: int, rank: int,
                    rng: random.Random) -> Problem:
    thetas = tuple(Matrix.from_rows([[rng.randint(-2, 2) for _ in range(vdim)]
                                     for _ in range(vdim)]) for _ in range(rank))
    tta, hd = induced_tensor_hder(vdim, degree, thetas)
    # The induced pair rides along so that `check` can verify the problem.
    doc = {"algebra": algebra_to_json(tta.algebra), "hder": hder_to_json(hd),
           "tensor": {"vdim": vdim, "degree": degree,
                      "thetas": [matrix_to_json(t) for t in thetas]}}
    return Problem(file, doc, {"vdim": vdim, "degree": degree, "rank": rank,
                               "dim": tta.algebra.dim})


def _deform_problem(file: str, kind: str, rank: int, order: int,
                    rng: random.Random) -> Problem:
    """A gauge-trivial deformation: the trivial family conjugated by a seeded gauge.

    Each gauge term has ``d`` entries of +-1.  The seed picks the signs of
    the gauge entries and of the derivation's coefficients; the file name
    fixes where the entries sit and how large the coefficients are.  Those
    set most of the cost of the deform commands, so fixing them keeps the
    work of a slot about the same from seed to seed.
    """
    alg, hd = _pair(kind, rank, rng, random.Random(f"{file}:shape"))
    d = alg.dim
    phis = [Matrix.identity(d)]
    for k in range(1, order + 1):
        cells = set(random.Random(f"{file}:gauge{k}").sample(range(d * d), d))
        phis.append(Matrix.from_rows([[rng.choice((-1, 1)) if i * d + j in cells else 0
                                       for j in range(d)] for i in range(d)]))
    defm = apply_gauge(trivial_deformation(alg, hd, order), GaugeMap(order, tuple(phis)))
    doc = {"algebra": algebra_to_json(alg), "hder": hder_to_json(hd),
           "deformation": deformation_to_json(defm)}
    return Problem(file, doc, {"algebra": kind, "dim": d, "rank": rank, "order": order})


def _small_batch(rng: random.Random):
    fixture_ops = [Op(argv, expect) for argv, expect in CLI_COMMANDS]
    problems, ops = [], []
    for i, (kind, rank) in enumerate((("dual", 2), ("dual", 3), ("tp3", 1), ("tp3", 2),
                                      ("zero2", 2), ("zero3", 1), ("fields", 2))):
        p = _pair_problem(f"pair{i}.json", kind, rank, rng)
        problems.append(p)
        ops.append(Op(("check", p.file), 0))
        ops.append(Op(("cohomology", p.file, "--degree", "1"), 0))
        if p.sizes["dim"] <= 2:  # adjoint degree 2 at dim 3 takes 0.1 s or more
            ops.append(Op(("cohomology", p.file, "--degree", "2"), 0))
        ops.append(Op(("cohomology", p.file, "--degree", "2", "--coefficients", "trivial"), 0))
        ops.append(Op(("classify-central", p.file), 0))
    for i, (vdim, degree, rank) in enumerate(((1, 3, 2), (1, 5, 2), (2, 1, 2))):
        p = _tensor_problem(f"tensor{i}.json", vdim, degree, rank, rng)
        problems.append(p)
        ops.append(Op(("free-tensor", p.file), 0))
        if vdim == 1:
            ops.append(Op(("free-tensor", p.file, "--degree", str(degree - 1)), 0))
    return problems, fixture_ops + ops


def _cohomology_scaled(rng: random.Random):
    # Latencies fall in size classes: classify-central (tens of ms), then
    # degree-2 cohomology on tp3 at ranks 1, 2, 3 (about 0.1, 0.25 and
    # 0.5 s at reference speed), then the dim-4 pairs (1-2 s), then degree
    # 3 (about 25 s).  The class sizes 6, 12, 20, 12, 4 and 1 put the median
    # (28th of 55) in the middle of the rank-2 class and op_tail_ms (the
    # 11th largest) in the middle of the rank-3 class, away from the gaps
    # between classes.
    problems, ops = [], []
    # The degree-3 case the ROADMAP profiled: M2(Q) on (E11, E12, E21, E22)
    # with the power-commutator sequence of E12, rank 1.  Its 1280x320
    # differential makes it the op that elimination work shows on most.  It
    # runs first, on a fresh heap, so the run's peak RSS is its own and
    # does not depend on what the seeded ops left behind.
    m2 = samples.matrix_algebra_2x2()
    hd = power_commutator_hder(m2, samples.matrix_unit_vector(1, 2), 1)
    p = Problem("m2_e12.json", {"algebra": algebra_to_json(m2), "hder": hder_to_json(hd)},
                {"algebra": "m2_e12", "dim": 4, "rank": 1})
    problems.append(p)
    ops.append(Op(("cohomology", p.file, "--degree", "3"), 0))

    def half(dim4):
        ranks = (1, 2, 3, 2) * 4 + (1, 2, 3) * 2
        classified = 0
        for kind, rank in [("tp3", r) for r in ranks] + dim4:
            p = _pair_problem(f"pair{len(problems) - 1}.json", kind, rank, rng)
            problems.append(p)
            ops.append(Op(("cohomology", p.file, "--degree", "2"), 0))
            if kind == "tp3" and rank < 3 and classified < 3:
                ops.append(Op(("classify-central", p.file), 0))
                classified += 1

    half([("tp4", 1), ("m2", 1)])
    half([("tp4", 2), ("m2", 1)])
    return problems, ops


def _deform_session(rng: random.Random):
    # Nine rank-2 order-4 deformations of tp3 ("A") make three classes that
    # repeat: deform-trivialize (about 0.15 s at reference speed), the
    # median of the 56 ops, sits in the middle of its nine; deform-extend
    # (about 0.5 s) holds op_tail_ms, which only the two tp4 ops per pass
    # exceed.  The other slots and the fixtures fall below or above them.
    problems, ops = [], []
    a = ("tp3", 2, 4)
    slots = [("tp3", 1, 3), a, a, ("tp3", 1, 5), a, ("tp4", 1, 3), a, a,
             ("tp3", 1, 3), a, a, a, a]
    for i, (kind, rank, order) in enumerate(slots):
        p = _deform_problem(f"deform{i}.json", kind, rank, order, rng)
        problems.append(p)
        ops.append(Op(("deform-verify", p.file), 0))
        ops.append(Op(("deform-obstruct", p.file), 0))
        # The default cap bounds the target order at 6.
        ops.append(Op(("deform-extend", p.file, "--to", str(min(order + 2, 6))), 0))
        ops.append(Op(("deform-trivialize", p.file), 0))
    # Re-verifies every order at every step; 6 is the highest order the cap allows.
    ops.append(Op(("deform-extend", "dual_deform.json", "--to", "6"), 0))
    ops.append(Op(("deform-obstruct", "nil_deform_blocked.json"), 1))
    ops.append(Op(("deform-extend", "nil_deform_blocked.json"), 1))
    ops.append(Op(("deform-trivialize", "nil_deform_blocked.json", "--to", "1"), 1))
    return problems, ops


_GENERATORS = {"small_batch": _small_batch, "cohomology_scaled": _cohomology_scaled,
             "deform_session": _deform_session}


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Problem], dict]:
    """Write the workload's problem files into ``workdir``.

    Returns the ops, the generated problems (the ones to validate) and a
    map from every file an op reads to the sha256 of its bytes.
    """
    rng = random.Random(f"{workload}:{seed}")
    problems, ops = _GENERATORS[workload](rng)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {p.file: _dump(p.doc) for p in problems}
    fixtures = json.loads(FIXTURES.read_text())
    for op in ops:
        if op.argv[1] not in files:
            files[op.argv[1]] = _dump(fixtures[op.argv[1]])
    digests = {}
    for name, data in sorted(files.items()):
        (workdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return ops, problems, digests


def op_list_digest(ops: list[Op], file_digests: dict) -> str:
    """sha256 over the op list and the bytes of every file it reads."""
    doc = [[list(op.argv), op.expect, file_digests[op.argv[1]]] for op in ops]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()
