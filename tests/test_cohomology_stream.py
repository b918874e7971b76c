"""The rank-bound stop of ``cohomology`` and the streamed cohomology report,
each against the route that takes neither: an unbounded ``kernel_basis``
plus ``rank``, and the json module on the plain payload."""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hderlab as H
from hderlab import cli, cochain, exactlin, samples
from hderlab.serialize import cohomology_to_json, parse_algebra, parse_hder

from helpers import (
    coefficient_fixtures, kernels_by_route, oracle_report_text, plain_cohomology_payload,
    rand_matrix, rescaled_pair,
)

CASES = [case[1:] for case in coefficient_fixtures()]
BETTI0 = CASES[4]  # split/zero1/adjoint: betti 0 in degrees 1 to 3
BETTI_POSITIVE = CASES[0]  # dual/ordinary2/adjoint: betti 1, 2, 1


def _seeded_case(seed: int):
    """A fixture pair in a random rescaled basis, with its adjoint module or
    a trivial one with random module maps."""
    rng = random.Random(seed)
    alg, hd, _ = CASES[rng.randrange(len(CASES))]
    scales = tuple(Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5)))
                   for _ in range(alg.dim))
    alg, hd = rescaled_pair(alg, hd, scales)
    if rng.random() < 0.5:
        return alg, hd, H.adjoint_bimodule(alg, hd)
    mdim = rng.randint(1, 2)
    return alg, hd, H.trivial_bimodule(alg, mdim, tuple(rand_matrix(rng, mdim)
                                                        for _ in range(hd.rank)))


def _full_route(alg, hd, mod, degree):
    """(dim_cochains, dim_cocycles, dim_coboundaries, betti, cocycle_basis)
    with every row of both differentials eliminated."""
    cocycles = exactlin.kernel_basis(H.differential_matrix(alg, mod, hd, degree))
    coboundaries = 0
    if degree > 1:
        coboundaries = exactlin.rank(H.differential_matrix(alg, mod, hd, degree - 1))
    basis = tuple(H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, degree, v)
                  for v in cocycles)
    return (H.cochain_dim(alg.dim, mod.mdim, hd.rank, degree), len(cocycles),
            coboundaries, len(cocycles) - coboundaries, basis)


def _emitted(rep, as_json: bool) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit("cohomology", True, cohomology_to_json(rep), [], as_json, 0)
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(st.sampled_from(CASES), st.integers(0, 2 ** 16).map(_seeded_case)),
       degree=st.integers(1, 3))
@example(case=BETTI0, degree=3)
@example(case=BETTI_POSITIVE, degree=2)
def test_rank_bound_stop_and_streamed_report_match_the_full_route(case, degree):
    alg, hd, mod = case
    rep = H.cohomology(alg, mod, hd, degree)
    assert (rep.dim_cochains, rep.dim_cocycles, rep.dim_coboundaries, rep.betti,
            rep.cocycle_basis) == _full_route(alg, hd, mod, degree)
    payload = plain_cohomology_payload(rep)
    report = {"ok": True, "command": "cohomology", "results": payload,
              "violations": [], "timing_ms": 0}
    assert _emitted(rep, True) == oracle_report_text(report) + "\n"
    assert _emitted(rep, False) == \
        f"command: cohomology\nok: yes\n{oracle_report_text(payload)}\ntiming_ms: 0\n"


def test_examples_cover_betti_zero_and_positive():
    alg, hd, mod = BETTI0
    assert H.cohomology(alg, mod, hd, 3).betti == 0
    alg, hd, mod = BETTI_POSITIVE
    assert H.cohomology(alg, mod, hd, 2).betti > 0


def test_rank_bound_applies_only_to_a_checked_complex(monkeypatch):
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.adjoint_bimodule(alg, hd)
    true = cochain.differential_matrix
    # a 16x4 "d_1" with d_2 o d_1 != 0: the unit vectors e_0..e_3 of C^2
    wrong = H.Matrix(16, 4, tuple(Fraction(int(i == j)) for i in range(16) for j in range(4)))
    assert not (true(alg, mod, hd, 2) * wrong).is_zero()
    monkeypatch.setattr(cochain, "differential_matrix",
                        lambda a, m, h, n: wrong if n == 1 else true(a, m, h, n))
    # neither the rank that makes the bound nor a kernel by either route
    # runs before the check
    calls = []
    rank, null_space = cochain.rank, cochain.null_space
    monkeypatch.setattr(cochain, "rank", lambda m: calls.append("rank") or rank(m))
    monkeypatch.setattr(cochain, "null_space",
                        lambda m, bound=None: calls.append(bound) or null_space(m, bound))
    with pytest.raises(H.BrokenComplexError):
        H.cohomology(alg, mod, hd, 2)
    assert calls == []


def _kernel_routes(alg, hd, mod, degree):
    """Both routes of ``null_space`` on d_n, with the bound ``cohomology``
    proves for n > 1."""
    m = H.differential_matrix(alg, mod, hd, degree)
    bound = None if degree == 1 else m.cols - exactlin.rank(H.differential_matrix(alg, mod, hd, degree - 1))
    return kernels_by_route(m, bound)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, 2 ** 16).map(_seeded_case), degree=st.integers(1, 3))
def test_kernel_routes_agree_on_seeded_pairs(case, degree):
    factor, rows = _kernel_routes(*case, degree)
    assert factor == rows


@pytest.mark.parametrize("name, betti", [("tp4_euler_rank2.json", 3), ("m2_e12_rank2.json", 0)])
def test_kernel_routes_agree_at_degree_three_of_the_frontier_fixtures(name, betti):
    doc = json.loads((Path(__file__).parent / "fixtures" / name).read_text())
    alg = parse_algebra(doc["algebra"])
    hd = parse_hder(doc["hder"], alg.dim)
    mod = H.adjoint_bimodule(alg, hd)
    factor, rows = _kernel_routes(alg, hd, mod, 3)
    assert factor == rows
    assert len(factor[0]) - exactlin.rank(H.differential_matrix(alg, mod, hd, 2)) == betti


def test_report_compares_and_hashes_on_its_public_values():
    alg, hd, mod = BETTI_POSITIVE
    rep = H.cohomology(alg, mod, hd, 2)
    again = H.cohomology(alg, mod, hd, 2)
    assert rep == again and hash(rep) == hash(again)
    assert rep.cocycle_basis is rep.cocycle_basis  # built once
    assert rep != H.cohomology(alg, mod, hd, 1)
    assert {rep: 1}[again] == 1
