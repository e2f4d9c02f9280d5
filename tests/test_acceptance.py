"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
runtime budget and prints a single PASS line on success; run with -v to see
one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from braidrep import (
    Mat,
    NotIrreducible,
    audit_theorem,
    burau_rep,
    burnside_dimension,
    central_scalar,
    certify_equivalence,
    character_twist,
    check_braid_relations,
    classify,
    common_eigenvector,
    corank,
    invariant_subspace_search,
    jordan_projection,
    jordan_structure,
    rank_conclusion_check,
    specialize,
    standard_rep,
    subgroup_invariance_check,
    subgroup_line_witness,
    theta_cycle_audit,
)
from braidrep.laurent import LaurentPoly
from braidrep.matrix import Domain


def test_acceptance_1_symbolic_relations_exact():
    start = time.monotonic()
    for n in range(2, 13):
        report = check_braid_relations(standard_rep(n))
        assert report.ok, "relations fail at %d strands" % n
        assert report.max_residual == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "symbolic relation suite took %.1fs" % elapsed
    print("PASS 1: defining relations hold exactly for 2..12 strands (%.1fs)"
          % elapsed)


def test_acceptance_2_corank_two_against_burau_one():
    rng = random.Random(0xA2)
    points = []
    while len(points) < 20:
        u = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        if u not in (0, 1) and u not in points:
            points.append(u)
    for n in range(3, 13):
        for u in points:
            assert corank(specialize(standard_rep(n), u)).corank == 2, \
                "standard corank at n=%d, u=%s" % (n, u)
            assert corank(specialize(burau_rep(n), u)).corank == 1, \
                "burau corank at n=%d, u=%s" % (n, u)
    print("PASS 2: corank 2 for the block family and 1 for Burau on a"
          " 10x20 grid of specializations")


def test_acceptance_3_full_span_at_generic_points():
    rng = random.Random(0xA3)
    points = []
    while len(points) < 10:
        q = rng.randint(1, 7)
        u = Fraction(rng.randint(2 * q, 9 * q), q)
        if u not in points:
            points.append(u)
    start = time.monotonic()
    for n in range(3, 8):
        for u in points:
            report = burnside_dimension(specialize(standard_rep(n), u))
            assert report.dimension == n * n, \
                "span dimension %d at n=%d, u=%s" % (report.dimension, n, u)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "exact span closures took %.1fs" % elapsed
    print("PASS 3: exact span dimension n^2 at 10 rational points in [2,9]"
          " for 3..7 strands (%.1fs)" % elapsed)


def test_acceptance_4_reducible_at_one():
    one = Fraction(1)
    for n in range(3, 8):
        rho = specialize(standard_rep(n), one)
        report = burnside_dimension(rho)
        assert report.dimension < n * n
        ce = common_eigenvector(rho)
        assert ce is not None
        ones = Mat.column_vector([Fraction(1)] * n, Domain.RATIONAL)
        assert ce.vector == ones, "common eigenvector at n=%d is not all-ones" % n
        found = invariant_subspace_search(rho, tries=30, seed=4)
        assert found.found and 0 < found.dim < n
    print("PASS 4: at u=1 the span drops below n^2, the all-ones vector is a"
          " common eigenvector and a proper invariant subspace is found")


def test_acceptance_5_central_scalar():
    t = LaurentPoly.t()
    assert central_scalar(standard_rep(2)) == t
    assert central_scalar(standard_rep(3)) == t ** 2
    assert central_scalar(standard_rep(4)) == t ** 3
    u = Fraction(7, 2)
    for n in range(3, 10):
        assert central_scalar(specialize(standard_rep(n), u)) == u ** (n - 1)
    print("PASS 5: the full twist acts by t^(m-1), symbolically for 2..4"
          " strands and specialized for 3..9")


def test_acceptance_6_theta_cycle_audit():
    rng = random.Random(0xA6)
    start = time.monotonic()
    instances = 0
    for n in range(8, 12):
        for _ in range(5):
            u = rng.uniform(1.5, 5.0)
            y = rng.choice([1, 2])
            rho = specialize(standard_rep(n), complex(u))
            if y != 1:
                rho = character_twist(rho, complex(y))
            witness = subgroup_line_witness(rho)
            assert witness is not None, "no witness at n=%d, u=%.3f, y=%d" % (n, u, y)
            audit = theta_cycle_audit(rho, witness.vector, witness.x, witness.y)
            table_max = max(c.residual for c in audit.cells
                            if c.residual is not None)
            assert table_max < 1e-8, \
                "table residual %.3g at n=%d, u=%.3f, y=%d" % (table_max, n, u, y)
            assert audit.independence >= n - 2
            conclusion = rank_conclusion_check(rho, y)
            assert conclusion.rank == 2
            instances += 1
    elapsed = time.monotonic() - start
    assert instances == 20
    assert elapsed < 60.0, "cycle audits took %.1fs" % elapsed
    print("PASS 6: 20 line-witness cycle audits on 8..11 strands, table"
          " residuals < 1e-8, independence >= m-2, rank conclusion 2 (%.1fs)"
          % elapsed)


def test_acceptance_7_classification_round_trip():
    start = time.monotonic()
    runs = [(9, 100), (10, 25), (12, 25)]
    for strands, trials in runs:
        summary = audit_theorem(strands=strands, trials=trials, seed=7,
                                tol=1e-9)
        assert summary.pass_rate == 1.0, \
            "%d/%d trials failed at %d strands" % (
                trials - summary.pass_count, trials, strands)
        assert summary.max_param_err < 1e-7
        assert summary.max_residual < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "round-trip audit took %.1fs" % elapsed
    print("PASS 7: 150 randomized round trips (9, 10 and 12 strands) recover"
          " parameters to 1e-7 with certificate residuals below 1e-8 (%.1fs)"
          % elapsed)


def test_acceptance_8_jordan_projection_size():
    rho = character_twist(specialize(standard_rep(9), Fraction(3)), Fraction(2))
    image = rho.gen(8)
    report = jordan_projection(image, Fraction(2))
    assert report.dim == 7
    commuting = [1, 2, 3, 4, 5, 6, 8]
    inv = subgroup_invariance_check(rho, commuting, list(report.basis))
    assert inv.ok
    neighbor = subgroup_invariance_check(rho, [7], list(report.basis))
    assert not neighbor.ok
    blocks = jordan_structure(image.to_complex())
    at_two = [d for d in blocks if abs(d.eigenvalue - 2) < 1e-6]
    assert len(at_two) == 1
    data = at_two[0]
    top = data.largest_block
    assert sum(1 for s in data.block_sizes if s == top) == report.dim
    print("PASS 8: the maximal-chain projection at the dominant eigenvalue"
          " has dimension 7, invariant under the commuting generators, and"
          " matches the Jordan block count")


def test_acceptance_9_negative_controls():
    with pytest.raises(NotIrreducible):
        classify(specialize(standard_rep(9), Fraction(1)))
    truth = character_twist(specialize(standard_rep(9), 2.5 + 0j), 2.0 + 0j)
    wrong_u = character_twist(specialize(standard_rep(9), 3.5 + 0j), 2.0 + 0j)
    cert1 = certify_equivalence(truth, wrong_u)
    cert2 = certify_equivalence(truth, wrong_u)
    assert cert1.verdict == "NOT_EQUIVALENT"
    assert cert1.obstruction
    assert cert1.obstruction == cert2.obstruction
    wrong_y = character_twist(specialize(standard_rep(9), 2.5 + 0j), 3.0 + 0j)
    cert3 = certify_equivalence(truth, wrong_y)
    assert cert3.verdict == "NOT_EQUIVALENT"
    print("PASS 9: the permutation point is rejected as reducible and wrong"
          " parameters draw a reproducible spectral obstruction")


def test_acceptance_10_exact_irreducible_n20(capsys):
    import json

    from braidrep.cli import main

    start = time.monotonic()
    code = main(["irreducible", "--family", "standard", "--n", "20", "--u", "23/7"])
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["irreducible"] is True
    burnside = doc["burnside"]
    assert (burnside["method"], burnside["dimension"], burnside["domain"]) == (
        "norton", 400, "rational")
    assert elapsed < 10.0, "exact irreducible at n = 20 took %.1fs" % elapsed
    with capsys.disabled():
        print("PASS 10: exact irreducible at 20 strands, u = 23/7, certified by"
              " Norton's test over Q (%.2fs)" % elapsed)
