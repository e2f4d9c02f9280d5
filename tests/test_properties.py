"""Randomized cross-module properties.

These complement the per-module suites: each test states a structural law
(relation preservation, conjugation invariance, multiplicativity, dimension
laws) and checks it over a seeded sample of random instances.
"""

import cmath
import random
from fractions import Fraction

from braidrep import (
    Mat,
    Rep,
    burnside_dimension,
    central_scalar,
    certify_equivalence,
    character_twist,
    check_braid_relations,
    classify,
    eigen_numeric,
    intertwiner_space,
    rank_conclusion_check,
    recover_parameters,
    specialize,
    standard_rep,
    subgroup_invariance_check,
    subgroup_line_witness,
    theta_cycle_audit,
)
from braidrep import analysis
from braidrep.matrix import Domain
from braidrep.reps import burau_rep


def random_rational(rng, lo=-30, hi=30, max_den=11):
    while True:
        u = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if u not in (0, 1):
            return u


def test_relations_hold_at_random_rational_points():
    rng = random.Random(0xF1)
    for _ in range(50):
        n = rng.randint(3, 8)
        u = random_rational(rng)
        report = check_braid_relations(specialize(standard_rep(n), u))
        assert report.ok and report.max_residual == 0.0, \
            "relations broke at n=%d, u=%s" % (n, u)


def test_block_family_trace_and_det_all_sizes():
    from braidrep.laurent import LaurentPoly

    t = LaurentPoly.t()
    for n in range(2, 13):
        rho = standard_rep(n)
        for i in range(1, n):
            g = rho.gen(i)
            assert g.trace() == LaurentPoly.const(n - 2)
            assert g.det() == -t


def test_corank_rank_profile_is_generator_independent():
    rng = random.Random(0xF3)
    families = [standard_rep, burau_rep]
    for _ in range(20):
        family = rng.choice(families)
        n = rng.randint(4, 9)
        rho = specialize(family(n), random_rational(rng, 2, 24, 5))
        if rng.random() < 0.5:
            rho = character_twist(rho, Fraction(rng.choice([2, 3, -2])))

        def profile(g):
            _, table = analysis._corank_of_matrix(g, 1e-9, 1e-6)
            return sorted((round(complex(v).real, 6), round(complex(v).imag, 6), r)
                          for v, r, _ in table)

        base = profile(rho.gen(1))
        for k in range(2, rho.strands):
            assert profile(rho.gen(k)) == base, \
                "rank profile differs at generator %d of %r" % (k, rho)


def test_central_scalar_multiplicative_under_twist():
    rng = random.Random(0xF4)
    for _ in range(10):
        m = rng.randint(3, 6)
        u = complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
        y = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi))
        base = specialize(standard_rep(m), u)
        d0 = central_scalar(base)
        d1 = central_scalar(character_twist(base, y))
        expected = y ** (m * (m - 1))
        assert abs(d1 / d0 - expected) <= 1e-8 * abs(expected), \
            "twist scaling off at m=%d, y=%s" % (m, y)


def test_theta_cycle_audit_with_imaginary_twist():
    rng = random.Random(0xF5)
    for m in (7, 9):
        u = rng.uniform(1.5, 5.0)
        rho = character_twist(specialize(standard_rep(m), complex(u)), 1j)
        witness = subgroup_line_witness(rho)
        assert witness is not None
        audit = theta_cycle_audit(rho, witness.vector, witness.x, witness.y)
        table_max = max(c.residual for c in audit.cells if c.residual is not None)
        assert table_max < 1e-8
        assert audit.cycle_ok
        assert audit.independence >= m - 2
        assert rank_conclusion_check(rho, 1j).rank == 2


def test_schur_dimension_law_on_irreducible_instances():
    rng = random.Random(0xF6)
    for _ in range(20):
        n = rng.randint(4, 6)
        u = complex(rng.uniform(1.5, 5.0), rng.uniform(-0.8, 0.8))
        y = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi))
        rho = character_twist(specialize(standard_rep(n), u), y)
        assert burnside_dimension(rho).full
        basis = intertwiner_space(list(rho.gens), list(rho.gens))
        assert len(basis) == 1, \
            "self-intertwiner dimension %d at n=%d" % (len(basis), n)


def test_span_closure_agrees_with_its_complexification():
    # the exact and the numeric basis run the same closure, so at a rational
    # point both must reach the same dimension in the same generation count
    for n in range(3, 7):
        for u in (Fraction(23, 7), Fraction(-5, 3), Fraction(1)):
            rho = specialize(standard_rep(n), u)
            exact = burnside_dimension(rho)
            numeric = burnside_dimension(rho.to_complex())
            assert (exact.dimension, exact.generations) == \
                (numeric.dimension, numeric.generations), "n=%d, u=%s" % (n, u)


def test_classify_scale_invariance():
    rng = random.Random(0xF7)
    rho = character_twist(specialize(standard_rep(9), 2.3 - 0.4j), 1.2 + 0.3j)
    base = classify(rho)
    assert base.certificate.verdict == "EQUIVALENT"
    for _ in range(10):
        c = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi))
        scaled = classify(character_twist(rho, c))
        assert scaled.certificate.verdict == "EQUIVALENT"
        assert abs(scaled.u - base.u) <= 1e-7 * max(1.0, abs(base.u))
        assert abs(scaled.y - c * base.y) <= 1e-7 * abs(c * base.y)


def test_not_equivalent_obstructions_recheck_independently():
    truth = character_twist(specialize(standard_rep(9), 2.5 + 0j), 2.0 + 0j)
    wrong = character_twist(specialize(standard_rep(9), 3.5 + 0j), 2.0 + 0j)
    cert = certify_equivalence(truth, wrong)
    assert cert.verdict == "NOT_EQUIVALENT"
    assert "spectra" in cert.obstruction
    # the cited spectral mismatch is visible to a direct eigenvalue pass
    sa = sorted((round(v.real, 6), round(v.imag, 6))
                for v, m in eigen_numeric(truth.gen(1)) for _ in range(m))
    sb = sorted((round(v.real, 6), round(v.imag, 6))
                for v, m in eigen_numeric(wrong.gen(1)) for _ in range(m))
    assert sa != sb

    d1 = Mat.from_rows([[2.0 + 0j, 0], [0, 3.0 + 0j]], Domain.COMPLEX)
    d2 = Mat.from_rows([[3.0 + 0j, 0], [0, 2.0 + 0j]], Domain.COMPLEX)
    a = Rep(3, [d1, d1], check=False)
    b = Rep(3, [d1, d2], check=False)
    cert = certify_equivalence(a, b)
    assert cert.verdict == "NOT_EQUIVALENT"
    assert "no nonzero intertwiner" in cert.obstruction
    # the cited empty intertwiner space rechecks directly
    assert intertwiner_space(list(a.gens), list(b.gens)) == []


def test_recovered_parameters_scale_like_the_twist():
    rng = random.Random(0xF8)
    rho = character_twist(specialize(standard_rep(9), 2.3 - 0.4j), 1.2 + 0.3j)
    base = recover_parameters(rho)
    for _ in range(10):
        c = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi))
        scaled = recover_parameters(character_twist(rho, c))
        assert abs(scaled.u - base.u) <= 1e-9 * max(1.0, abs(base.u))
        assert abs(scaled.y - c * base.y) <= 1e-9 * abs(c * base.y)


def _block_sum(a: Rep, b: Rep) -> Rep:
    zero = Fraction(0)
    gens = []
    for g, h in zip(a.gens, b.gens):
        rows = [g.row(i) + [zero] * b.degree for i in range(a.degree)]
        rows += [[zero] * a.degree + h.row(i) for i in range(b.degree)]
        gens.append(Mat.from_rows(rows, Domain.RATIONAL))
    return Rep(a.strands, gens, check=False)


def test_exact_norton_never_certifies_a_partial_span():
    # random rational points of both families, twists, direct sums and
    # integer changes of basis: the exact test may decline a full span, but
    # a certificate must always be a full span, and a witness a short one
    rng = random.Random(0xF9)
    for _ in range(60):
        n = rng.randint(3, 5)
        pick = standard_rep if rng.random() < 0.7 else burau_rep
        rho = specialize(pick(n), Fraction(1) if rng.random() < 0.15
                         else random_rational(rng, -9, 9, 4))
        if rng.random() < 0.5:
            rho = character_twist(rho, random_rational(rng, -5, 5, 3))
        if rng.random() < 0.3:
            rho = _block_sum(rho, specialize(pick(n), random_rational(rng, -9, 9, 4)))
        d = rho.degree
        while True:
            p = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                               for _ in range(d)], Domain.RATIONAL)
            if p.det() != 0:
                break
        rho = Rep(n, [p @ g @ p.inverse() for g in rho.gens], check=False)
        norton, witness = analysis._norton(rho)
        closure = burnside_dimension(rho)
        certified = isinstance(norton, analysis.BurnsideReport)
        assert not certified or closure.full, (n, pick.__name__, d)
        assert not (certified and witness is not None)
        if pick is standard_rep and d == n and closure.full:
            assert certified, "a full span of the block family declined"
        # a witness is exact, proper and invariant, so the span is short
        if witness is not None:
            assert not closure.full and 0 < witness.dim < d
            assert subgroup_invariance_check(rho, range(1, n), witness.basis).ok
