"""Tests for the structural probes."""

import cmath
import copy
import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import braidrep.classification as classify_mod
from braidrep import analysis
from braidrep.analysis import (
    BurnsideReport,
    InvariantSubspaceReport,
    burnside_dimension,
    central_scalar,
    common_eigenvector,
    corank,
    invariant_subspace_search,
    jordan_projection,
    rank_conclusion_check,
    subgroup_invariance_check,
    subgroup_line_witness,
    theta_cycle_audit,
)
from braidrep.classification import classify
from braidrep.errors import (
    BraidRepError,
    ClosureDiverged,
    ClusterAmbiguous,
    GenericDisagreement,
    IrreducibilityUndecided,
    NotEigenvalue,
    NotScalar,
    WitnessInvalid,
)
from braidrep.laurent import LaurentPoly
from braidrep.matrix import (
    Domain,
    Mat,
    _poly_mul,
    charpoly,
    eigen_numeric,
    nullspace,
    ops_for,
    poly_eval_matrix,
    rank_exact,
)
from braidrep.reps import (
    Rep,
    burau_rep,
    character_rep,
    character_twist,
    rep_from_json,
    specialize,
    standard_rep,
)
from test_classify import counted_spins, hidden_model
from test_golden import GOLDEN, HIDDEN


def direct_sum(r1: Rep, r2: Rep) -> Rep:
    assert r1.strands == r2.strands and r1.domain == r2.domain
    o = ops_for(r1.domain)
    n1, n2 = r1.degree, r2.degree
    gens = []
    for g1, g2 in zip(r1.gens, r2.gens):
        rows = []
        for i in range(n1):
            rows.append(list(g1.row(i)) + [o.zero] * n2)
        for i in range(n2):
            rows.append([o.zero] * n1 + list(g2.row(i)))
        gens.append(Mat.from_rows(rows, r1.domain))
    return Rep(r1.strands, gens, check=False)


def assert_witness(rho: Rep, witness, tol: float = 1e-9) -> None:
    """witness is a found, proper, nonzero subspace that every generator maps
    into itself: exactly for exact input, within tol / 10 for complex."""
    assert isinstance(witness, InvariantSubspaceReport) and witness.found
    assert 0 < witness.dim < rho.degree and witness.basis.cols == witness.dim
    basis = witness.basis
    if rho.domain is Domain.COMPLEX:
        assert np.linalg.matrix_rank(basis.as_numpy()) == witness.dim
    else:
        assert rank_exact(basis) == witness.dim
    check = subgroup_invariance_check(rho, range(1, rho.strands), basis, tol / 10)
    assert check.ok, check.entries


def assert_declined(rho: Rep, norton) -> None:
    """Norton's pair has no certificate, and any witness it gave holds."""
    report, witness = norton
    assert report is None
    if witness is not None:
        assert_witness(rho, witness)


# ---------------------------------------------------------------------------
# corank
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("u", [2, Fraction(7, 3)])
def test_corank_standard_specialized(n, u):
    rep = corank(specialize(standard_rep(n), u))
    assert rep.corank == 2
    assert rep.eigenvalue == Fraction(1)
    assert rep.exact


def test_corank_runs_one_elimination_per_exact_candidate(monkeypatch):
    # u = 4: the eigenvalues 1, 2 and -2 are all rational; each is verified
    # by an integer determinant of the block and ranked by one elimination
    rho = specialize(standard_rep(9), 4)
    g = rho.gen(1)
    calls = []
    rank = analysis.rank_exact
    monkeypatch.setattr(analysis, "rank_exact", lambda m: calls.append(m) or rank(m))
    monkeypatch.setattr(Mat, "det", lambda m: pytest.fail("det is not needed"))
    rep = corank(rho)
    assert len(calls) == 3
    assert sorted(rep.table) == sorted(
        (v, rank(g - Mat.identity(9, Domain.RATIONAL).scale(v)), True)
        for v in (Fraction(1), Fraction(2), Fraction(-2)))


def _whole_matrix_candidates(g):
    """_eig_candidates as it was before the block spectrum: every
    eigenvalue of the whole matrix, each candidate verified by its rank."""
    rank = analysis._ShiftRank(g)
    ranks = {}

    def singular(f):
        ranks[f] = rank.exact(f)
        return ranks[f] < g.rows

    out = []
    for c, mult in eigen_numeric(g):
        v = analysis._reconstruct_rational(c, singular)
        out.append((v, mult, True, ranks[v]) if v is not None else (c, mult, False, None))
    out.sort(key=lambda t: analysis._axis_key(complex(t[0])))
    return out


@pytest.mark.parametrize("family", [standard_rep, burau_rep])
@pytest.mark.parametrize("n", [3, 4, 12, 40, 52])
def test_block_spectrum_matches_the_whole_matrix(family, n):
    # the Laurent sample points, rational u and twists by rational y, among
    # them a y whose denominator is past the reconstruction's 10^9; s_i is
    # ranked on its leading submatrix through index i + 1, so s_{n-1} on
    # the whole matrix
    rho = family(n)
    for u in analysis._sample_points() + [Fraction(4), Fraction(-5, 3)]:
        for y in (None, Fraction(-3, 5), Fraction(1, 1000000007)):
            r = specialize(rho, u)
            if y is not None:
                r = character_twist(r, y)
            for i in sorted({1, (n + 1) // 2, n - 1}):
                g = r.gen(i)
                rank = analysis._ShiftRank(g)
                assert rank.rest == n - i - 2 if i < n - 1 else rank.rest == 0
                want = _whole_matrix_candidates(g)
                got = analysis._eig_candidates(g, 1e-6, rank)
                c = Fraction(1) if y is None else y
                home = min(range(len(want)), key=lambda i: abs(complex(want[i][0]) - c))
                assert [t for i, t in enumerate(got) if i != home] == [
                    t for i, t in enumerate(want) if i != home]
                # c's own cluster: its center sums the left-out copies of
                # c, so it need only reconstruct to the same exact value
                assert got[home][1:] == want[home][1:]
                assert got[home][1] >= n - 2
                if want[home][2]:
                    assert got[home][0] == want[home][0] == c
                else:
                    assert abs(got[home][0] - want[home][0]) <= 1e-15 * abs(c)


def test_block_determinant_decides_as_the_exact_rank():
    # split generators (c*I beside a block, c = y after a twist) and an
    # unsplit conjugate, at their eigenvalues, at c, and at random fractions
    rng = random.Random(20)
    t = Mat.from_rows([[1, 2, -1, 0], [0, 1, 3, 1], [0, 0, 1, -2], [0, 0, 0, 1]],
                      Domain.RATIONAL)
    cases = [specialize(standard_rep(6), 4).gen(1),
             specialize(burau_rep(7), Fraction(-5, 3)).gen(6),
             character_twist(specialize(standard_rep(5), Fraction(9, 4)), Fraction(2, 7)).gen(2),
             t @ specialize(standard_rep(4), 4).gen(2) @ t.inverse()]
    for g in cases:
        rank = analysis._ShiftRank(g)
        cands = [Fraction(v) for v, _, exact, _ in analysis._eig_candidates(g, 1e-6) if exact]
        cands += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(25)]
        if rank.c is not None:
            cands.append(rank.c)
        verdicts = [rank.singular(f) for f in cands]
        assert verdicts == [rank.exact(f) < g.rows for f in cands]
        assert any(verdicts) and not all(verdicts)
    assert analysis._ShiftRank(cases[-1]).rest == 0


def test_corank_standard_symbolic():
    rep = corank(standard_rep(5))
    assert rep.corank == 2
    assert "agree" in rep.notes


def test_corank_burau():
    assert corank(burau_rep(4)).corank == 1
    rep = corank(specialize(burau_rep(4), 3))
    assert rep.corank == 1
    assert rep.eigenvalue == Fraction(1)


def test_corank_character_is_zero():
    assert corank(character_rep(5, Fraction(3))).corank == 0


def test_corank_complex():
    rep = corank(specialize(standard_rep(4), 2.0 + 0.5j))
    assert rep.corank == 2
    assert abs(rep.eigenvalue - 1) < 1e-8


def test_corank_twisted():
    rep = corank(character_twist(specialize(standard_rep(5), 3), 2))
    assert rep.corank == 2
    assert rep.eigenvalue == Fraction(2)
    assert rep.exact


def test_corank_generic_disagreement():
    # degree 2 on two strands has no relations to satisfy, so any invertible
    # image works; pin the first sample point as a constant eigenvalue so the
    # specializations genuinely disagree
    pts = analysis._sample_points()
    t = LaurentPoly.t()
    g = Mat.from_rows(
        [[t, LaurentPoly.zero()], [LaurentPoly.zero(), LaurentPoly.const(pts[0])]],
        Domain.LAURENT,
    )
    rho = Rep(2, [g], check=False)
    with pytest.raises(GenericDisagreement):
        corank(rho)


def test_corank_report_json():
    d = corank(specialize(standard_rep(3), 2)).to_json_dict()
    json.dumps(d)
    assert d["corank"] == 2
    assert d["eigenvalue"] == "1"


# ---------------------------------------------------------------------------
# span of the image
# ---------------------------------------------------------------------------


def test_burnside_full_generic():
    assert burnside_dimension(specialize(standard_rep(3), 2)).dimension == 9
    rep = burnside_dimension(specialize(standard_rep(4), Fraction(5, 2)))
    assert rep.dimension == 16
    assert rep.full


@pytest.mark.parametrize("n,expected", [(3, 5), (4, 10), (5, 17)])
def test_burnside_permutation_point(n, expected):
    # at t=1 the images are permutation matrices, whose span has
    # dimension (n-1)^2 + 1
    rep = burnside_dimension(specialize(standard_rep(n), 1))
    assert rep.dimension == expected
    assert not rep.full


def test_burnside_symbolic_laurent():
    rep = burnside_dimension(standard_rep(3))
    assert rep.dimension == 9
    assert rep.full
    assert "agree" in rep.notes


def test_burnside_complex():
    rep = burnside_dimension(specialize(standard_rep(3), 1.7 + 0.3j))
    assert rep.dimension == 9
    assert rep.full


def test_burnside_direct_sum_not_full():
    rho = direct_sum(character_rep(3, Fraction(2)), specialize(standard_rep(3), 2))
    rep = burnside_dimension(rho)
    assert rep.dimension == 10  # 1 + 9, far below 16
    assert not rep.full


def test_burnside_generation_cap():
    with pytest.raises(ClosureDiverged):
        burnside_dimension(specialize(standard_rep(3), 2), max_generations=0)


def test_burnside_exact_n10_within_budget():
    start = time.monotonic()
    full = burnside_dimension(specialize(standard_rep(10), Fraction(-5, 3)))
    fixed = burnside_dimension(specialize(standard_rep(10), 1))
    elapsed = time.monotonic() - start
    assert full.dimension == 100 and full.full
    assert (fixed.dimension, fixed.generations) == (82, 9)  # (n-1)^2 + 1
    assert elapsed < 10.0, "exact spans at n = 10 took %.1fs" % elapsed


class _FractionEchelonBasis:
    # reference: the echelon basis of monic Fraction rows that the integer
    # rows replaced, fed the same spin elements
    def __init__(self):
        self.rows = []

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, x):
        vec = [Fraction(a) for a in x.ravel()]
        for pidx, row in self.rows:
            e = vec[pidx]
            if e:
                q = row[pidx]
                vec = [q * a - e * b for a, b in zip(vec, row)]
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            return False
        self.rows.append((pivot, [a / vec[pivot] for a in vec]))
        return True

    def vectors(self):
        return [row for _, row in self.rows]


def _logged(cls, bases):
    class Logged(cls):
        def __init__(self):
            super().__init__()
            self.log = []
            bases.append(self)

        def insert(self, x):
            self.log.append(super().insert(x))
            return self.log[-1]

    return Logged


def _under_both_bases(monkeypatch, probe):
    """probe() with the integer echelon basis, then with the Fraction
    reference: each run's result and the bases it built, in order."""
    runs = []
    for cls in (analysis._EchelonBasis, _FractionEchelonBasis):
        bases = []
        monkeypatch.setattr(analysis, "_EchelonBasis", _logged(cls, bases))
        runs.append((probe(), bases))
    return runs


@pytest.mark.parametrize("u", [Fraction(23, 7), Fraction(-5, 3), Fraction(37, 9), 1],
                         ids=str)
@pytest.mark.parametrize("family,n", [("standard", n) for n in range(3, 8)]
                         + [("burau", n) for n in range(3, 7)])
def test_echelon_basis_matches_fraction_rows(monkeypatch, family, n, u):
    rho = specialize({"standard": standard_rep, "burau": burau_rep}[family](n), u)
    (got, [basis]), (ref, [ref_basis]) = _under_both_bases(
        monkeypatch, lambda: burnside_dimension(rho))
    assert got == ref  # dimension and generations
    assert basis.log == ref_basis.log and basis.dim == ref_basis.dim
    assert basis.vectors() == ref_basis.vectors()
    # each stored row is primitive, with a positive pivot
    assert all(row[p] > 0 and math.gcd(*row) == 1 for p, row in basis.rows)


@pytest.mark.parametrize("n", range(3, 8))
def test_invariant_subspace_matches_fraction_rows(monkeypatch, n):
    rho = specialize(standard_rep(n), 1)
    (got, _), (ref, _) = _under_both_bases(
        monkeypatch, lambda: invariant_subspace_search(rho, tries=30, seed=4))
    assert got.found and got == ref
    assert got.basis == ref.basis


def test_echelon_basis_keeps_python_ints(monkeypatch):
    # u's numerator is beyond int64, and row entries grow past it
    rho = specialize(standard_rep(5), Fraction(10**20 + 3, 7**15))
    (got, bases), (ref, _) = _under_both_bases(monkeypatch, lambda: burnside_dimension(rho))
    assert (got.dimension, got.generations) == (ref.dimension, ref.generations) == (25, 3)
    entries = [a for b in bases for _, row in b.rows for a in row]
    assert all(type(a) is int for a in entries)
    assert max(abs(a) for a in entries) > 2**63


def _complexified_families(n):
    yield specialize(standard_rep(n), 2.2 + 0.9j), True
    yield specialize(standard_rep(n), 1.0 + 0j), False
    yield specialize(burau_rep(n), 2.2 + 0.9j), False


@pytest.mark.parametrize("n", range(3, 10))
def test_norton_agrees_with_span_closure(n):
    for rho, irreducible in _complexified_families(n):
        closure = burnside_dimension(rho)
        norton, witness = analysis._norton(rho)
        assert closure.full is irreducible and closure.method == "span"
        assert isinstance(norton, BurnsideReport) is irreducible
        if irreducible:
            assert witness is None
            assert norton.method == "norton" and norton.full
            assert norton.dimension == n * n and norton.domain is Domain.COMPLEX
            assert norton.to_json_dict()["method"] == "norton"
        else:
            assert_declined(rho, (norton, witness))


def test_norton_declines_direct_sum():
    rho = direct_sum(character_rep(3, 2 + 0j), specialize(standard_rep(3), 2.0 + 0j))
    assert_declined(rho, analysis._norton(rho))
    assert not burnside_dimension(rho).full
    for n in (5, 9):
        rho = specialize(standard_rep(n), 2.5 + 0.5j)
        for reducible in (direct_sum(rho, rho), direct_sum(character_rep(n, 2 + 0j), rho)):
            assert_declined(reducible, analysis._norton(reducible))
            assert not burnside_dimension(reducible).full


def test_norton_certifies_near_zero_u():
    # the dual spin runs under the inverse transposes; under the transposes
    # of the block family it shrinks by u per step and stalls at dimension 4
    for n in (5, 9):
        rho = specialize(standard_rep(n), 3e-3 + 0j)
        report, witness = analysis._norton(rho)
        assert report.full and witness is None


# complex u -> a rational point next to it, whose exact closure is the
# reference: generic u, real u < 0, |u| = 1 and |u| = 3e-3.  The reducible
# inputs (u = 1, Burau, direct sums) are declined in the tests above.
COMPLEX_US = {
    2.5 + 0.5j: Fraction(5, 2),
    -1.4 + 1.1j: Fraction(-7, 5),
    -0.7 + 0j: Fraction(-7, 10),
    -2.2 + 0j: Fraction(-11, 5),
    -1 + 0j: Fraction(-1),
    0.6 + 0.8j: Fraction(3, 5),
    -0.6 + 0.8j: Fraction(-3, 5),
    3e-3 + 0j: Fraction(3, 1000),
    -3e-3 + 0j: Fraction(-3, 1000),
    1.8e-3 + 2.4e-3j: Fraction(9, 5000),
}


@pytest.mark.parametrize("n", [5, 9])
def test_complex_norton_agrees_with_exact_closure_nearby(n):
    for u, near in COMPLEX_US.items():
        norton, witness = analysis._norton(specialize(standard_rep(n), u))
        reference = burnside_dimension(specialize(standard_rep(n), near))
        assert isinstance(norton, BurnsideReport) is reference.full, (n, u)
        assert norton.full and norton.domain is Domain.COMPLEX and witness is None


# u in {1, 4, 9/4, ...}: the permutation point, square u (x^2 - u splits),
# non-square u of either sign (x^2 - u is irreducible) and -1
EXACT_US = [Fraction(1), Fraction(4), Fraction(9, 4), Fraction(-1), Fraction(23, 7),
            Fraction(-5, 3), Fraction(2), Fraction(1, 4), Fraction(-4)]
FAMILIES = {"standard": standard_rep, "burau": burau_rep}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(3, 11))
def test_exact_norton_agrees_with_span_closure(family, n):
    for u in EXACT_US:
        rho = specialize(FAMILIES[family](n), u)
        closure = burnside_dimension(rho)
        norton, witness = analysis._norton(rho)
        # every full span is certified, and nothing else is
        assert isinstance(norton, BurnsideReport) is closure.full, (family, n, u)
        if closure.full:
            assert witness is None
            assert norton.method == "norton" and norton.domain is Domain.RATIONAL
            assert norton.dimension == n * n and norton.generations <= n - 1
        else:
            assert_declined(rho, (norton, witness))


def test_exact_norton_laurent_runs_at_the_sample_points():
    norton, witness = analysis._norton(standard_rep(5))
    closure = burnside_dimension(standard_rep(5))
    assert norton.method == "norton" and norton.domain is Domain.LAURENT
    assert norton.full and norton.notes == closure.notes and witness is None
    assert analysis._norton(burau_rep(5)) == (None, None)


def test_simple_part_keeps_the_factors_of_multiplicity_one():
    def mul(*ps):
        out = [Fraction(1)]
        for p in ps:
            out = _poly_mul(out, p, ops_for(Domain.RATIONAL))
        return out

    x_minus_1 = [Fraction(-1), Fraction(1)]
    x2_minus_u = [Fraction(-23, 7), Fraction(0), Fraction(1)]
    assert analysis._simple_part(mul(x_minus_1, x_minus_1, x_minus_1, x2_minus_u)) == x2_minus_u
    assert analysis._simple_part(mul(x2_minus_u, x2_minus_u)) == [1]
    assert analysis._simple_part(mul(x_minus_1, x2_minus_u)) == mul(x_minus_1, x2_minus_u)


def _spied_commutes(monkeypatch) -> list:
    verdicts = []
    commutes = analysis._commutes

    def spy(pairs, ops):
        verdicts.append(commutes(pairs, ops))
        return verdicts[-1]

    monkeypatch.setattr(analysis, "_commutes", spy)
    return verdicts


def reduced_burau_sqrt2(n: int) -> Rep:
    """The (n-1)-dimensional reduced Burau representation at t = 1 + sqrt 2,
    written over Q: irreducible over Q, but its endomorphisms include
    multiplication by sqrt 2, so it is not absolutely irreducible."""
    t, neg_t, one, zero = (1, 1), (-1, -1), (1, 0), (0, 0)
    m = n - 1
    gens = []
    for i in range(1, n):
        k = [[one if r == c else zero for c in range(m)] for r in range(m)]
        r = i - 1
        k[r][r] = neg_t
        if r > 0:
            k[r][r - 1] = t
        if r + 1 < m:
            k[r][r + 1] = one
        rows = []
        for row in k:
            rows.append([Fraction(v) for a, b in row for v in (a, 2 * b)])
            rows.append([Fraction(v) for a, b in row for v in (b, a)])
        gens.append(Mat.from_rows(rows, Domain.RATIONAL))
    return Rep(n, gens, "reduced burau at 1+sqrt2")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_norton_declines_reduced_burau_over_q_sqrt2(monkeypatch, n):
    rho = reduced_burau_sqrt2(n)  # checks the braid relations
    verdicts = _spied_commutes(monkeypatch)
    assert analysis._norton(rho) == (None, None)
    assert verdicts == [True]  # both spins were full; the centraliser declined
    assert burnside_dimension(rho).dimension == 2 * (n - 1) ** 2


def test_irreducible_rep_multiplying_by_one_plus_sqrt2(monkeypatch, capsys, tmp_path):
    from braidrep.cli import main

    m = Mat.from_rows([[Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)]], Domain.RATIONAL)
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(Rep(3, [m, m]).to_json_dict()), encoding="utf-8")
    verdicts = _spied_commutes(monkeypatch)
    assert main(["irreducible", "--rep", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert verdicts == [True]
    assert doc["irreducible"] is False
    assert (doc["burnside"]["method"], doc["burnside"]["dimension"]) == ("span", 2)


def test_exact_norton_declines_reducible_sums():
    rho = specialize(standard_rep(5), Fraction(23, 7))
    # in rho + rho every eigenvalue of s1 has multiplicity 2, so the part of
    # multiplicity one is 1; x^2 - u at s1 has nullity 4, not 2
    double = direct_sum(rho, rho)
    assert analysis._simple_part(charpoly(double.gen(1))) == [1]
    assert len(nullspace(poly_eval_matrix([Fraction(-23, 7), 0, 1], double.gen(1)))) == 4
    # a rational root of multiplicity one whose spin stays in one summand
    split = direct_sum(rho, specialize(standard_rep(5), Fraction(4)))
    for reducible in (double, split,
                      direct_sum(character_rep(5, Fraction(2)), specialize(standard_rep(5), 3))):
        assert_declined(reducible, analysis._norton(reducible))
        assert not burnside_dimension(reducible).full
    # no simple eigenvalue of multiplicity one, so no spin and no witness
    assert analysis._norton(double) == (None, None)


def test_exact_norton_needs_the_dual_spin():
    # Norton's test is about modules, so these two generators need not
    # braid: span(e1) is invariant and has no invariant complement.  The
    # kernel vector e2 of s1 - 3I spins to Q^2, but the dual one stays put,
    # and its annihilator is the witness span(e1).
    a = Mat.from_rows([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], Domain.RATIONAL)
    b = Mat.from_rows([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], Domain.RATIONAL)
    rho = Rep(3, [a, b], check=False)
    report, witness = analysis._norton(rho)
    assert report is None
    assert_witness(rho, witness)
    assert witness.basis == Mat.column_vector([Fraction(1), Fraction(0)], Domain.RATIONAL)
    assert burnside_dimension(rho).dimension == 3  # the upper triangular matrices


def test_exact_norton_certifies_a_hidden_rational_basis():
    rho = character_twist(specialize(standard_rep(6), Fraction(-5, 3)), Fraction(3, 2))
    p = Mat.from_rows([[Fraction((3 * i + 5 * j) % 7 - 3 + (i == j) * 4) for j in range(6)]
                       for i in range(6)], Domain.RATIONAL)
    hidden = Rep(6, [p @ g @ p.inverse() for g in rho.gens])
    norton, witness = analysis._norton(hidden)
    assert norton is not None and norton.full and witness is None
    assert burnside_dimension(hidden).full


def _full_theta_kernels(a: Mat):
    """_theta_kernels read on the full n x n matrix, as before blocks."""
    p = analysis._simple_part(charpoly(a))
    lam = analysis._rational_root(p)
    if lam is None and len(p) != 3:
        return p, None, [], []
    theta = a._shift(lam) if lam is not None else poly_eval_matrix(p, a)
    return p, lam, nullspace(theta), nullspace(theta.transpose())


def _permuted(g: Mat, perm: list[int]) -> Mat:
    """P g P^T for the permutation i -> perm[i]."""
    n = g.rows
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = g.at(i, j)
    return Mat.from_rows(rows, g.domain)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_theta_kernels_on_the_block_match_the_full_matrix(family):
    # three random permutations each, so the block S is not a prefix; u = 1/4
    # at n = 3 puts lam = c at the one index outside S, u = -1 in the Burau
    # family gives no simple eigenvalue, and 23/7 a quadratic p
    rng = random.Random(23)
    seen = set()
    for n in (3, 4, 5, 7, 9):
        family_n = FAMILIES[family](n)
        for u in (Fraction(23, 7), Fraction(4), Fraction(1, 4), Fraction(1), Fraction(-1),
                  Fraction(9, 4)):
            s1 = specialize(family_n, u).gen(1)
            for y in (Fraction(1), Fraction(3, 2)):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    a = _permuted(s1.scale(y), perm)
                    got = analysis._theta_kernels(a)
                    assert got == _full_theta_kernels(a), (family, n, u, y, perm)
                    seen.add((len(got[2]), got[1] == a._split()[0]))
    # (nullity, lam = c) over the cases: lines, the standard family's
    # quadratic p and lam = c, and Burau's declines at u = -1
    assert seen == ({(1, False), (2, False), (1, True)} if family == "standard"
                    else {(1, False), (0, False)})


@pytest.mark.parametrize("n", [12, 40])
def test_exact_norton_reads_s1_on_its_block(monkeypatch, n):
    sizes = []

    def sized(name, size):
        f = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a: sizes.append((name, size(a))) or f(*a))

    sized("charpoly", lambda a: a[0].rows)
    sized("nullspace", lambda a: max(a[0].rows, a[0].cols))
    sized("poly_eval_matrix", lambda a: a[1].rows)
    sized("_simple_part", lambda a: len(a[0]) - 1)
    for u, y in ((Fraction(23, 7), 1), (Fraction(4), Fraction(3, 2))):
        sizes.clear()
        rho = character_twist(specialize(standard_rep(n), u), y)
        span, witness = analysis._exact_norton(list(rho.gens))
        assert (span[0], span[2], witness) == (n * n, [n], None)
        assert {name for name, _ in sizes} >= {"charpoly", "nullspace", "_simple_part"}
        # |S| = 2, and (x - c)^2 at most beside the block's polynomial
        assert all(size <= (4 if name == "_simple_part" else 2) for name, size in sizes), sizes
    # a conjugate by a dense matrix has no split: the full matrix is read
    p = Mat.from_rows([[Fraction((3 * i + 5 * j) % 7 - 3 + (i == j) * 4) for j in range(6)]
                       for i in range(6)], Domain.RATIONAL)
    rho = specialize(standard_rep(6), Fraction(23, 7))
    sizes.clear()
    hidden = [p @ g @ p.inverse() for g in rho.gens]
    assert hidden[0]._split() is None
    assert analysis._exact_norton(hidden)[0] == (36, 4, [6])
    assert ("charpoly", 6) in sizes and ("poly_eval_matrix", 6) in sizes


def test_norton_spins_take_no_generation_cap():
    # the spins stop by dimension, so max_generations, which caps the span
    # closure, leaves Norton's test as it is: 6 generations exact at n = 7
    rho = specialize(standard_rep(7), Fraction(37, 9))
    for cap in (6, 5, 0):
        span, witness = analysis._norton(rho, max_generations=cap)
        assert (span.method, span.generations, span.full, witness) == ("norton", 6, True, None)
    # and 5 complex, under a cap of 4
    rho = specialize(standard_rep(7), 2.5 + 0.5j)
    span, witness = analysis._norton(rho, max_generations=4)
    assert (span.method, span.generations, span.full, witness) == ("norton", 5, True, None)


def _no_closure():
    raise AssertionError("the span closure ran")


@pytest.mark.parametrize("n, u, method, generations, dimension", [
    (52, Fraction(23, 7), "norton", 51, 52 * 52),
    (53, 2.5 + 0.5j, "norton", 51, 53 * 53),
    (52, 1, "split", 51, 51 * 51 + 1),
], ids=["exact_n52", "complex_n53", "split_n52"])
def test_norton_decides_past_the_default_cap_without_the_closure(n, u, method, generations,
                                                                 dimension):
    # the default cap of the irreducible command is 50; Norton's spins here
    # need 51 generations and decide without the O(n^6) closure
    rho = specialize(standard_rep(n), u)
    span, _ = analysis._irreducibility(rho, _no_closure, max_generations=50, measure=True)
    assert (span.method, span.generations, span.dimension) == (method, generations, dimension)


# -- the gate: witnesses against the exact closure ----------------------------


def _gate(rho: Rep, full: bool) -> None:
    """full is the reference closure's verdict: the exact closure, or the
    complex one where it is reliable.  Norton's test certifies exactly when
    it is full and gives an invariant witness exactly when it is short, and
    the one rule then decides without running the closure."""
    norton, found = analysis._norton(rho)
    assert isinstance(norton, BurnsideReport) is full
    assert (found is None) is full
    if not full:
        assert_witness(rho, found)
    calls = []
    report, witness = analysis._irreducibility(rho, lambda: calls.append(rho))
    assert not calls
    assert (witness is None) is full
    assert (report is not None and report.full) is full


@pytest.mark.parametrize("n", range(5, 13))
def test_witness_gate_at_u_one_twisted(n):
    exact = character_twist(specialize(standard_rep(n), 1), Fraction(2))
    reference = burnside_dimension(exact)
    assert reference.dimension == (n - 1) ** 2 + 1
    _gate(exact, False)
    _gate(character_twist(specialize(standard_rep(n), 1 + 0j), 2 + 0j), False)
    _gate(hidden_model(n, _TWIST, 1 + 0j, seed=n), False)


@pytest.mark.parametrize("n", [4, 7])
def test_witness_gate_burau_and_direct_sums(n):
    burau = specialize(burau_rep(n), Fraction(-5, 3))
    assert not burnside_dimension(burau).full
    _gate(burau, False)
    _gate(specialize(burau_rep(n), -5 / 3 + 0j), False)
    summed = direct_sum(character_rep(n, Fraction(2)), specialize(standard_rep(n), Fraction(23, 7)))
    assert not burnside_dimension(summed).full
    _gate(summed, False)
    _gate(direct_sum(character_rep(n, 2 + 0j), specialize(standard_rep(n), 23 / 7 + 0j)), False)


def reduced_burau_b3(t: complex) -> Rep:
    s1 = Mat.from_rows([[-t, 1], [0, 1]], Domain.COMPLEX)
    s2 = Mat.from_rows([[1, 0], [t, -t]], Domain.COMPLEX)
    return Rep(3, [s1, s2])


def test_witness_gate_dual_spin_of_reduced_burau_b3():
    # at t = e^(2 pi i / 3) the kernel spin of Norton's test is full (2 of 2)
    # and the dual spin stops at 1 of 2; the witness is the annihilator of
    # the dual spin under the bilinear pairing, u^T x = 0, not u^H x = 0
    rho = reduced_burau_b3(cmath.exp(2j * cmath.pi / 3))
    assert burnside_dimension(rho).dimension == 3
    _gate(rho, False)
    assert analysis._norton(rho)[1].note == "Norton's dual spin stopped at 1"
    # in the dual representation rho(s_i)^-T the two spins swap
    dual = Rep(3, [Mat.from_numpy(rho.gen_inverse(i).as_numpy().T) for i in (1, 2)])
    assert burnside_dimension(dual).dimension == 3
    _gate(dual, False)
    assert analysis._norton(dual)[1].note == "Norton's kernel spin stopped at 1"


@pytest.mark.parametrize("n,u", [(9, 3e-3 + 0j), (9, -3e-3 + 0j), (9, 1.8e-3 + 2.4e-3j),
                                 (9, 0.01 + 0j), (9, 0.05 + 0j), (12, 0.05 + 0j),
                                 (9, 0.1 + 0j)], ids=str)
def test_witness_gate_complex_near_zero_u(n, u):
    # the complex closure under-counts here; the exact one at a rational
    # point nearby is full, and Norton's test certifies with no witness
    near = COMPLEX_US.get(u) or Fraction(u.real).limit_denominator(1000)
    assert burnside_dimension(specialize(standard_rep(n), near)).full
    _gate(specialize(standard_rep(n), u), True)


@pytest.mark.parametrize("n", [5, 9])
def test_norton_drops_a_complex_witness_that_fails_the_check(n):
    # at u = 1 + 1e-9 the module is irreducible but within tol of u = 1: the
    # kernel spin stops at n - 1, and its span's invariance residual, 2e-10
    # at n = 5 and 1.1e-10 at n = 9, is above tol / 10, so it is no witness;
    # the short complex closure then stands alone, and the rule says so
    rho = specialize(standard_rep(n), 1 + 1e-9 + 0j)
    span, raw = analysis._complex_norton(rho, 1e-9, 1e-6)
    assert span is None and raw.dim == n - 1
    residuals = [r for _, _, r in subgroup_invariance_check(
        rho, range(1, n), raw.basis, 1e-9).entries]
    assert 1e-10 < max(residuals) < 1e-9
    assert analysis._norton(rho) == (None, None)
    with pytest.raises(IrreducibilityUndecided):
        analysis._irreducibility(rho, lambda: burnside_dimension(rho))


def _diagonal_rep(*values):
    # a 2-strand rep has no relations to satisfy
    return Rep(2, [Mat.from_numpy(np.diag(np.array(values, dtype=complex)))])


def test_complex_norton_declines_an_ambiguous_spectrum(monkeypatch):
    # the eigenvalues of s1 chain across the cluster tolerance 1e-6, so no
    # eigenvalue is known simple; the closure then under-counts the
    # diagonal algebra and the subspace search finds a line
    rho = _diagonal_rep(1, 1 + 0.7e-6, 1 + 1.4e-6)
    with pytest.raises(ClusterAmbiguous):
        eigen_numeric(rho.gen(1))
    spins = counted_spins(monkeypatch, analysis)
    assert analysis._complex_norton(rho, 1e-9, 1e-6) == (None, None) and not spins
    span, witness = analysis._irreducibility(rho, lambda: burnside_dimension(rho), measure=True)
    assert span.method == "span" and not span.full and witness.dim == 1


def test_complex_norton_skips_an_eigenvalue_whose_kernel_is_no_line(monkeypatch):
    # at tol 1e-3 theta = rho(s1) - lam has two singular values at most
    # tol * sigma_max for lam = 1 and 1 + 1e-4, which the cluster tolerance
    # keeps apart: both are skipped, and the spin runs from e3 at lam = 3
    span, raw = analysis._complex_norton(_diagonal_rep(1, 1 + 1e-4, 3), 1e-3, 1e-6)
    assert span is None and raw.dim == 1
    assert np.allclose(np.abs(raw.basis.as_numpy()[:, 0]), [0, 0, 1])
    # with 3 double, no simple eigenvalue is left: the test declines
    # without a spin, and the closure and the subspace search decide
    rho = _diagonal_rep(1, 1 + 1e-4, 3, 3)
    assert [m for _, m in eigen_numeric(rho.gen(1))] == [1, 1, 2]
    spins = counted_spins(monkeypatch, analysis)
    assert analysis._complex_norton(rho, 1e-3, 1e-6) == (None, None) and not spins
    span, witness = analysis._irreducibility(
        rho, lambda: burnside_dimension(rho, 1e-3), 1e-3, measure=True)
    assert span.method == "span" and not span.full and witness.dim == 1


def test_witness_gate_reduced_burau_over_q_sqrt2():
    # irreducible over Q, so there is no rational witness; Norton's test
    # declines and the exact closure decides, short of (2(n - 1))^2
    rho = reduced_burau_sqrt2(4)
    assert analysis._norton(rho) == (None, None)
    report, witness = analysis._irreducibility(rho, lambda: burnside_dimension(rho))
    assert witness is None and report.dimension == 18 and not report.full


# -- the gate: the span of a split module against the exact closure ----------


def _measured(rho: Rep):
    """The irreducible command's rule on rho: (report, witness, closure calls)."""
    calls = []

    def closure():
        calls.append(rho)
        return burnside_dimension(rho)
    report, witness = analysis._irreducibility(rho, closure, measure=True)
    return report, witness, calls


def _split_gate(rho: Rep, parts: list[int], monkeypatch=None) -> None:
    """Norton's spins split rho as parts, the last one measured on its own,
    and the split gives the closure's dimension without running it; with
    monkeypatch, no closure runs on the last part either."""
    reference = burnside_dimension(rho)
    if monkeypatch is not None:
        monkeypatch.setattr(analysis, "_image_span", None)
    report, witness, calls = _measured(rho)
    assert not calls
    assert report.method == "split"
    assert report.notes == "Norton's spins split the module as %s" % " + ".join(map(str, parts))
    assert (report.dimension, report.full) == (reference.dimension, reference.full)
    assert_witness(rho, witness)
    assert witness.dim == parts[0]


def _span_kept(rho: Rep, dimension: int) -> None:
    """The split does not apply, so the closure measures rho as before."""
    report, _, calls = _measured(rho)
    assert calls == [rho]
    assert report == burnside_dimension(rho)
    assert (report.method, report.dimension) == ("span", dimension)


@pytest.mark.parametrize("n", range(4, 10))
def test_split_gate_at_u_one(n):
    _split_gate(specialize(standard_rep(n), 1), [n - 1, 1])
    _split_gate(character_twist(specialize(standard_rep(n), 1), Fraction(2)), [n - 1, 1])


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("t", [Fraction(3), Fraction(-7, 2), Fraction(-5, 3)], ids=str)
def test_split_gate_burau(n, t):
    _split_gate(specialize(burau_rep(n), t), [n - 1, 1])


@pytest.mark.parametrize("n", [4, 7])
def test_split_gate_certifies_the_complement(monkeypatch, n):
    # s1 has the simple eigenvalue 2 on the character only: the kernel spin
    # is that line, and Norton's test certifies tau_n(23/7) on A on its own
    rho = direct_sum(character_rep(n, Fraction(2)), specialize(standard_rep(n), Fraction(23, 7)))
    assert burnside_dimension(rho).dimension == 1 + n * n
    _split_gate(rho, [1, n], monkeypatch)


def _b2(*rows) -> Rep:
    return Rep(2, [Mat.from_rows([[Fraction(x) for x in row] for row in rows],
                                 Domain.RATIONAL)])


@pytest.mark.parametrize("rho,parts,degree", [
    # 2I on A, whose span is 1, not (dim A)^2
    (_b2([1, 0, 0], [0, 2, 0], [0, 0, 2]), [1, 2], 2),
    # every eigenvalue simple: the complement splits again, twice
    (_b2([1, 0, 0], [0, 2, 0], [0, 0, 3]), [1, 1, 1], 3),
    # a Jordan block of 2 on A: Norton's test has no simple eigenvalue there
    (_b2([2, 1, 0], [0, 2, 0], [0, 0, 1]), [1, 2], 3),
    # the companion matrix of (x - 1)(x^2 - 2): x^2 - 2 on A, irreducible
    # over Q but not absolutely, so Norton's test declines there
    (_b2([0, 0, -2], [1, 0, 2], [0, 1, 1]), [1, 2], 3),
    # triangular, similar to diag(3, -1, 3, 5): 5, then -1, splits off
    (_b2([3, 0, 0, 0], [1, -1, 0, 0], [0, 0, 3, 0], [2, 0, 1, 5]), [1, 1, 2], 3),
], ids=["two-on-A", "all-simple", "jordan", "companion", "triangular"])
def test_split_gate_one_matrix(rho, parts, degree):
    # the span of one matrix's powers is the degree of its minimal polynomial
    assert len(analysis._monic(analysis.minpoly(rho.gen(1)))) - 1 == degree
    assert burnside_dimension(rho).dimension == degree
    _split_gate(rho, parts)


def test_split_needs_s_and_a_to_meet_in_zero():
    # the kernel vector e2 of s1 - 3I spins to S = span(e1, e2), and the dual
    # spin of e2 to span(e2, e3), whose annihilator is A = span(e1): the
    # dimensions add up to 3, but S contains A, so there is no split; the
    # image is the upper triangular matrices
    a = Mat.from_rows([[Fraction(x) for x in row] for row in ([1, 0, 0], [0, 3, 0], [0, 0, 2])],
                      Domain.RATIONAL)
    b = Mat.from_rows([[Fraction(x) for x in row] for row in ([1, 1, 0], [0, 1, 1], [0, 0, 1])],
                      Domain.RATIONAL)
    rho = Rep(3, [a, b], check=False)
    report, witness = analysis._norton(rho)
    assert report is None
    assert_witness(rho, witness)
    _span_kept(rho, 6)


def test_split_leaves_the_other_inputs_to_the_closure():
    rho = specialize(standard_rep(5), Fraction(23, 7))
    _span_kept(direct_sum(rho, rho), 25)  # no simple eigenvalue
    # the dual-only witness of test_exact_norton_needs_the_dual_spin: the
    # kernel spin is full, so S = V meets A
    a = Mat.from_rows([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]], Domain.RATIONAL)
    b = Mat.from_rows([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], Domain.RATIONAL)
    _span_kept(Rep(3, [a, b], check=False), 3)
    _span_kept(reduced_burau_sqrt2(4), 18)  # the 1 + sqrt 2 pair
    # complex input keeps the closure beside a verified witness
    report, witness, calls = _measured(reduced_burau_b3(cmath.exp(2j * cmath.pi / 3)))
    assert calls and witness is not None and (report.method, report.dimension) == ("span", 3)


def _loop_gram_schmidt(vectors, tol):
    # reference: one vector at a time, re-orthogonalized once
    basis, kept = [], []
    for v in vectors:
        w = v / np.linalg.norm(v)
        for _ in range(2):
            for b in basis:
                w = w - (b.conj() @ w) * b
        n1 = np.linalg.norm(w)
        kept.append(n1 > max(tol, 1e-12))
        if kept[-1]:
            basis.append(w / n1)
    return kept, basis


def test_ortho_basis_matches_loop_gram_schmidt():
    rng = np.random.default_rng(0x0B)
    dim = 16
    vectors = []
    for k in range(40):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if k % 3 == 2:  # a combination of earlier vectors, so dependent
            v = sum(c * u for c, u in zip(rng.standard_normal(k), vectors))
        vectors.append(v)
    basis = analysis._OrthoBasis(1e-9)
    kept = [basis.insert(v) for v in vectors]
    ref_kept, ref = _loop_gram_schmidt(vectors, 1e-9)
    assert kept == ref_kept and basis.dim == len(ref) == dim
    q, r = np.array(basis.vectors()).T, np.array(ref).T
    assert np.allclose(q.conj().T @ q, np.eye(dim), atol=1e-12)
    assert np.allclose(q @ q.conj().T, r @ r.conj().T, atol=1e-12)


def test_ortho_basis_refuses_non_finite_vectors():
    # a NaN norm passed "n1 <= tol" and filled columns past the last one
    basis = analysis._OrthoBasis(1e-9)
    assert basis.insert(np.array([1.0, 0.0]))
    for v in ([np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan], [0.0, 0.0]):
        assert not basis.insert(np.array(v))
    assert basis.dim == 1 and basis.insert(np.array([1.0, 1.0])) and basis.dim == 2


def _loop_spin(seeds, ops, basis, limit, max_generations=None):
    # reference: the complex spin with every product inserted in turn
    frontier = [x for x in map(analysis._scaled, seeds) if basis.insert(x)]
    generations = 0
    while frontier and basis.dim < limit:
        generations += 1
        if max_generations is not None and generations > max_generations:
            raise ClosureDiverged("past %d generations" % max_generations)
        nxt = []
        for w in frontier:
            for g in ops:
                x = analysis._scaled(g @ w)
                if basis.insert(x):
                    nxt.append(x)
            if basis.dim >= limit:
                break
        frontier = nxt
    return generations


def _complex_spins(monkeypatch, run):
    """The complex spins run() starts, as (seeds, ops, tol, limit,
    max_generations)."""
    calls, spin = [], analysis._spin

    def record(seeds, ops, basis, limit, max_generations=None):
        if isinstance(basis, analysis._OrthoBasis):
            calls.append((seeds, ops, basis.tol, limit, max_generations))
        return spin(seeds, ops, basis, limit, max_generations)

    monkeypatch.setattr(analysis, "_spin", record)
    monkeypatch.setattr(classify_mod, "_spin", record)
    try:
        run()
    except BraidRepError:
        pass
    monkeypatch.undo()
    return calls


def _spin_outcome(spin, call):
    seeds, ops, tol, limit, max_generations = call
    basis = analysis._OrthoBasis(tol)
    try:
        generations = spin(seeds, ops, basis, limit, max_generations)
    except ClosureDiverged:
        generations = "diverged"
    return generations, basis.dim, basis.q[:, :basis.dim].view(float)


_TWIST = 1.3 + 0.4j


def _spin_cases():
    # the complex 0.003 <= |u| <= 0.1 points put decisions near tol
    cases = []
    for n in range(4, 10):
        for u in (0.003, 0.1, 1.0):
            cases.append(("burnside", "standard", n, u))
    for u in (-0.003, 0.0018 + 0.0024j, 0.01, -0.05 + 0.02j):
        cases.append(("burnside", "standard", 9, u))
    cases.append(("diverged", "standard", 9, 0.05 + 0.02j))
    for family, n, u in (("standard", 5, 0.003), ("standard", 9, -1.4 + 1.1j),
                         ("standard", 12, 0.7 - 0.2j), ("burau", 7, 2.5)):
        cases.append(("norton", family, n, u))
    cases += [("burnside", "burau", 7, 2.5), ("search", "burau", 6, 2.5),
              ("search", "standard", 6, 1.0)]
    cases += [("graph", 9, 3.0, 4.0), ("graph", 9, 1.0, 1.0)]
    # the graph spin's limit n + 1 is below its ambient 2n: at n = 7 it
    # ends a generation before its last frontier elements, and at n = 5 the
    # element that passes it still inserts its later products
    cases += [("graph", 7, 3.0, 4.0), ("graph", 5, 3.0, 4.0)]
    cases += [("classify", name) for name in sorted(HIDDEN)]
    cases += [("classify", 9, _TWIST, 0.05 + 0.02j, 21), ("classify", 12, _TWIST, -2.5, 22)]
    return cases


def _spin_run(case, tol):
    kind = case[0]
    if kind == "classify":
        if isinstance(case[1], str):
            data = json.loads((GOLDEN / (case[1] + ".rep.json")).read_text(encoding="utf-8"))
            rho = rep_from_json(data)
        else:
            rho = hidden_model(*case[1:])
        return lambda: classify(rho, tol)
    if kind == "graph":  # spins that decline: different u, a reducible pair
        a, b = (character_twist(specialize(standard_rep(case[1]), complex(u)), 2.0)
                for u in case[2:])
        return lambda: classify_mod._graph_intertwiner(
            a, b, eigen_numeric(a.gen(1)), eigen_numeric(b.gen(1)), tol)
    _, family, n, u = case
    rho = character_twist(specialize(
        (standard_rep if family == "standard" else burau_rep)(n), complex(u)), _TWIST)
    return {
        "burnside": lambda: burnside_dimension(rho, tol),
        "diverged": lambda: burnside_dimension(rho, tol, max_generations=3),
        "norton": lambda: analysis._norton(rho, tol),
        "search": lambda: invariant_subspace_search(rho, tries=3, tol=tol),
    }[kind]


@pytest.mark.parametrize("case", _spin_cases(), ids=str)
def test_screened_spin_matches_loop_spin(monkeypatch, case):
    for tol in (1e-12, 1e-9, 1e-6):
        calls = _complex_spins(monkeypatch, _spin_run(case, tol))
        assert calls
        for call in calls:
            ref = _spin_outcome(_loop_spin, call)
            seeds, ops = call[:2]
            # one byte: each block holds a single frontier element; the
            # third size holds two, so that a block boundary and the limit
            # stop fall inside one generation of the graph spin at n = 7
            for block in (analysis._SCREEN_BYTES, 1, 2 * 16 * seeds[0].size * len(ops)):
                with monkeypatch.context() as mp:
                    mp.setattr(analysis, "_SCREEN_BYTES", block)
                    got = _spin_outcome(analysis._spin, call)
                assert got[:2] == ref[:2], (tol, block)
                assert np.array_equal(got[2], ref[2]), (tol, block)


def _checked_generation(stops):
    """analysis._generation that also visits the products of the pairs the
    screen leaves out: insert must reject each on a copy of the basis as it
    stands there.  The pairs must come strictly ascending.  stops gets the
    frontier elements left when the limit ends a generation."""
    def generation(frontier, ops, basis, limit, pairs):
        pairs, nxt = iter(pairs), []
        ahead = next(pairs, None)
        for k, i in product(range(len(frontier)), range(len(ops))):
            if i == 0 and basis.dim >= limit:
                stops.append(len(frontier) - k)
                break
            x = analysis._scaled(ops[i] @ frontier[k])
            if (k, i) != ahead:
                assert not copy.deepcopy(basis).insert(x), (k, i)
                continue
            if basis.insert(x):
                nxt.append(x)
            last, ahead = ahead, next(pairs, None)
            assert ahead is None or ahead > last
        else:
            assert ahead is None
        return nxt
    return generation


@pytest.mark.parametrize("case", [c for c in _spin_cases()
                                  if c[0] in ("norton", "graph", "burnside")], ids=str)
def test_screen_leaves_out_only_rejected_products(monkeypatch, case):
    for tol in (1e-12, 1e-9, 1e-6):
        stops = []
        monkeypatch.setattr(analysis, "_generation", _checked_generation(stops))
        try:
            _spin_run(case, tol)()
        except BraidRepError:
            pass
        monkeypatch.undo()
        if case == ("graph", 7, 3.0, 4.0):  # n + 1 after the first of four frontier elements
            assert stops


def test_screened_spin_at_a_tiny_twist(monkeypatch):
    # the kernel spin's operators have entries near y = 1e-170 and the dual
    # spin's near 1/y, so the squared entries of their products underflow or
    # overflow: those products are scaled before the screen normalises them,
    # and the screen still skips products in both spins
    import warnings

    rho = character_twist(specialize(standard_rep(9), 2 + 0j), 1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        calls = _complex_spins(monkeypatch, lambda: analysis._norton(rho, 1e-9))
        assert len(calls) == 2
        inserts, insert = [], analysis._OrthoBasis.insert

        def counted(basis, v):
            inserts[-1] += 1
            return insert(basis, v)

        monkeypatch.setattr(analysis._OrthoBasis, "insert", counted)
        for call in calls:
            outcomes = []
            for spin in (_loop_spin, analysis._spin):
                inserts.append(0)
                outcomes.append(_spin_outcome(spin, call))
            (ref, got) = outcomes
            assert got[:2] == ref[:2] and np.array_equal(got[2], ref[2])
        # loop, then screened: the kernel spin, then the dual spin
        assert inserts[1] < inserts[0] and inserts[3] < inserts[2]


# ---------------------------------------------------------------------------
# common eigenvectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_common_eigenvector_permutation_point(n):
    rep = common_eigenvector(specialize(standard_rep(n), 1))
    assert rep is not None
    assert rep.exact
    assert rep.vector == Mat.column_vector([Fraction(1)] * n, Domain.RATIONAL)
    assert rep.eigenvalues == tuple([Fraction(1)] * (n - 1))


def test_common_eigenvector_burau_fixed_line():
    rep = common_eigenvector(specialize(burau_rep(4), Fraction(5, 2)))
    assert rep is not None and rep.exact
    assert rep.vector == Mat.column_vector([Fraction(1)] * 4, Domain.RATIONAL)
    assert rep.eigenvalues == (Fraction(1),) * 3


def test_common_eigenvector_twisted_permutation():
    rep = common_eigenvector(character_twist(specialize(standard_rep(3), 1), 3))
    assert rep is not None and rep.exact
    assert rep.eigenvalues == (Fraction(3), Fraction(3))


def test_common_eigenvector_none_when_irreducible():
    assert common_eigenvector(specialize(standard_rep(4), 3)) is None


def test_common_eigenvector_complex():
    rho = specialize(burau_rep(3), 0.8 + 0.1j)
    rep = common_eigenvector(rho)
    assert rep is not None and not rep.exact
    v = rep.vector
    for i in range(1, 3):
        assert ((rho.gen(i) @ v) - v.scale(rep.eigenvalues[i - 1])).max_norm() < 1e-8


def test_common_eigenvector_laurent_rejected():
    with pytest.raises(ValueError):
        common_eigenvector(standard_rep(3))


# ---------------------------------------------------------------------------
# boundary-pinned witness
# ---------------------------------------------------------------------------


def test_witness_standard5_at4():
    w = subgroup_line_witness(specialize(standard_rep(5), 4))
    assert w is not None
    assert w.exact
    assert w.y == Fraction(1)
    assert w.x == Fraction(2)  # the positive square root wins the ordering
    expect = Mat.column_vector(
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2)],
        Domain.RATIONAL)
    assert w.vector == expect
    assert w.max_residual == 0.0


def test_witness_irrational_root_goes_numeric():
    w = subgroup_line_witness(specialize(standard_rep(5), 3))
    assert w is not None
    assert not w.exact
    assert abs(w.y - 1) < 1e-8
    assert abs(w.x - math.sqrt(3)) < 1e-8
    assert w.max_residual < 1e-8


def test_witness_twisted_exact():
    w = subgroup_line_witness(character_twist(specialize(standard_rep(6), 4), 2))
    assert w is not None and w.exact
    assert w.y == Fraction(2)
    assert w.x == Fraction(4)
    expect = Mat.column_vector(
        [Fraction(0)] * 4 + [Fraction(1), Fraction(1, 2)], Domain.RATIONAL)
    assert w.vector == expect


def test_witness_complex():
    u = 2.3 - 0.7j
    w = subgroup_line_witness(specialize(standard_rep(6), u))
    assert w is not None
    assert abs(w.y - 1) < 1e-8
    root = complex(u) ** 0.5
    assert abs(w.x - root) < 1e-7
    assert w.max_residual < 1e-8


def test_witness_usage_errors():
    with pytest.raises(ValueError):
        subgroup_line_witness(specialize(standard_rep(3), 2))
    with pytest.raises(ValueError):
        subgroup_line_witness(standard_rep(5))


def test_witness_json():
    w = subgroup_line_witness(specialize(standard_rep(5), 4))
    d = w.to_json_dict()
    json.dumps(d)
    assert d["x"] == "2" and d["y"] == "1"


# ---------------------------------------------------------------------------
# central scalar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_scalar_symbolic(n):
    assert central_scalar(standard_rep(n)) == LaurentPoly.term(1, n - 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_central_scalar_specialized(n):
    u = Fraction(7, 2)
    assert central_scalar(specialize(standard_rep(n), u)) == u ** (n - 1)


def test_central_scalar_twisted():
    # twisting by y scales every one of the m(m-1) letters in theta^m
    rho = character_twist(specialize(standard_rep(3), 2), 2)
    assert central_scalar(rho) == Fraction(2) ** 6 * Fraction(2) ** 2  # 256
    rho = character_twist(specialize(standard_rep(4), 2), 3)
    assert central_scalar(rho) == Fraction(3) ** 12 * Fraction(2) ** 3


def test_central_scalar_complex():
    u = 1.3 + 0.4j
    d = central_scalar(specialize(standard_rep(4), u))
    assert abs(d - u ** 3) / abs(u ** 3) < 1e-10


def test_central_scalar_not_scalar():
    rho = direct_sum(character_rep(4, Fraction(2)), specialize(standard_rep(4), 2))
    with pytest.raises(NotScalar):
        central_scalar(rho)


# ---------------------------------------------------------------------------
# theta cycle audit
# ---------------------------------------------------------------------------


def test_cycle_audit_exact_standard5():
    rho = specialize(standard_rep(5), 4)
    w = subgroup_line_witness(rho)
    audit = theta_cycle_audit(rho, w.vector, w.x, w.y)
    assert audit.exact
    assert audit.cycle_ok
    assert all(r == 0.0 for r in audit.cycle_residuals)
    assert audit.table_ok
    assert audit.d_scalar == Fraction(4) ** 4
    assert audit.degeneracies == ()
    assert audit.independence >= 3
    assert audit.independence_ok
    kinds = {(c.i, c.k): c.kind for c in audit.cells}
    assert kinds[(2, 2)] == "x"
    assert kinds[(1, 3)] == "y"
    assert kinds[(1, 2)] == "free"
    assert kinds[(4, 5)] == "free"


def test_cycle_audit_numeric():
    u = 2.3 - 0.7j
    rho = specialize(standard_rep(9), u)
    w = subgroup_line_witness(rho)
    audit = theta_cycle_audit(rho, w.vector, w.x, w.y)
    assert not audit.exact
    assert audit.cycle_ok
    assert audit.table_ok
    assert audit.independence >= 7
    assert audit.degeneracies == ()
    d = complex(u) ** 8
    assert abs(audit.d_scalar - d) / abs(d) < 1e-8


def test_cycle_audit_degenerate_at_permutation_point():
    rho = specialize(standard_rep(5), 1)
    ones = Mat.column_vector([Fraction(1)] * 5, Domain.RATIONAL)
    audit = theta_cycle_audit(rho, ones, Fraction(1), Fraction(1))
    assert audit.exact
    assert audit.table_ok
    assert len(audit.degeneracies) == 8  # every free cell fires
    assert audit.independence == 1
    assert not audit.independence_ok
    assert audit.d_scalar == Fraction(1)


def test_cycle_audit_rejects_bad_witness():
    rho = specialize(standard_rep(5), 4)
    e1 = Mat.column_vector([Fraction(1)] + [Fraction(0)] * 4, Domain.RATIONAL)
    with pytest.raises(WitnessInvalid):
        theta_cycle_audit(rho, e1, Fraction(2), Fraction(1))


def test_cycle_audit_json():
    rho = specialize(standard_rep(5), 4)
    w = subgroup_line_witness(rho)
    d = theta_cycle_audit(rho, w.vector, w.x, w.y).to_json_dict()
    json.dumps(d)
    assert d["cycle_ok"] is True
    assert d["independence"] >= 3


def test_rank_conclusion():
    rho = specialize(standard_rep(5), 4)
    rep = rank_conclusion_check(rho, 1)
    assert rep.rank == 2 and rep.ok and rep.exact
    rep = rank_conclusion_check(rho, 2)
    assert rep.rank == 4 and not rep.ok
    repc = rank_conclusion_check(rho.to_complex(), 1.0)
    assert repc.rank == 2 and not repc.exact


# ---------------------------------------------------------------------------
# jordan projections
# ---------------------------------------------------------------------------


def test_jordan_projection_twisted_standard9():
    rho = character_twist(specialize(standard_rep(9), 3), 2)
    m8 = rho.gen(8)
    jp = jordan_projection(m8, 2)
    assert jp.dim == 7
    assert jp.minimal_polynomial == (Fraction(24), Fraction(-12), Fraction(-2), Fraction(1))
    for b in jp.basis:
        assert m8 @ b == b.scale(Fraction(2))
    inv = subgroup_invariance_check(rho, [1, 2, 3, 4, 5, 6, 8], list(jp.basis))
    assert inv.ok
    inv_bad = subgroup_invariance_check(rho, [7], list(jp.basis))
    assert not inv_bad.ok


def test_jordan_projection_diagonalizable_exact():
    m = Mat.from_rows([[Fraction(3), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(5)]],
                      Domain.RATIONAL)
    jp = jordan_projection(m, 3)
    assert jp.dim == 2
    jp5 = jordan_projection(m, 5)
    assert jp5.dim == 1


def test_jordan_projection_nilpotent_block():
    rows = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 5],
    ]
    m = Mat.from_rows([[Fraction(x) for x in r] for r in rows], Domain.RATIONAL)
    assert jordan_projection(m, 0).dim == 1  # one maximal nilpotent block
    assert jordan_projection(m, 5).dim == 1
    mc = m.to_complex()
    assert jordan_projection(mc, 0.0).dim == 1
    assert jordan_projection(mc, 5.0).dim == 1


def test_jordan_projection_not_eigenvalue():
    m = Mat.from_rows([[Fraction(1), 0], [0, Fraction(2)]], Domain.RATIONAL)
    with pytest.raises(NotEigenvalue):
        jordan_projection(m, 7)
    with pytest.raises(NotEigenvalue):
        jordan_projection(m.to_complex(), 7.0)


@pytest.mark.parametrize("lam", [math.nan, complex(math.nan, 0), complex(0, math.nan)])
def test_jordan_projection_nan_is_not_eigenvalue(lam):
    # abs(near - nan) > thr is False, so a test written that way let NaN
    # through and returned the projection for the nearest cluster
    m = specialize(standard_rep(5), 2 + 0j).gen(1)
    with pytest.raises(NotEigenvalue):
        jordan_projection(m, lam)


def test_invariance_check_numeric():
    ones = Mat.column_vector([1.0 + 0j] * 4, Domain.COMPLEX)
    e1 = Mat.column_vector([1.0 + 0j, 0, 0, 0], Domain.COMPLEX)
    # the all-ones line is invariant at the permutation point and only there
    perm = specialize(standard_rep(4), 1.0)
    assert subgroup_invariance_check(perm, [1, 2, 3], ones).ok
    assert not subgroup_invariance_check(perm, [1], e1).ok
    generic = specialize(standard_rep(4), 2.0)
    assert not subgroup_invariance_check(generic, [1, 2, 3], ones).ok


def test_invariance_check_numeric_dependent_column():
    # the sum-zero subspace at the permutation point, spanned by
    # v_k = e_k - e_{k+1} with v_1 given twice
    rho = specialize(standard_rep(5), 1 + 0j)
    diffs = [Mat.column_vector([1.0 if i == k else -1.0 if i == k + 1 else 0.0
                                for i in range(5)], Domain.COMPLEX) for k in range(4)]
    rep = subgroup_invariance_check(rho, [1, 2, 3, 4], [diffs[0]] + diffs)
    assert rep.ok
    assert all(r <= 1e-12 for _, _, r in rep.entries)


# ---------------------------------------------------------------------------
# invariant subspace search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_invariant_subspace_permutation_point(n):
    rho = specialize(standard_rep(n), 1)
    rep = invariant_subspace_search(rho, seed=1)
    assert rep.found
    assert 0 < rep.dim < n
    assert subgroup_invariance_check(rho, range(1, n), rep.basis).ok


def test_invariant_subspace_none_when_irreducible():
    rep = invariant_subspace_search(specialize(standard_rep(3), 2), tries=10, seed=1)
    assert not rep.found
    assert rep.basis is None


def test_invariant_subspace_numeric():
    rho = specialize(standard_rep(4), 1.0)
    rep = invariant_subspace_search(rho, seed=3)
    assert rep.found
    assert 0 < rep.dim < 4
    assert subgroup_invariance_check(rho, [1, 2, 3], rep.basis).ok


@pytest.mark.parametrize("n,u", [(9, 3e-3 + 0j), (12, 0.05 + 0j)], ids=str)
def test_invariant_subspace_search_verifies_complex_spans(n, u):
    # irreducible input on which numeric spins stop short: unchecked, the
    # search reported dimension 5 (invariance residual 3e-3) at n = 9 and
    # dimension 10 (residual 0.05) at n = 12; each span now fails the check
    rho = specialize(standard_rep(n), u)
    report, witness = analysis._norton(rho)
    assert report.full and witness is None
    rep = invariant_subspace_search(rho)
    assert not rep.found and rep.trials == 30


def test_invariant_subspace_laurent_rejected():
    with pytest.raises(ValueError):
        invariant_subspace_search(standard_rep(3))


def test_invariant_subspace_deterministic():
    rho = specialize(standard_rep(4), 1)
    a = invariant_subspace_search(rho, seed=7)
    b = invariant_subspace_search(rho, seed=7)
    assert a.found == b.found and a.dim == b.dim
    assert a.basis == b.basis
