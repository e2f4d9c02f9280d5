"""Linear algebra kernels: exact elimination, numeric rank, spectra, intertwiners."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.errors import ClusterAmbiguous, NotInvertible, SchemaError
from braidrep.laurent import LaurentPoly
from braidrep import matrix
from braidrep.matrix import (
    Domain,
    Mat,
    charpoly,
    eigen_numeric,
    intertwiner_space,
    jordan_structure,
    mat_from_json,
    minpoly,
    nullspace,
    ops_for,
    poly_divmod,
    poly_eval_matrix,
    poly_eval_scalar,
    rank_exact,
    rank_numeric,
)

T = LaurentPoly.t()


def sigma1_standard3() -> Mat:
    # 3x3: the 2x2 block [[0,t],[1,0]] in rows/cols 1,2 and identity elsewhere
    return Mat.from_rows(
        [[0, T, 0], [1, 0, 0], [0, 0, 1]],
        Domain.LAURENT,
    )


def rand_rat_mat(rng, n, lo=-5, hi=5):
    return Mat(n, n, Domain.RATIONAL,
               [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n * n)])


# -- construction and arithmetic --------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        Mat(2, 2, Domain.RATIONAL, [1, 2, 3])
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2], [3]], Domain.RATIONAL)


def test_matmul_identity_and_assoc():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_rat_mat(rng, 3)
        b = rand_rat_mat(rng, 3)
        c = rand_rat_mat(rng, 3)
        i3 = Mat.identity(3, Domain.RATIONAL)
        assert a @ i3 == a
        assert i3 @ a == a
        assert (a @ b) @ c == a @ (b @ c)
        assert (a + b) @ c == a @ c + b @ c


def test_complex_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ma, mb = Mat.from_numpy(a), Mat.from_numpy(b)
    assert np.allclose((ma @ mb).as_numpy(), a @ b)


def test_complex_storage_is_read_only():
    src = np.eye(2)
    m = Mat.from_numpy(src)
    src[0, 0] = 7.0  # the Mat keeps its own copy
    a = m.as_numpy()
    assert not a.flags.writeable
    assert np.shares_memory(a, m.as_numpy())
    with pytest.raises(ValueError):
        a[0, 0] = 5
    ones = Mat.from_numpy(np.ones((2, 1)))
    assert (m @ ones).at(0, 0) == 1
    assert m.to_json_dict()["entries"][0] == [1.0, 0.0]
    assert m == Mat.identity(2, Domain.COMPLEX)


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _entries(m: Mat) -> list:
    return [x for row in m.row_lists() for x in row]


def test_complex_entrywise_ops_match_python_complex():
    # reference: Python complex arithmetic entry by entry
    rng = random.Random(17)
    special = [0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200]

    def draw():
        if rng.random() < 0.4:
            return complex(rng.choice(special), rng.choice(special))
        return complex(rng.uniform(-3, 3) * 10 ** rng.choice([-200, 0, 200]),
                       rng.uniform(-3, 3) * 10 ** rng.choice([-200, 0, 200]))

    for _ in range(20):
        xs = [draw() for _ in range(12)]
        ys = [draw() for _ in range(12)]
        a, b = Mat(3, 4, Domain.COMPLEX, xs), Mat(3, 4, Domain.COMPLEX, ys)
        assert _bits(_entries(a + b)) == _bits([x + y for x, y in zip(xs, ys)])
        assert _bits(_entries(a - b)) == _bits([x - y for x, y in zip(xs, ys)])
        assert _bits(_entries(-a)) == _bits([-x for x in xs])
        for s in [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), complex(-0.0, 2.0),
                  complex(0.0, -0.0), 2.5, -0.0, -3, Fraction(1, 3)]:
            assert _bits(_entries(a.scale(s))) == _bits([complex(s) * x for x in xs])
        assert a.max_norm().hex() == max(abs(x) for x in xs).hex()


def test_pow_and_transpose():
    m = Mat.from_rows([[1, 1], [0, 1]], Domain.RATIONAL)
    assert (m ** 3).at(0, 1) == 3
    assert m.transpose().at(1, 0) == 1
    assert m ** 0 == Mat.identity(2, Domain.RATIONAL)


def test_laurent_block_inverse():
    b = Mat.from_rows([[0, T], [1, 0]], Domain.LAURENT)
    binv = b.inverse()
    assert b @ binv == Mat.identity(2, Domain.LAURENT)
    assert binv.at(1, 0) == LaurentPoly.term(1, -1)


def test_inverse_errors():
    with pytest.raises(NotInvertible):
        Mat.from_rows([[1, 1], [1, 1]], Domain.RATIONAL).inverse()
    # determinant t+1 is not a unit in the Laurent ring
    with pytest.raises(NotInvertible):
        Mat.from_rows([[T + 1]], Domain.LAURENT).inverse()
    with pytest.raises(NotInvertible):
        Mat.from_numpy(np.array([[1.0, 1.0], [1.0, 1.0]])).inverse()
    # 1/1e-320 overflows to inf, so the residual is NaN and must not pass
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotInvertible):
        Mat.from_numpy(np.diag([1e-320 + 0j, 1])).inverse()


def test_negative_power_uses_inverse():
    b = Mat.from_rows([[0, T], [1, 0]], Domain.LAURENT)
    assert b ** -2 == (b.inverse()) ** 2


def test_det_exact():
    m = Mat.from_rows([[1, 2], [3, 4]], Domain.RATIONAL)
    assert m.det() == -2
    b = Mat.from_rows([[0, T], [1, 0]], Domain.LAURENT)
    assert b.det() == -T
    s = Mat.from_rows([[1, 1], [1, 1]], Domain.RATIONAL)
    assert s.det() == 0


def test_det_random_against_numpy():
    rng = random.Random(11)
    for _ in range(25):
        m = rand_rat_mat(rng, 4)
        d = m.det()
        nd = np.linalg.det(m.to_complex().as_numpy())
        assert abs(complex(d) - nd) < 1e-6 * max(1.0, abs(nd))


# -- rank ---------------------------------------------------------------------


def test_rank_ones_matrix():
    m = Mat.from_rows([[1, 1], [1, 1]], Domain.RATIONAL)
    assert rank_exact(m) == 1
    assert rank_numeric(m.to_complex()) == 1


def test_rank_standard_generator_minus_identity():
    m = sigma1_standard3() - Mat.identity(3, Domain.LAURENT)
    assert rank_exact(m) == 2


def test_rank_exact_matches_sympy_over_laurent():
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(17)
    for _ in range(30):
        rows = []
        sym_rows = []
        for i in range(3):
            row, sym_row = [], []
            for j in range(3):
                c = {k: rng.randint(-2, 2) for k in range(rng.randint(0, 2) + 1)}
                p = LaurentPoly(c)
                row.append(p)
                sym_row.append(sum(v * t**k for k, v in c.items()))
            rows.append(row)
            sym_rows.append(sym_row)
        m = Mat.from_rows(rows, Domain.LAURENT)
        assert rank_exact(m) == sympy.Matrix(sym_rows).rank()


def test_rank_exact_agrees_with_numeric_specialization():
    # exact rank over the fraction field equals the numeric rank at a random
    # specialization, with resampling to dodge unlucky points
    rng = random.Random(20260819)
    for _ in range(100):
        a = Mat(4, 2, Domain.LAURENT,
                [LaurentPoly({rng.randint(0, 2): rng.randint(-3, 3)}) for _ in range(8)])
        b = Mat(2, 4, Domain.LAURENT,
                [LaurentPoly({rng.randint(0, 2): rng.randint(-3, 3)}) for _ in range(8)])
        m = a @ b  # rank at most 2 by construction
        re = rank_exact(m)
        disagreements = 0
        while True:
            u = Fraction(rng.randint(2, 10), rng.randint(1, 3))
            rn = rank_numeric(m.eval_at(u).to_complex())
            if rn == re:
                break
            disagreements += 1
            assert disagreements < 3, "numeric rank disagreed at 3 consecutive points"


def test_rank_numeric_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))
    m = Mat.from_numpy(a)
    r = rank_numeric(m)
    assert r == 2
    assert rank_numeric(Mat.from_numpy(a * 1e6)) == r
    assert rank_numeric(Mat.from_numpy(a * 1e-6)) == r


# -- nullspace ----------------------------------------------------------------


def test_nullspace_ones():
    m = Mat.from_rows([[1, 1], [1, 1]], Domain.RATIONAL)
    basis = nullspace(m)
    assert len(basis) == 1
    assert basis[0].col(0) == [Fraction(1), Fraction(-1)]


def test_singular_rank_counts_values_strictly_above_the_cutoff():
    rank = matrix._singular_rank
    assert rank(np.array([2.0, 2e-9, 1e-9]), 1e-9) == 1
    assert rank(np.array([2.0, 3e-9, 1e-9]), 1e-9) == 2
    # none when there are no values, or sigma_max is 0 or NaN
    assert rank(np.array([]), 1e-9) == 0
    assert rank(np.zeros(3), 1e-9) == 0
    assert rank(np.array([np.nan, 1.0]), 1e-9) == 0
    zero = Mat.from_numpy(np.zeros((3, 3)))
    assert matrix.column_space(zero) == [] and len(nullspace(zero)) == 3


@pytest.mark.parametrize("u", [Fraction(-7, 3), 2.5 + 0.5j], ids=str)
def test_eval_at_evaluates_each_distinct_entry_once(monkeypatch, u):
    m = Mat.from_rows([[0, T, 1 - T], [T, 0, 1], [0, LaurentPoly.t(), 1 - T]],
                      Domain.LAURENT)
    want = [x.eval(u) for x in m.entries]
    calls = []
    evaluate = LaurentPoly.eval
    monkeypatch.setattr(LaurentPoly, "eval",
                        lambda self, v: calls.append(self) or evaluate(self, v))
    got = m.eval_at(u)
    assert got == Mat(3, 3, got.domain, want)
    assert sorted(map(str, calls)) == sorted(map(str, set(m.entries)))


def test_nullspace_permutation_point():
    # sigma1 of the standard family at t=1, minus the identity
    m = sigma1_standard3().eval_at(Fraction(1)) - Mat.identity(3, Domain.RATIONAL)
    basis = nullspace(m)
    cols = [b.col(0) for b in basis]
    assert [Fraction(1), Fraction(1), Fraction(0)] in cols
    assert [Fraction(0), Fraction(0), Fraction(1)] in cols
    assert len(basis) == 2


def test_nullspace_exact_kills_matrix():
    rng = random.Random(23)
    for _ in range(40):
        a = Mat(4, 2, Domain.RATIONAL, [Fraction(rng.randint(-4, 4)) for _ in range(8)])
        b = Mat(2, 4, Domain.RATIONAL, [Fraction(rng.randint(-4, 4)) for _ in range(8)])
        m = a @ b
        for v in nullspace(m):
            assert (m @ v).is_zero()
        assert rank_exact(m) + len(nullspace(m)) == m.cols


def test_nullspace_numeric_residual():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))
        m = Mat.from_numpy(a)
        basis = nullspace(m, 1e-9)
        assert len(basis) == 2
        for v in basis:
            resid = np.max(np.abs(a @ v.as_numpy()))
            assert resid < 1e-9 * np.max(np.abs(a)) * 100  # generous numeric slack
            assert resid < 1e-7


# -- polynomials --------------------------------------------------------------


def test_charpoly_standard_generator():
    # frozen: (x - 1)(x^2 - t), ascending coefficients
    cp = charpoly(sigma1_standard3())
    assert cp == [T, -T, LaurentPoly.const(-1), LaurentPoly.one()]


def test_charpoly_block():
    b = Mat.from_rows([[0, T], [1, 0]], Domain.LAURENT)
    assert charpoly(b) == [-T, LaurentPoly.zero(), LaurentPoly.one()]


def test_charpoly_matches_sympy():
    import sympy

    rng = random.Random(31)
    for _ in range(20):
        m = rand_rat_mat(rng, 4)
        ours = charpoly(m)
        sym = sympy.Matrix(4, 4, [sympy.Rational(x) for x in m.entries])
        lam = sympy.Symbol("lam")
        theirs = sympy.expand(sym.charpoly(lam).as_expr())
        expr = sum(sympy.Rational(c) * lam**i for i, c in enumerate(ours))
        assert sympy.simplify(theirs - expr) == 0


def test_cayley_hamilton_random():
    rng = random.Random(37)
    for _ in range(20):
        m = rand_rat_mat(rng, 3)
        assert poly_eval_matrix(charpoly(m), m).is_zero()


def test_charpoly_complex_roots():
    m = Mat.from_numpy(np.diag([1.0, 2.0, 5.0]))
    cp = charpoly(m)
    for lam in (1, 2, 5):
        assert abs(poly_eval_scalar(cp, complex(lam), Domain.COMPLEX)) < 1e-8


def test_minpoly_identity():
    m = Mat.identity(3, Domain.RATIONAL)
    assert minpoly(m) == [Fraction(-1), Fraction(1)]


def test_minpoly_repeated_diagonal():
    m = Mat.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]], Domain.RATIONAL)
    # (x-2)(x-3) = 6 - 5x + x^2
    assert minpoly(m) == [Fraction(6), Fraction(-5), Fraction(1)]


def test_minpoly_standard_generator_at_4():
    m = sigma1_standard3().eval_at(Fraction(4))
    # eigenvalues 1, 2, -2: (x-1)(x-2)(x+2) = 4 - 4x - x^2 + x^3
    assert minpoly(m) == [Fraction(4), Fraction(-4), Fraction(-1), Fraction(1)]


def test_minpoly_divides_charpoly_and_annihilates():
    import sympy

    rng = random.Random(41)
    for _ in range(15):
        m = rand_rat_mat(rng, 4, -3, 3)
        mp = minpoly(m)
        assert poly_eval_matrix(mp, m).is_zero()
        q, rem = poly_divmod(charpoly(m), mp, Domain.RATIONAL)
        assert all(x == 0 for x in rem)
        # minimality: sympy rank of the Krylov stack of lower powers is full,
        # so no lower-degree monic polynomial can annihilate m
        sym = sympy.Matrix(4, 4, [sympy.Rational(x) for x in m.entries])
        d = len(mp) - 1
        krylov = sympy.Matrix([list(sym**k) for k in range(d)])
        assert krylov.rank() == d


def test_minpoly_laurent_domain():
    m = sigma1_standard3()
    mp = minpoly(m)
    # (x-1)(x^2-t): sigma1 is diagonalizable with eigenvalues 1, +-sqrt(t)
    assert mp == [T, -T, LaurentPoly.const(-1), LaurentPoly.one()]
    assert poly_eval_matrix(mp, m).is_zero()


def test_minpoly_complex_from_jordan():
    j = Mat.from_numpy(np.array([[5, 1, 0], [0, 5, 1], [0, 0, 5]], dtype=float))
    mp = minpoly(j)
    assert len(mp) - 1 == 3
    m2 = Mat.from_numpy(np.diag([5.0, 5.0, 5.0]))
    assert len(minpoly(m2)) - 1 == 1


def test_poly_divmod_by_a_linear_factor():
    # x^3 - 1 divided by (x - 1)
    q, rem = poly_divmod([Fraction(-1), Fraction(0), Fraction(0), Fraction(1)],
                         [Fraction(-1), Fraction(1)], Domain.RATIONAL)
    assert rem == [0]
    assert q == [Fraction(1), Fraction(1), Fraction(1)]


def test_poly_divmod_non_monic_matches_sympy():
    import sympy

    x = sympy.Symbol("x")

    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p))

    rng = random.Random(5)
    for _ in range(40):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))]
        g = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        g.append(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)))
        q, r = poly_divmod(f, g, Domain.RATIONAL)
        # deg r < deg g; a constant g leaves the zero remainder [0]
        assert len(r) < len(g) or r == [0]
        assert sympy.expand(poly(q) * poly(g) + poly(r) - poly(f)) == 0
        sq, sr = sympy.div(poly(f), poly(g), x, domain="QQ")
        assert sympy.expand(poly(q) - sq) == 0 and sympy.expand(poly(r) - sr) == 0


def test_poly_divmod_over_laurent_and_complex():
    # (x - t)(x + t^-1) = x^2 + (t^-1 - t) x - 1, by x - t, exactly
    tinv = LaurentPoly.term(Fraction(1), -1)
    q, rem = poly_divmod([LaurentPoly.const(-1), tinv - T, LaurentPoly.one()],
                         [-T, LaurentPoly.one()], Domain.LAURENT)
    assert q == [tinv, LaurentPoly.one()] and rem == [LaurentPoly.zero()]
    # 2x^2 + 1 by (1 + i) x: a non-monic complex divisor
    q, rem = poly_divmod([1 + 0j, 0j, 2 + 0j], [0j, 1 + 1j], Domain.COMPLEX)
    assert rem == [1 + 0j] and q == [0j, 2 / (1 + 1j)]
    # a shorter dividend is all remainder
    assert poly_divmod([Fraction(3)], [Fraction(1), Fraction(2)], Domain.RATIONAL) == (
        [0], [Fraction(3)])


@pytest.mark.parametrize("g", [[], [Fraction(1), Fraction(0)]], ids=["empty", "zero-lead"])
def test_poly_divmod_refuses_a_zero_leading_coefficient(g):
    with pytest.raises(ValueError, match="leading coefficient"):
        poly_divmod([Fraction(1), Fraction(2)], g, Domain.RATIONAL)


# -- eigen clustering and jordan ----------------------------------------------


def test_eigen_numeric_clusters():
    m = Mat.from_numpy(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    clusters = eigen_numeric(m, 1e-6)
    assert [(round(c.real, 6), k) for c, k in clusters] == [(1.0, 2), (5.0, 1)]


def test_eigen_numeric_ambiguous_chain():
    m = Mat.from_numpy(np.diag([1.0, 1.0 + 0.8e-6, 1.0 + 1.6e-6]))
    with pytest.raises(ClusterAmbiguous):
        eigen_numeric(m, 1e-6)


def test_eigen_numeric_sorted():
    m = Mat.from_numpy(np.diag([3.0, -1.0, 2.0]))
    vals = [c for c, _ in eigen_numeric(m)]
    assert vals == sorted(vals, key=lambda z: (z.real, z.imag))


def test_jordan_diag():
    m = Mat.from_numpy(np.diag([5.0, 5.0, 5.0]))
    (jd,) = jordan_structure(m)
    assert jd.multiplicity == 3
    assert jd.block_sizes == (1, 1, 1)


def test_jordan_nilpotent_block_plus_scalar():
    m = Mat.from_numpy(np.array([
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 5],
    ], dtype=float))
    data = {round(j.eigenvalue.real, 6): j for j in jordan_structure(m)}
    assert data[0.0].block_sizes == (3,)
    assert data[5.0].block_sizes == (1,)


def test_jordan_conjugated():
    rng = np.random.default_rng(7)
    j = np.zeros((4, 4))
    j[0, 0] = j[1, 1] = 2.0
    j[0, 1] = 1.0  # size-2 block at 2
    j[2, 2] = 2.0  # size-1 block at 2
    j[3, 3] = 7.0
    p = rng.normal(size=(4, 4))
    m = Mat.from_numpy(p @ j @ np.linalg.inv(p))
    data = {round(x.eigenvalue.real, 3): x for x in jordan_structure(m)}
    assert data[2.0].block_sizes == (2, 1)
    assert data[2.0].multiplicity == 3
    assert data[7.0].block_sizes == (1,)


# -- intertwiners ---------------------------------------------------------------


def test_intertwiner_identity_pair():
    i2 = Mat.identity(2, Domain.RATIONAL)
    basis = intertwiner_space([i2], [i2])
    assert len(basis) == 4


def test_intertwiner_distinct_scalars():
    a = Mat.from_rows([[2]], Domain.RATIONAL)
    b = Mat.from_rows([[3]], Domain.RATIONAL)
    assert intertwiner_space([a], [b]) == []


def test_intertwiner_diagonal_commutant():
    d = Mat.from_rows([[1, 0], [0, 2]], Domain.RATIONAL)
    basis = intertwiner_space([d], [d])
    assert len(basis) == 2
    for x in basis:
        assert x.at(0, 1) == 0 and x.at(1, 0) == 0


def test_intertwiner_complex_matches_exact():
    rng = random.Random(13)
    a = [rand_rat_mat(rng, 3) for _ in range(2)]
    exact_dim = len(intertwiner_space(a, a))
    cplx_dim = len(intertwiner_space([m.to_complex() for m in a],
                                     [m.to_complex() for m in a], 1e-9))
    assert exact_dim == cplx_dim
    for x in intertwiner_space(a, a):
        for m in a:
            assert (m @ x - x @ m).is_zero()


def test_intertwiner_residual_invariant():
    rng = np.random.default_rng(11)
    a = [Mat.from_numpy(rng.normal(size=(3, 3))) for _ in range(2)]
    basis = intertwiner_space(a, a, 1e-9)
    assert len(basis) >= 1  # the identity always commutes with itself
    scale = max(m.max_norm() for m in a)
    for x in basis:
        for m in a:
            resid = (m @ x - x @ m).max_norm()
            assert resid < 1e-9 * scale * 100


# -- serialization ---------------------------------------------------------------


def test_mat_json_roundtrip_rational():
    m = Mat.from_rows([[Fraction(1, 2), 3], [-2, Fraction(7, 3)]], Domain.RATIONAL)
    d = m.to_json_dict()
    assert d["entries"][0] == "1/2"
    assert mat_from_json(d) == m


def test_mat_json_roundtrip_laurent():
    m = sigma1_standard3()
    d = m.to_json_dict()
    assert d["domain"] == "laurent"
    assert mat_from_json(d) == m


def test_mat_json_roundtrip_complex():
    m = Mat.from_numpy(np.array([[1 + 2j, 0], [0.5, -1j]]))
    d = m.to_json_dict()
    assert d["entries"][0] == [1.0, 2.0]
    assert mat_from_json(d) == m


def _decoded(entries, decode):
    """(entry bytes, None) or (None, SchemaError message) for a 2 x 2
    complex matrix decoded by decode."""
    try:
        m = decode({"rows": 2, "cols": 2, "domain": "complex", "entries": entries})
    except SchemaError as exc:
        return None, str(exc)
    return m.entries.tobytes(), None


def _entry_by_entry(d):
    # the per-entry path, as mat_from_json ran it on every complex matrix
    return Mat(d["rows"], d["cols"], Domain.COMPLEX,
               [matrix.entry_from_json(v, Domain.COMPLEX) for v in d["entries"]])


def test_mat_json_decodes_complex_pairs_in_one_array():
    entries = [[1, -0.0], [0.5, 2], [-0.0, 1e308], [-3, 2 ** 60 + 1]]
    assert matrix._complex_pairs(entries) is not None
    assert _decoded(entries, mat_from_json) == _decoded(entries, _entry_by_entry)
    assert _decoded(entries, mat_from_json)[0] is not None


@pytest.mark.parametrize("entries", [
    [[1, 0], [float("nan"), 0], [0, 0], [1, 1]],
    [[1, 0], [0, float("inf")], [0, 0], [1, 1]],
    [[1, 0], ["nan", 0], [0, 0], [1, 1]],
    [[1, 0], [0, 1, 2], [0, 0], [1, 1]],
    [[1, 0, 0], [0, 1, 2], [0, 0, 1], [1, 1, 1]],
    [["1.5", "2"], [0, "-0.0"], ["1e3", 0], [1, 1]],
    [["one", 0], [0, 0], [0, 0], [1, 1]],
    [[1, 2], 3, [0, 0], 2.5],
    [1, 2.5, -0.0, 4],
    [[1, 2], None, [0, 0], [1, 1]],
    [[[1], [2]], [[0], [0]], [[0], [0]], [[1], [1]]],
    [[10 ** 400, 0], [0, 0], [0, 0], [1, 1]],
], ids=["nan", "inf", "nan-string", "triple", "all-triples", "strings", "bad-string",
        "bare-mixed", "all-bare", "null", "nested", "huge-int"])
def test_mat_json_irregular_complex_entries_take_the_entry_path(entries):
    # anything but finite number pairs is decoded, or rejected with the same
    # message, exactly as the per-entry path decodes it
    assert matrix._complex_pairs(entries) is None
    assert _decoded(entries, mat_from_json) == _decoded(entries, _entry_by_entry)


def test_mat_json_rejects_a_complex_entry_too_large_for_a_float():
    # float() raises OverflowError here, which once escaped as a traceback
    _, message = _decoded([[10 ** 400, 0], [0, 0], [0, 0], [1, 1]], mat_from_json)
    assert message.endswith("int too large to convert to float")


@pytest.mark.parametrize("entries", [
    [[True, False], [0, 0], [False, 1], [1, 1]],
    [[True, False], [False, True], [False, False], [True, True]],
], ids=["bools", "all-bools"])
def test_mat_json_complex_bools_decode_as_the_entry_path_does(entries):
    # JSON true and false load as bool, an int: float() reads them as 1 and
    # 0, and so does np.array among numbers, so either path gives one value
    assert _decoded(entries, mat_from_json) == _decoded(entries, _entry_by_entry)
    assert _decoded(entries, mat_from_json)[0] is not None


def test_mat_json_rejects_malformed():
    good = Mat.identity(2, Domain.RATIONAL).to_json_dict()
    bad1 = dict(good, entries=good["entries"][:-1])
    bad2 = dict(good, domain="integer")
    bad3 = dict(good, entries=["1", "0", "0", "not-a-number"])
    for bad in (bad1, bad2, bad3):
        with pytest.raises(SchemaError):
            mat_from_json(bad)
    with pytest.raises(SchemaError):
        mat_from_json({"rows": 1, "cols": 1, "domain": "complex"})


@pytest.mark.parametrize("rows, cols", [(True, True), (True, 1), (1, True), (False, 0)])
def test_mat_json_rejects_booleans_as_sizes(rows, cols):
    # JSON true and false load as bool, which Python counts as an int
    with pytest.raises(SchemaError):
        mat_from_json({"rows": rows, "cols": cols, "domain": "rational",
                       "entries": ["2"] * (rows * cols)})


# -- row-sparse exact kernels against dense references --------------------------


def _random_entry(rng, domain):
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if domain is Domain.RATIONAL:
        return c
    return LaurentPoly({rng.randint(-2, 2): c, rng.randint(-2, 2): rng.randint(-1, 1)})


@st.composite
def sparse_mats(draw, domain, rows=None, cols=None, max_dim=4):
    """An exact matrix of random density, some rows and columns all zero."""
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    density = draw(st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero_rows = {i for i in range(r) if rng.random() < 0.2}
    zero_cols = {j for j in range(c) if rng.random() < 0.2}
    zero = ops_for(domain).zero
    return Mat(r, c, domain, [
        _random_entry(rng, domain)
        if i not in zero_rows and j not in zero_cols and rng.random() < density else zero
        for i in range(r) for j in range(c)])


EXACT = st.sampled_from([Domain.RATIONAL, Domain.LAURENT])


def dense_product(a: Mat, b: Mat) -> Mat:
    zero = ops_for(a.domain).zero
    return Mat(a.rows, b.cols, a.domain,
               [sum((a.at(i, p) * b.at(p, j) for p in range(a.cols)), zero)
                for i in range(a.rows) for j in range(b.cols)])


def recomputed_index(m: Mat) -> tuple:
    return Mat(m.rows, m.cols, m.domain, m.entries)._nonzeros()


def test_product_index_ascends_when_columns_fill_out_of_order():
    # row 0 of the product is first touched at column 1, then at column 0
    a = Mat.from_rows([[1, 1]], Domain.RATIONAL)
    b = Mat.from_rows([[0, 1], [1, 0]], Domain.RATIONAL)
    assert (a @ b)._nz == ((0, 1),)


@settings(max_examples=200, deadline=None)
@given(st.data(), EXACT)
def test_sparse_product_sum_and_scale_match_dense_loops(data, domain):
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(sparse_mats(domain, n, k))
    b = data.draw(sparse_mats(domain, k, m))
    prod = a @ b
    assert prod == dense_product(a, b)
    assert prod._nz == recomputed_index(prod)
    c = data.draw(sparse_mats(domain, n, k))
    total, diff = a + c, a - c
    assert total.entries == tuple(x + y for x, y in zip(a.entries, c.entries))
    assert diff.entries == tuple(x - y for x, y in zip(a.entries, c.entries))
    # sums carry their nonzero index, with the cancelled entries dropped
    assert total._nz == recomputed_index(total) and diff._nz == recomputed_index(diff)
    assert (a - a)._nz == ((),) * n
    assert (-a).entries == tuple(-x for x in a.entries)
    s = data.draw(st.sampled_from([0, 1, -1, Fraction(-5, 3)]))
    scaled = a.scale(s)
    assert scaled.entries == tuple(ops_for(domain).coerce(s) * x for x in a.entries)
    assert scaled._nonzeros() == recomputed_index(scaled)


@settings(max_examples=100, deadline=None)
@given(sparse_mats(Domain.LAURENT),
       st.sampled_from([Fraction(1), Fraction(-7, 3), Fraction(2), 2.5 + 0.5j, -1.0 + 0j]))
def test_sparse_eval_at_matches_entrywise_evaluation(m, u):
    got = m.eval_at(u)
    assert got == Mat(m.rows, m.cols, got.domain, [x.eval(u) for x in m.entries])
    if got.domain is Domain.RATIONAL:
        # built with its index; an entry that vanishes at u is left out
        assert got._nz == recomputed_index(got)


def _sympy_entry(x):
    import sympy

    if isinstance(x, LaurentPoly):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Symbol("t")**e
                    for e, c in x.items()), sympy.Integer(0))
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_rank(m: Mat) -> int:
    """Rank over the fraction field.  For LAURENT the entries are multiplied
    by t^2, which clears every negative power the strategy draws and keeps
    the rank."""
    import sympy

    lift = sympy.Symbol("t")**2 if m.domain is Domain.LAURENT else 1
    sym = sympy.Matrix(m.rows, m.cols, [sympy.expand(_sympy_entry(x) * lift) for x in m.entries])
    return sym.rank(iszerofunc=lambda x: sympy.expand(x) == 0)


@settings(max_examples=80, deadline=None)
@given(st.data(), EXACT)
def test_sparse_eliminations_match_sympy(data, domain):
    import sympy

    shape = data.draw(st.sampled_from(["square", "wide", "tall", "low-rank"]))
    n = data.draw(st.integers(0, 4))
    if shape == "low-rank":
        m = dense_product(data.draw(sparse_mats(domain, n, 1)),
                          data.draw(sparse_mats(domain, 1, n)))
        m = m + dense_product(data.draw(sparse_mats(domain, n, 1)),
                              data.draw(sparse_mats(domain, 1, n)))
    else:
        extra = {"square": 0, "wide": 1, "tall": -1}[shape]
        cols = max(n + extra, 0)
        m = data.draw(sparse_mats(domain, n, cols))
    ref_rank = _sympy_rank(m)
    assert rank_exact(m) == ref_rank
    kernel = nullspace(m)
    assert len(kernel) == m.cols - ref_rank
    for v in kernel:
        assert dense_product(m, v).is_zero()
    if kernel:
        assert _sympy_rank(Mat.from_columns(kernel)) == len(kernel)
    if not m.is_square:
        return
    eye = Mat.identity(m.rows, domain)
    entries = [_sympy_entry(x) for x in m.entries]
    ref_det = sympy.expand(sympy.Matrix(m.rows, m.cols, entries).det(method="berkowitz"))
    assert sympy.expand(_sympy_entry(m.det()) - ref_det) == 0
    invertible = ref_det != 0 and (domain is Domain.RATIONAL or m.det().is_unit)
    if invertible:
        inv = m.inverse()
        assert dense_product(m, inv) == eye
        assert dense_product(inv, m) == eye
    else:
        with pytest.raises(NotInvertible):
            m.inverse()


_PARTS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(list(Domain)))
def test_shift_matches_subtracting_a_scaled_identity(data, domain):
    n = data.draw(st.integers(0, 5))
    if domain is Domain.COMPLEX:
        parts = data.draw(st.lists(_PARTS, min_size=2 * n * n, max_size=2 * n * n))
        m = Mat(n, n, domain, [complex(a, b) for a, b in zip(parts[::2], parts[1::2])])
        c = complex(data.draw(_PARTS), data.draw(_PARTS))
    else:
        m = data.draw(sparse_mats(domain, n, n))
        # a diagonal entry as c zeroes it, a zero diagonal entry gains a value
        diagonal = [m.at(i, i) for i in range(n)]
        c = data.draw(st.sampled_from([0, 1, Fraction(-5, 3)] + diagonal))
    got = m._shift(c)
    want = m - Mat.identity(n, domain).scale(c)
    if domain is Domain.COMPLEX:
        assert np.array_equal(got.entries.view(float), want.entries.view(float))
        assert np.array_equal(np.signbit(got.entries.view(float)),
                              np.signbit(want.entries.view(float)))
    else:
        assert got.entries == want.entries
        assert got._nz == recomputed_index(got)
    with pytest.raises(ValueError):
        Mat.zeros(n, n + 1, domain)._shift(c)


def _loop_clusters(m: Mat, cluster_tol: float):
    """eigen_numeric's clustering as pairwise Python loops over the same
    eigenvalues: the reference for its array form."""
    vals = np.linalg.eigvals(m.as_numpy())
    thr = cluster_tol * max(float(np.max(np.abs(m.as_numpy()))), 1e-300)
    groups: list[list[int]] = []
    for i in range(len(vals)):
        near = [g for g in groups if any(abs(vals[i] - vals[j]) <= thr for j in g)]
        merged = sorted([i] + [j for g in near for j in g])
        groups = [g for g in groups if g not in near] + [merged]
    out = []
    for g in sorted(groups):
        pts = [vals[i] for i in g]
        diam = max(abs(x - y) for x in pts for y in pts)
        if diam > thr:
            return ClusterAmbiguous(
                "eigenvalue chain of diameter %.3g straddles threshold %.3g" % (diam, thr))
        out.append((complex(sum(pts) / len(pts)), len(pts)))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1, 1j]),
                          st.sampled_from([0, 0.8e-6, 1.6e-6, -0.7e-6, 3e-6j, 1e-3])),
                min_size=1, max_size=9),
       st.booleans())
def test_eigen_numeric_matches_pairwise_loops(points, triangular):
    # unit bases keep the threshold near 1e-6, so the offsets make chains
    vals = np.array([base + off for base, off in points], dtype=complex)
    a = np.diag(vals)
    if triangular:
        a = a + np.triu(np.full(a.shape, 0.5 + 0.25j), 1)
    m = Mat.from_numpy(a)
    want = _loop_clusters(m, 1e-6)
    if isinstance(want, ClusterAmbiguous):
        with pytest.raises(ClusterAmbiguous) as err:
            eigen_numeric(m, 1e-6)
        assert str(err.value) == str(want)
    else:
        assert eigen_numeric(m, 1e-6) == want
