"""Structural probes for braid group representations.

The functions here answer questions about a single representation:

  corank                 smallest rank of rho(s1) - y*I over eigenvalues y;
                         the fingerprint that separates the main families
  burnside_dimension     dimension of the linear span of the image; equals
                         degree^2 exactly when the representation is
                         absolutely irreducible (and stays smaller when it
                         is not)
  common_eigenvector     a vector every generator scales, if one exists
  subgroup_line_witness  an eigenvector pattern pinned by two boundary
                         generators, with the middle one left free
  central_scalar         the scalar by which theta^m acts (theta = s1..s_{m-1})
  theta_cycle_audit      the full conjugation-cycle bookkeeping around theta:
                         shifted generators, translated vectors, the x/y
                         constraint table, independence of the translates
  rank_conclusion_check  rank of rho(s1) - y*I against the threshold 2
  jordan_projection      column space of minpoly(M)/(X - lam) evaluated at M;
                         its dimension counts the maximal Jordan blocks of lam
  subgroup_invariance_check  whether chosen generators map a subspace into itself
  invariant_subspace_search  randomized search for a proper invariant subspace

burnside_dimension, Norton's test (_norton) and invariant_subspace_search
run on one spin kernel, _spin: it closes the span of some seed elements under
left multiplication by a list of operators, one generation at a time, into an
exact echelon basis or a numeric orthonormal one.  The span test spins
{I, generators, inverses} in the degree^2-dimensional matrix space; Norton's
test spins one kernel vector under the generators and one under the dual
action, in dimension degree; the subspace search spins one kernel vector
under the generators.  An exact spin runs in Python-int arithmetic: its
seeds and operators are rational matrices divided by their content, so
coprime integer arrays, and its echelon basis holds primitive integer rows
reduced by fraction-free (Bareiss) steps, never a Fraction.

A complex spin stacks its operators once and tries only the products its
screen (_screened) lets through.  The screen forms the products of a block
of whole frontier elements by one stacked matmul, normalises each and
projects it twice off the current orthonormal basis, and passes on only
those whose residual is above a tenth of the basis tolerance.  A residual
of at most tol/10 against an older basis stays below tol against a larger
one, so insert would reject the product.  The products let through are
formed again and inserted one at a time, in the unscreened order, so the
basis, the generation counts and every decision are those of the
one-at-a-time spin.  Norton's complex test spins under the rep's generator
stack and the transposes of its inverse stack.

Norton's test certifies irreducibility, and so a full span by Burnside's
theorem, or returns the invariant subspace a short spin found.  _norton
runs it in the input's domain: exact over the rationals (Holt and Rees,
1994), at the three sample points for Laurent input, which give no
subspace, numeric over the complex numbers.  Each level of the test
returns one pair (span, witness): a full span for a certificate, a
witness for a short spin, both when the two exact spins split a reducible
rational module (_split, which runs the closure at most on the
complement), and neither when the test declines.  _irreducibility is the
one rule of the irreducible command and classify: it returns that pair,
and the span closure runs only where the pair leaves the span open.

Exact domains are kept exact wherever eigenvalues are rational; everything
else runs on the complexification with max-norm residual reporting.  Laurent
inputs are probed through a fixed set of three rational specializations and
must agree (_agreed), otherwise GenericDisagreement is raised.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

import numpy as np

from .braid import theta_word
from .errors import (
    ClosureDiverged,
    ClusterAmbiguous,
    GenericDisagreement,
    IrreducibilityUndecided,
    NotEigenvalue,
    NotInvertible,
    NotScalar,
    WitnessInvalid,
)
from .laurent import LaurentPoly
from .matrix import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    Domain,
    Mat,
    _canonical_exact_vector,
    _content,
    _evaluate,
    _integer_singular,
    _np_nullspace,
    _singular_rank,
    charpoly,
    column_space,
    eigen_numeric,
    minpoly,
    nullspace,
    ops_for,
    poly_divmod,
    poly_eval_matrix,
    poly_eval_scalar,
    rank_exact,
    rank_numeric,
    relative_residual,
)
from .reps import Rep, eval_word

__all__ = [
    "CorankReport",
    "BurnsideReport",
    "CommonEigReport",
    "WitnessReport",
    "CycleCell",
    "CycleAuditReport",
    "RankConclusion",
    "JordanProjectionReport",
    "InvarianceReport",
    "InvariantSubspaceReport",
    "corank",
    "burnside_dimension",
    "common_eigenvector",
    "subgroup_line_witness",
    "central_scalar",
    "theta_cycle_audit",
    "rank_conclusion_check",
    "jordan_projection",
    "subgroup_invariance_check",
    "invariant_subspace_search",
]

# Laurent-domain questions are answered generically: evaluate at these many
# rational points and demand agreement.  Fixed seed so every run sees the
# same sample.
_SAMPLE_SEED = 0x1B41D
_SAMPLE_COUNT = 3


def _sample_points() -> list[Fraction]:
    rng = random.Random(_SAMPLE_SEED)
    pts: list[Fraction] = []
    while len(pts) < _SAMPLE_COUNT:
        u = Fraction(rng.randint(7, 399), rng.randint(2, 11))
        if u in (0, 1) or u in pts:
            continue
        pts.append(u)
    return pts


def _generic_note(pts: list[Fraction]) -> str:
    return "generic value; specializations at t=%s agree" % ", ".join(map(str, pts))


def _agreed(what: str, values: list[int], pts: list[Fraction]) -> int:
    """The value that every sample point gives; GenericDisagreement, naming
    each point's value, when they differ."""
    if len(set(values)) != 1:
        raise GenericDisagreement("%s differs across specializations (%s)" % (
            what, ", ".join("t=%s: %d" % (u, v) for u, v in zip(pts, values))))
    return values[0]


def scalar_to_json(x):
    """Encode an exact or complex scalar the way matrix entries are encoded."""
    if x is None:
        return None
    if isinstance(x, LaurentPoly):
        return x.format()
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    z = complex(x)
    return [z.real, z.imag]


def _axis_key(z: complex):
    # candidate ordering used by eigenvalue searches: closest to the positive
    # real axis first, larger real part breaking ties
    return (abs(cmath.phase(z)) if z != 0 else 0.0, -z.real, -z.imag)


def _reconstruct_rational(value: complex, verify) -> Fraction | None:
    """Try to read an exact rational off a floating approximation.

    Candidates with small denominators are tried first, but only ones that
    actually sit next to the input; verify(candidate) must then confirm the
    candidate exactly.  The closeness gate keeps a coarse candidate from
    matching some other exact value that also verifies.
    """
    if abs(value.imag) > 1e-6 * max(1.0, abs(value)):
        return None
    for limit in (1, 1000, 10**9):
        cand = Fraction(value.real).limit_denominator(limit)
        if abs(cand - value.real) > 1e-6 * max(1.0, abs(value.real)):
            continue
        if verify(cand):
            return cand
    return None


class _ShiftRank:
    """rank(g - lam*I) for one square g: exact at an exact lam, and at a
    complex lam rank_numeric of the shifted complex matrix at tol.

    An exact g that Mat._split reads as c*I off a closed block S, with an
    index k = max(S) + 1 < n (k = 0 for g = c*I), is ranked on its leading
    principal submatrix through k, adding the n - k - 1 indices after k
    when that submatrix counts the pivot c - lam at (k, k).  Every index
    outside S is unmoved, so g - lam*I is block-diagonal, its block on S
    beside the 1x1 blocks c - lam, and rank adds over blocks, so exact
    ranks agree.  Complete pivoting never mixes blocks: a pivot's row and
    column are zero off its block, so each block is reduced as it would be
    alone, up to the order of equal-magnitude pivots, and the untouched
    pivots c - lam count alike.  The submatrix has the full matrix's
    max-norm, so rank_numeric applies the same tol * scale cutoff.
    """

    def __init__(self, g: Mat, tol: float = DEFAULT_TOL):
        self.tol = tol
        self.g, self.c, self.k, self.rest = g, None, None, 0
        self._complex = None
        self._rows = None
        split = g._split() if g.domain is not Domain.COMPLEX else None
        if split is not None:
            c, _, block = split
            k = block[-1] + 1 if block else 0
            if k < g.rows:
                self.c, self.k, self.rest = c, k, g.rows - k - 1
                self.g = g._principal(range(k + 1))

    def exact(self, lam) -> int:
        lam = ops_for(self.g.domain).coerce(lam)
        r = rank_exact(self.g._shift(lam))
        return r + self.rest if lam != self.c else r

    def singular(self, f: Fraction) -> bool:
        """exact(f) < n for a RATIONAL g, without a rank: det(P - f*I) = 0
        for the ranked matrix P, since g - f*I is P - f*I beside pivots
        c - f, and f = c makes P - f*I singular at k.  With f = p/q, the
        rows of q*P - p*I scaled to integers, row i by the lcm d_i of the
        denominators in row i of P, give one integer determinant."""
        if self._rows is None:
            e, m = self.g.entries, self.g.cols
            self._rows = []
            for i, cols in enumerate(self.g._nonzeros()):
                xs = [e[i * m + j] for j in cols]
                d = lcm(*(x.denominator for x in xs))
                self._rows.append((d, {j: x.numerator * (d // x.denominator)
                                       for j, x in zip(cols, xs)}))
        p, q = f.numerator, f.denominator
        rows = []
        for i, (d, row) in enumerate(self._rows):
            r = {j: q * x for j, x in row.items()}
            x = r.get(i, 0) - p * d
            if x:
                r[i] = x
            else:
                r.pop(i, None)
            rows.append(r)
        return _integer_singular(rows, self.g.rows)

    def numeric(self, lam: complex) -> int:
        if self._complex is None:
            self._complex = self.g.to_complex()
        m = self._complex._shift(complex(lam))
        r = rank_numeric(m, self.tol)
        if self.rest:
            a = m.entries
            if abs(a[self.k, self.k]) > self.tol * float(np.max(np.abs(a))):
                r += self.rest
        return r


def _eig_candidates(g: Mat, cluster_tol: float,
                    rank: _ShiftRank | None = None) -> list[tuple[object, int, bool, int | None]]:
    """Eigenvalues of a rational or complex matrix as (value, mult, exact,
    rank), rank being the exact rank of g - value*I for an exact value and
    None otherwise.  Ordered by _axis_key.  rank, when given, is g's
    _ShiftRank.

    The spectrum is that of the ranked submatrix, and the cluster of c
    gains the unmoved indices it leaves out, all after it.  LAPACK's
    balancing peels those trailing rows off in place before it permutes
    any other, so the submatrix's eigenvalues are the whole matrix's bit
    for bit, and since it has g's max-norm, so are the clusters.  Rational
    matrices get their rational eigenvalues verified exactly: a candidate
    must make the submatrix singular, by one integer determinant
    (_ShiftRank.singular), and only one that does pays an exact rank.  The
    rest stay floating.
    """
    if rank is None:
        rank = _ShiftRank(g)
    home = complex(rank.c) if rank.rest else None
    clusters = eigen_numeric(rank.g, cluster_tol, home, rank.rest)
    ranks = {}

    def singular(f):
        if not rank.singular(f):
            return False
        ranks[f] = rank.exact(f)
        return True

    out = []
    for c, mult in clusters:
        exact_val = None
        if g.domain is Domain.RATIONAL:
            exact_val = _reconstruct_rational(c, singular)
        if exact_val is not None:
            out.append((exact_val, mult, True, ranks[exact_val]))
        else:
            out.append((c, mult, False, None))
    out.sort(key=lambda t: _axis_key(complex(t[0])))
    return out


# ---------------------------------------------------------------------------
# corank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorankReport:
    degree: int
    domain: Domain
    corank: int
    eigenvalue: object
    exact: bool
    table: tuple  # ((eigenvalue, rank, exact), ...)
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "domain": self.domain.value,
            "corank": self.corank,
            "eigenvalue": scalar_to_json(self.eigenvalue),
            "exact": self.exact,
            "table": [
                {"eigenvalue": scalar_to_json(e), "rank": r, "exact": ex}
                for e, r, ex in self.table
            ],
            "notes": self.notes,
        }


def _corank_of_matrix(g: Mat, tol: float, cluster_tol: float):
    rank = _ShiftRank(g, tol)
    table = []
    for val, _, exact, r in _eig_candidates(g, cluster_tol, rank):
        if not exact:
            r = rank.numeric(val)
        table.append((val, r, exact))
    # ties go to the smallest-magnitude eigenvalue, then the positive-axis
    # order so +sqrt(u) beats its negative twin at equal magnitude
    best = min(table, key=lambda t: (t[1], abs(complex(t[0])), _axis_key(complex(t[0]))))
    return best, tuple(table)


def corank(rho: Rep, tol: float = DEFAULT_TOL,
           cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CorankReport:
    """Smallest rank of rho(s1) - y*I over the eigenvalues y of rho(s1).

    The d-dimensional family built from the 2x2 block [[0,t],[1,0]] scores 2,
    the Burau family scores 1, one-dimensional characters score 0.  Laurent
    representations are sampled at three fixed rational points which must
    agree; a spread of values raises GenericDisagreement.

    An exact rho(s1) equal to c*I off a closed block S (c = y after a
    twist) makes rho(s1) - y*I block-diagonal, so each rank is taken on
    the leading submatrix through the first index after S (_ShiftRank),
    S and one unmoved index for the block families, and so is the
    spectrum: the eigenvalues of that submatrix, c's cluster counting the
    indices it leaves out (_eig_candidates).  Each rational candidate is
    checked by one integer determinant there before it pays an exact rank.
    """
    g = rho.gen(1)
    if rho.domain is Domain.LAURENT:
        pts = _sample_points()
        results = [_corank_of_matrix(g.eval_at(u), tol, cluster_tol) for u in pts]
        _agreed("corank", [best[1] for best, _ in results], pts)
        best, table = results[0]
        return CorankReport(rho.degree, rho.domain, best[1], best[0], best[2],
                            table, _generic_note(pts))
    best, table = _corank_of_matrix(g, tol, cluster_tol)
    return CorankReport(rho.degree, rho.domain, best[1], best[0], best[2], table)


# ---------------------------------------------------------------------------
# span of the image
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurnsideReport:
    degree: int
    domain: Domain
    dimension: int
    generations: int
    notes: str = ""
    method: str = "span"  # "span": closure of the image; "norton": Norton's test

    @property
    def full(self) -> bool:
        return self.dimension == self.degree * self.degree

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "domain": self.domain.value,
            "dimension": self.dimension,
            "full": self.full,
            "generations": self.generations,
            "notes": self.notes,
            "method": self.method,
        }


class _EchelonBasis:
    """Growing echelon basis over the rationals, held as primitive integer
    rows: each is a flattened object array of Python ints, divided by its
    gcd, with a positive pivot.  insert() reports new dims.

    Reducing by a row cross-multiplies, as fraction-free (Bareiss)
    elimination does, so a reduced vector stays proportional to the one a
    basis of Fraction rows would reach and every insert decides the same
    way.  A vector that is kept is divided by its gcd once, at the end.
    """

    def __init__(self, rows=()):
        self.rows: list[tuple[int, np.ndarray]] = list(rows)  # (pivot index, row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, x: np.ndarray) -> bool:
        # x holds Python ints; coprime ones, as _scaled leaves them, keep
        # the cross-multiplied entries small
        vec = x.ravel()
        for pidx, row in self.rows:
            e = vec[pidx]
            if e:
                q = row[pidx]
                g = gcd(q, e)
                vec = (q // g) * vec - (e // g) * row
        nz = np.flatnonzero(vec)
        if not nz.size:
            return False
        pivot = int(nz[0])
        c = np.gcd.reduce(vec)
        if vec[pivot] < 0:
            c = -c
        self.rows.append((pivot, vec // c if c != 1 else vec))
        return True

    def vectors(self) -> list[list[Fraction]]:
        """The rows made monic: pivot entry 1, as Fractions."""
        return [[Fraction(a, row[p]) for a in row] for p, row in self.rows]


class _OrthoBasis:
    """Growing orthonormal basis of complex arrays, flattened, held as the
    leading columns of one array sized to the ambient dimension."""

    def __init__(self, tol: float):
        self.tol = max(tol, 1e-12)
        self.q: np.ndarray | None = None
        self.dim = 0

    def insert(self, v: np.ndarray) -> bool:
        w = np.array(v, dtype=complex).ravel()
        n0 = np.linalg.norm(w)
        if n0 == 0.0 or not np.isfinite(n0):  # a NaN or inf would fill a column
            return False
        if self.q is None:
            self.q = np.empty((w.size, w.size), dtype=complex)
        w /= n0
        q = self.q[:, :self.dim]
        for _ in range(2):  # w -= Q (Q^H w), re-orthogonalized once for stability
            w -= q @ (w.conj() @ q).conj()
        n1 = np.linalg.norm(w)
        if n1 <= self.tol:
            return False
        self.q[:, self.dim] = w / n1
        self.dim += 1
        return True

    def vectors(self) -> list[np.ndarray]:
        return [] if self.q is None else list(self.q[:, :self.dim].T)


def _scaled(x: np.ndarray) -> np.ndarray:
    # scaling an element does not change the span; keep entries small
    if x.dtype == object:  # Python ints: divide out their gcd
        c = np.gcd.reduce(x, axis=None)
        return x // c if c > 1 else x
    s = float(np.max(np.abs(x)))
    return x * (1.0 / s) if s > 0 else x


def _integer_array(m: Mat) -> np.ndarray:
    """A RATIONAL Mat divided by its content: an object array of coprime
    Python ints with m's shape.  It spans what m spans."""
    e, k = m.entries, m.cols
    at = [i * k + j for i, cols in enumerate(m._nonzeros()) for j in cols]
    c = _content([e[t] for t in at], Domain.RATIONAL)
    out = np.zeros(len(e), dtype=object)  # Python int zeros
    for t in at:
        out[t] = (e[t] / c).numerator
    return out.reshape(m.rows, m.cols)


def _spin(seeds: list, ops: list, basis, limit: int,
          max_generations: int | None = None) -> int:
    """Grow basis to the span of seeds closed under left multiplication by ops.

    Elements are object arrays of Python ints for an _EchelonBasis and
    complex arrays for an _OrthoBasis, each scaled before it is inserted.
    Runs one generation at a time (_generation): the next frontier is the
    products of the current one that enlarged the basis, tried in frontier
    order and, for each element, in ops order.  Stops when the frontier is
    empty or basis.dim reaches limit, checked before each frontier element.
    Returns the number of generations; ClosureDiverged when more than
    max_generations would run.

    An exact spin tries every product.  A complex spin stacks ops once and
    tries only the products its screen (_screened) lets through: a product
    it leaves out would be rejected by insert, so the basis gets the same
    columns and every decision and count stays the same.
    """
    # a complex spin's operators, stacked once for its screens
    stacked = np.ascontiguousarray(ops) if isinstance(basis, _OrthoBasis) else None
    frontier = [x for x in map(_scaled, seeds) if basis.insert(x)]
    generations = 0
    while frontier and basis.dim < limit:
        generations += 1
        if max_generations is not None and generations > max_generations:
            raise ClosureDiverged(
                "span closure still growing after %d generations" % max_generations)
        pairs = (product(range(len(frontier)), range(len(ops))) if stacked is None
                 else _screened(frontier, stacked, basis))
        frontier = _generation(frontier, ops, basis, limit, pairs)
    return generations


def _generation(frontier: list, ops: list, basis, limit: int, pairs) -> list:
    """One generation: the product ops[i] @ frontier[k] of each pair (k, i),
    ascending, scaled and inserted in turn; the ones insert kept.  Stops
    before a new frontier element once basis.dim reaches limit."""
    nxt, last = [], None
    for k, i in pairs:
        if k != last and basis.dim >= limit:
            break
        last = k
        x = _scaled(ops[i] @ frontier[k])
        if basis.insert(x):
            nxt.append(x)
    return nxt


# Upper bound on the bytes of one block of screened products, unless the
# products of one frontier element alone are larger, as the closure's are
# from degree 21 on: it spins degree^2-long elements under 2(strands - 1)
# operators.  A whole generation's products would take tens of megabytes at
# degree 20, and a block of a megabyte added more than a tenth to the
# closure's peak resident memory there.
_SCREEN_BYTES = 1 << 18


def _screened(frontier: list, stacked: np.ndarray, basis: _OrthoBasis):
    """The pairs (k, i), ascending, whose product stacked[i] @ frontier[k]
    may still grow basis.

    Forms the products of as many whole frontier elements as fit in
    _SCREEN_BYTES, at least one, by one stacked matmul when the block is
    reached, normalises each and projects it twice off the basis columns of
    that moment, as insert does, and leaves out a product whose residual is
    at most basis.tol / 10: against the larger basis insert sees, the
    residual of a unit vector can only shrink, up to a rounding error near
    1e-15, and insert rejects a residual of at most basis.tol >= 1e-12.
    Zero and non-finite products are never left out; a product whose
    squared entries overflow or underflow is scaled before it is normalised.
    """
    m, size = len(stacked), frontier[0].size
    step = max(1, _SCREEN_BYTES // (16 * size * m))  # frontier elements per block
    floor = basis.tol / 10
    for k0 in range(0, len(frontier), step):
        w = np.stack([x.reshape(len(x), -1) for x in frontier[k0:k0 + step]])[:, None]
        p = np.matmul(stacked, w).reshape(-1, size)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(p, axis=1)
            # squares of the entries overflowed or underflowed: scale
            # those rows first; a zero or non-finite row stays unscreened
            odd = ~((norms > 1e-150) & (norms < np.inf))
            if odd.any():
                p[odd] /= np.abs(p[odd]).max(axis=1)[:, None]
                norms[odd] = np.linalg.norm(p[odd], axis=1)
        finite = np.isfinite(norms) & (norms > 0)
        p[~finite] = 0
        p /= np.where(finite, norms, 1.0)[:, None]
        q = basis.q[:, :basis.dim]
        for _ in range(2):  # each row x -= Q Q^H x, as insert projects
            np.conjugate(p, out=p)  # in place: a copy would double the block
            h = p @ q
            np.conjugate(p, out=p)
            p -= h.conj() @ q.T
        keep = ~(finite & (np.linalg.norm(p, axis=1) <= floor))
        for j in np.flatnonzero(keep).tolist():
            yield k0 + j // m, j % m


def _image_span(gens: list[Mat], degree: int, domain: Domain, tol: float,
                max_generations: int) -> tuple[int, int]:
    seeds = [Mat.identity(degree, domain)] + gens + [g.inverse(tol) for g in gens]
    if domain is Domain.COMPLEX:
        seeds = [m.as_numpy() for m in seeds]
        basis: object = _OrthoBasis(tol)
    else:
        seeds = [_integer_array(m) for m in seeds]
        basis = _EchelonBasis()
    generations = _spin(seeds, seeds[1:], basis, degree * degree, max_generations)
    return basis.dim, generations


def burnside_dimension(rho: Rep, tol: float = DEFAULT_TOL,
                       max_generations: int = 50) -> BurnsideReport:
    """Dimension of the linear span of all image matrices.

    Computed by closing the span of {I, generators, inverses} under left
    multiplication, with an early exit at degree^2 (the span cannot grow
    further, and hitting it certifies irreducibility).  Laurent inputs are
    specialized at the three fixed sample points and must agree.
    """
    if rho.domain is Domain.LAURENT:
        pts = _sample_points()
        spans = [_image_span(_evaluate(rho.gens, u), rho.degree,
                             Domain.RATIONAL, tol, max_generations) for u in pts]
        dim = _agreed("span dimension", [d for d, _ in spans], pts)
        return BurnsideReport(rho.degree, rho.domain, dim, max(g for _, g in spans),
                              _generic_note(pts))
    dim, generations = _image_span(list(rho.gens), rho.degree, rho.domain,
                                   tol, max_generations)
    return BurnsideReport(rho.degree, rho.domain, dim, generations)


def _irreducibility(rho: Rep, closure, tol: float = DEFAULT_TOL,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL,
                    max_generations: int | None = None, measure: bool = False
                    ) -> tuple[BurnsideReport | None, InvariantSubspaceReport | None]:
    """The irreducibility rule of the irreducible command and classify:
    (span report, witness), irreducible when the report is full and there
    is no witness.  Norton's pair (_norton) stands when it has a report, or
    a witness that nobody measures.  Otherwise closure, the caller's own
    burnside_dimension call, gives the report: when the test gives neither,
    or, with measure, to measure the span beside a witness that did not
    split the module.  A short complex span may under-count, so it needs a
    verified witness from invariant_subspace_search, else
    IrreducibilityUndecided.
    """
    span, witness = _norton(rho, tol, cluster_tol, max_generations, split=measure)
    if span is not None or (witness is not None and not measure):
        return span, witness
    span = closure()
    if witness is None and not span.full and rho.domain is Domain.COMPLEX:
        found = invariant_subspace_search(rho, tol=tol, cluster_tol=cluster_tol)
        witness = found if found.found else None
    if rho.domain is Domain.COMPLEX and span.full is (witness is not None):
        raise IrreducibilityUndecided(
            "complex image span has dimension %d of %d %s a verified invariant"
            " subspace" % (span.dimension, rho.degree ** 2, "beside" if witness else "without"))
    return span, witness


def _norton(rho: Rep, tol: float = DEFAULT_TOL,
            cluster_tol: float = DEFAULT_CLUSTER_TOL,
            max_generations: int | None = None, split: bool = False
            ) -> tuple[BurnsideReport | None, InvariantSubspaceReport | None]:
    """Norton's irreducibility test in rho's own domain, as the pair (span
    report, witness): (full report, None) for a certificate, (None,
    witness) for a short spin (_full_spins) that _checked accepts, with
    split (split report, witness) for a RATIONAL module that the test's two
    spins split (_split), and (None, None) otherwise.  The spins stop by
    dimension; max_generations caps only the span closure that a split
    runs on its complement.

    A COMPLEX rep runs the numeric test, a RATIONAL one the exact test
    (_exact_norton), and a LAURENT one the exact test at the three fixed
    sample points, all of which must certify: a subspace at one sample
    point is not one of the family.  A certificate's report has method
    "norton" and the spins' largest generation count, a split's method
    "split" and a note naming the summands.
    """
    n, notes = rho.degree, ""
    if rho.domain is Domain.COMPLEX:
        span, witness = _complex_norton(rho, tol, cluster_tol)
    elif rho.domain is Domain.RATIONAL:
        span, witness = _exact_norton(list(rho.gens), max_generations, split)
    else:
        pts = _sample_points()
        notes, counts = _generic_note(pts), []
        for u in pts:
            span, _ = _exact_norton(_evaluate(rho.gens, u))
            if span is None:
                return None, None
            counts.append(span[1])
        span, witness = (n * n, max(counts), [n]), None
    if span is None:
        return None, witness and _checked(rho, witness, tol)
    dim, generations, parts = span
    if len(parts) > 1:
        notes = "Norton's spins split the module as %s" % " + ".join(map(str, parts))
    return BurnsideReport(n, rho.domain, dim, generations, notes,
                          "norton" if len(parts) == 1 else "split"), witness


def _full_spins(spins, n: int, both: bool = False
                ) -> tuple[int, InvariantSubspaceReport | None]:
    """Spin the kernel seed and then the dual one, each (seed, ops, basis):
    the largest generation count of the spins that ran, and the invariant
    subspace of the first short spin, its span or for the dual spin its
    annihilator, or None when both reach dimension n.  A short kernel spin
    ends the run unless both is set.  A spin stops by dimension, after at
    most n generations, so it takes no generation cap."""
    generations, witness = [], None
    for k, (seed, ops, basis) in enumerate(spins):
        generations.append(_spin([seed], ops, basis, n))
        if basis.dim < n and witness is None:
            span = _spun(basis, dual=k == 1)
            note = "Norton's %s spin stopped at %d" % (("kernel", "dual")[k], basis.dim)
            witness = InvariantSubspaceReport(True, span.cols, span, 1, note)
            if not both:
                break
    return max(generations), witness


def _complex_norton(rho: Rep, tol: float, cluster_tol: float
                    ) -> tuple[tuple[int, int, list[int]] | None, InvariantSubspaceReport | None]:
    """Norton's test on a COMPLEX rep, as _norton's pair with the raw span
    (n^2, the spins' largest generation count, [n]) for a certificate and
    the unchecked witness of a short spin.

    Take theta = rho(s1) - lam*I for the first simple eigenvalue lam whose
    kernel v and transposed kernel w both have nullity 1.  The module is
    absolutely irreducible exactly when v spins to C^n under the generators
    and w spins to C^n under the dual action, and then the image spans all
    n^2 matrices (Burnside).  The dual action is the inverse transposes:
    they generate the same algebra as the transposes, so w spins to the
    same subspace, but the spin does not shrink by a factor u per step as
    it does under the transposes of the block family.
    """
    n = rho.degree
    try:
        clusters = eigen_numeric(rho.gen(1), cluster_tol)
        duals = np.swapaxes(rho.inverse_stack(), 1, 2)
    except (ClusterAmbiguous, NotInvertible):
        return None, None
    gens = rho.stack
    for lam, mult in clusters:
        if mult != 1:
            continue
        theta = gens[0] - lam * np.eye(n)
        v = _np_nullspace(theta, tol)
        w = _np_nullspace(theta.T, tol)
        if v.shape[1] != 1 or w.shape[1] != 1:
            continue
        generations, witness = _full_spins(((v[:, 0], gens, _OrthoBasis(tol)),
                                            (w[:, 0], duals, _OrthoBasis(tol))), n)
        return ((n * n, generations, [n]) if witness is None else None), witness
    return None, None


# -- polynomials over Q, ascending Fraction coefficients ---------------------


def _monic(p: list) -> list:
    """p without its zero leading coefficients, divided by the leading one;
    [] for the zero polynomial."""
    while p and not p[-1]:
        p = p[:-1]
    return [c / p[-1] for c in p]


def _poly_gcd(f: list, g: list) -> list:
    f, g = _monic(f), _monic(g)
    while g:
        f, g = g, _monic(poly_divmod(f, g, Domain.RATIONAL)[1])
    return f


def _simple_part(f: list) -> list:
    """The product of the monic irreducible factors of multiplicity one in
    the monic f, by the first step of Yun's square-free decomposition:
    with g = gcd(f, f'), b = f/g and c = f'/g, it is gcd(b, c - b')."""
    def derivative(p):
        return [k * c for k, c in enumerate(p)][1:]
    g = _poly_gcd(f, derivative(f))
    b = poly_divmod(f, g, Domain.RATIONAL)[0]
    c = poly_divmod(derivative(f), g, Domain.RATIONAL)[0]
    return _poly_gcd(b, [x - y for x, y in zip(c, derivative(b))])


def _rational_root(p: list) -> Fraction | None:
    """The largest rational root found of the monic p, or None.  Exact up to
    degree 2, so None there proves a quadratic p irreducible, which Norton's
    test over its field needs.  Above degree 2, the numeric roots of p read
    as small-denominator rationals, each verified exactly, so a root may be
    missed but never made up."""
    if len(p) == 2:
        return -p[0]
    if len(p) == 3:
        disc = p[1] * p[1] - 4 * p[0]
        a, b = isqrt(max(disc.numerator, 0)), isqrt(disc.denominator)
        if a * a != disc.numerator or b * b != disc.denominator:
            return None
        return (Fraction(a, b) - p[1]) / 2
    try:
        zs = np.roots([float(c) for c in reversed(p)])
    except OverflowError:
        return None
    def is_root(c):
        return not poly_eval_scalar(p, c, Domain.RATIONAL)
    found = [_reconstruct_rational(complex(z), is_root) for z in zs]
    return max((r for r in found if r is not None), default=None)


class _PairBasis(_EchelonBasis):
    """Echelon basis of the first columns of n x 2 integer pairs [x, y],
    keeping every pair whose first column it accepts."""

    def __init__(self):
        super().__init__()
        self.pairs: list[np.ndarray] = []

    def insert(self, x: np.ndarray) -> bool:
        if not super().insert(x[:, 0]):
            return False
        self.pairs.append(x)
        return True


def _theta_kernels(a: Mat) -> tuple[list, Fraction | None, list[Mat], list[Mat]]:
    """Norton's eigen-structure of the RATIONAL a = rho(s1): (p, lam,
    kernel, dual kernel) for the simple part p of a's characteristic
    polynomial, its rational root lam (None for a quadratic p without one)
    and the kernels of theta = a - lam*I, or p(a), and of theta^T; both
    empty for any other p.

    An a that Mat._split reads as c*I beside a block B on S is read on B:
    p is the simple part of charpoly(B) (x - c)^min(n - |S|, 2), as only
    whether c's multiplicity is 0, 1 or more matters, and theta is an
    invertible scalar off S unless lam = c, so the kernels are B's placed
    at S, equal to the full matrix's as reduced echelon form is unique.
    lam = c, at the one index outside S, and no split read the full matrix.
    """
    n, split = a.rows, a._split()
    b, c, block = a, None, None
    if split is not None:
        c, _, block = split
        b = a._principal(block)
    f = charpoly(b)
    for _ in range(min(n - b.rows, 2)):
        f = [x - c * y for x, y in zip([0] + f, f + [0])]
    p = _simple_part(f)
    lam = _rational_root(p)
    if lam is None and len(p) != 3:
        return p, None, [], []
    if lam == c:  # also no split, where both are None
        b = a
    theta = b._shift(lam) if lam is not None else poly_eval_matrix(p, b)
    kernels = nullspace(theta), nullspace(theta.transpose())
    if b is not a:  # B's kernel vectors, placed at S's indices
        zero, pos = ops_for(a.domain).zero, {i: k for k, i in enumerate(block)}
        kernels = tuple([Mat.column_vector([v.entries[pos[i]] if i in pos else zero
                                            for i in range(n)], a.domain) for v in k]
                        for k in kernels)
    return p, lam, *kernels


def _exact_norton(gens: list[Mat], max_generations: int | None = None, split: bool = False
                  ) -> tuple[tuple[int, int, list[int]] | None, InvariantSubspaceReport | None]:
    """Norton's test over Q (Holt and Rees, "Testing modules for
    irreducibility", 1994, section 2), on the RATIONAL generator images, as
    _norton's pair with a raw span (dimension, generation count, summand
    dimensions): (n^2, the spins' largest count, [n]) when the test
    certifies that the module is absolutely irreducible, and the exact
    witness of a short spin.  With split and a rational root, both spins
    run even when the kernel spin stops short, and a module they split
    comes back with its span from _split beside the kernel spin's witness.

    Let p be the part of multiplicity one of the characteristic polynomial
    of a = rho(s1), found without factoring, and q an irreducible factor of
    p: x - lam for a rational root lam, or else p itself when it is a
    quadratic.  theta = q(a) has nullity deg q, and ker theta is a line over
    the field Q[x]/(q).  The module is irreducible over Q when one kernel
    vector v of theta spins to Q^n under the generators and one kernel
    vector w of theta^T spins to Q^n under their transposes: a proper
    submodule either meets ker theta, and then contains it, v included, or
    misses it, and then its annihilator contains ker theta^T, w included.

    For deg q = 1 the kernel stays one-dimensional over C, so the module is
    absolutely irreducible.  For deg q = 2 the endomorphism ring E has
    dimension 1 or 2, since phi -> phi(v) embeds it in ker theta, and it
    has dimension 2 exactly when v -> a v extends to an endomorphism.  So v
    is spun paired with a v, and the test certifies only when the pairs do
    not span the graph of a map that commutes with the generators.

    Declines on any other p or commuting pairs.  _theta_kernels reads p, q
    and both kernels on the block B of a = c*I beside B, in |B|
    dimensions, and on the full matrix when lam = c or a has no split.
    The spins stop by dimension, so max_generations caps only the closure
    that _split runs on the complement.
    """
    a = gens[0]
    n = a.rows
    _, lam, kernel, dual_kernel = _theta_kernels(a)
    pair = lam is None
    if len(kernel) != (2 if pair else 1):  # theta^T has the same nullity
        return None, None
    ops = [_integer_array(g) for g in gens]
    v = kernel[0]
    seed = Mat.from_columns([v, a @ v]) if pair else v
    spun = _PairBasis() if pair else _EchelonBasis()
    dual = _EchelonBasis()
    both = split and not pair
    generations, witness = _full_spins(
        ((_integer_array(seed), ops, spun),
         (_integer_array(dual_kernel[0]), [g.T for g in ops], dual)),
        n, both)
    if witness is None and pair and _commutes(spun.pairs, ops):
        return None, None
    if witness is None:
        return (n * n, generations, [n]), None
    return (_split(gens, spun, dual, generations, max_generations) if both else None), witness


def _commutes(pairs: list[np.ndarray], ops: list[np.ndarray]) -> bool:
    """Whether the span of the pairs [x_k, y_k], whose x_k are a basis, is
    invariant under the ops acting on both columns: that is, whether the map
    x_k -> y_k commutes with every op."""
    graph = _EchelonBasis()
    _spin(pairs, ops, graph, len(pairs) + 1)
    return graph.dim == len(pairs)


def _split(gens: list[Mat], spun: _EchelonBasis, dual: _EchelonBasis, generations: int,
           max_generations: int | None) -> tuple[int, int, list[int]] | None:
    """The raw span (dimension, generation count, summand dimensions) of V
    = S + A, split by the two spins of _exact_norton at a simple rational
    eigenvalue lam of rho(s1), whose largest count is generations: S is the
    kernel spin, A the annihilator of the dual spin.  None unless dim S +
    dim A = n and S meets A only in 0.

    A is the largest submodule without the kernel vector v: one without v
    lies in the image of theta, since lam is simple, and the image of theta
    is the annihilator of ker theta^T.  So a submodule of S is S or lies in
    S meet A, and when that is 0, S is irreducible, absolutely so as the
    spins do not depend on the field.  lam is an eigenvalue on S and on no
    composition factor of A, so none of those is isomorphic to S, and the
    image of the group algebra is End(S) times its image on A.  The span is
    then (dim S)^2 plus the span on A by the same rule: _exact_norton's
    certificate or split of the generators on A, else the exact closure,
    which max_generations caps.
    """
    if spun.dim != dual.dim:  # dim A = n - dim of the dual spin
        return None
    basis = _spun(dual, dual=True)
    joint = _EchelonBasis(spun.rows)
    ints = _integer_array(basis)
    if not all(joint.insert(ints[:, k]) for k in range(basis.cols)):
        return None
    rest = _restricted(gens, basis)
    span, _ = _exact_norton(rest, max_generations, split=True)
    if span is None:
        k = basis.cols
        span = (*_image_span(rest, k, Domain.RATIONAL, DEFAULT_TOL, max_generations), [k])
    dim, more, parts = span
    return spun.dim ** 2 + dim, max(generations, more), [spun.dim] + parts


def _restricted(gens: list[Mat], basis: Mat) -> list[Mat]:
    """The generators on the invariant column span of basis, a kernel basis
    from nullspace, in its columns: each column k is alone nonzero in some
    row r, so g B = B M gives row k of M as row r of g B over B[r, k]."""
    lone = {cols[0]: r for r, cols in enumerate(basis._nonzeros()) if len(cols) == 1}
    rows = [lone[k] for k in range(basis.cols)]
    return [Mat.from_rows([[x / basis.at(r, k) for x in g.row(r)]
                           for k, r in enumerate(rows)], Domain.RATIONAL) @ basis
            for g in gens]


# ---------------------------------------------------------------------------
# common eigenvectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonEigReport:
    vector: Mat
    eigenvalues: tuple
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "vector": self.vector.to_json_dict(),
            "eigenvalues": [scalar_to_json(x) for x in self.eigenvalues],
            "exact": self.exact,
        }


def common_eigenvector(rho: Rep, tol: float = DEFAULT_TOL,
                       cluster_tol: float = DEFAULT_CLUSTER_TOL,
                       node_cap: int = 4000) -> CommonEigReport | None:
    """Search for a vector that every generator scales.

    Works on the complexification by intersecting eigenspaces generator by
    generator (branching over eigenvalue choices, biggest eigenspaces first).
    Exact-domain inputs get a rational reconstruction attempt so the clean
    fixed vectors come back exact.  Returns None when no line survives.
    """
    if rho.domain is Domain.LAURENT:
        raise ValueError("common_eigenvector runs over a scalar field; specialize first")
    cgens = [g.as_numpy() for g in rho.gens]
    n = rho.degree
    state = {"nodes": 0}

    def clusters_of(arr: np.ndarray):
        cl = eigen_numeric(Mat.from_numpy(arr), cluster_tol)
        return sorted(cl, key=lambda t: (-t[1], t[0].real, t[0].imag))

    def recurse(idx: int, basis: np.ndarray):
        if basis.shape[1] == 0:
            return None
        if idx == len(cgens):
            return basis
        g = cgens[idx]
        for mu, _ in clusters_of(g):
            state["nodes"] += 1
            if state["nodes"] > node_cap:
                return None
            x = _np_nullspace(g @ basis - mu * basis, tol)
            if x.shape[1] == 0:
                continue
            q, _ = np.linalg.qr(basis @ x)
            found = recurse(idx + 1, q[:, : x.shape[1]])
            if found is not None:
                return found
        return None

    final = recurse(0, np.eye(n, dtype=complex))
    if final is None:
        return None
    v = final[:, 0]
    k = int(np.argmax(np.abs(v)))
    v = v / v[k]  # eigenvalues read off at the largest entry, robustly
    lambdas = [complex((g @ v)[k]) for g in cgens]
    j = next(i for i in range(n) if abs(v[i]) > cluster_tol)
    v = v / v[j]  # first nonzero coordinate becomes 1
    if rho.domain is Domain.RATIONAL:
        exact = _reconstruct_common_eig(rho, v)
        if exact is not None:
            return exact
    vec = Mat(n, 1, Domain.COMPLEX, v)
    return CommonEigReport(vec, tuple(lambdas), False)


def _reconstruct_common_eig(rho: Rep, v: np.ndarray) -> CommonEigReport | None:
    cand = []
    for x in v:
        if abs(x.imag) > 1e-6 * max(1.0, abs(x)):
            return None
        cand.append(Fraction(float(x.real)).limit_denominator(10**9))
    vec = Mat.column_vector(cand, Domain.RATIONAL)
    if vec.max_norm() == 0.0:
        return None
    pivot = next(i for i, c in enumerate(cand) if c != 0)
    lambdas = []
    for g in rho.gens:
        w = g @ vec
        lam = w.at(pivot, 0) / cand[pivot]
        if w != vec.scale(lam):
            return None
        lambdas.append(lam)
    scale = 1 / cand[pivot]
    vec = vec.scale(scale)  # first nonzero coordinate becomes 1
    return CommonEigReport(vec, tuple(lambdas), True)


# ---------------------------------------------------------------------------
# boundary-pinned eigenvector witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    strands: int
    vector: Mat
    x: object
    y: object
    exact: bool
    residuals: tuple  # ((generator index, residual), ...)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "strands": self.strands,
            "vector": self.vector.to_json_dict(),
            "x": scalar_to_json(self.x),
            "y": scalar_to_json(self.y),
            "exact": self.exact,
            "residuals": [{"generator": i, "residual": r} for i, r in self.residuals],
        }


def _vec_residual(g: Mat, v: Mat, lam) -> float:
    return relative_residual(g @ v, v.scale(lam))


def subgroup_line_witness(rho: Rep, tol: float = DEFAULT_TOL,
                          cluster_tol: float = DEFAULT_CLUSTER_TOL) -> WitnessReport | None:
    """Find v with s_i v = y v for i <= m-3 and s_{m-1} v = x v.

    Generator s_{m-2} is deliberately left unconstrained; what it does to v
    is the interesting part and is measured by theta_cycle_audit.  Candidate
    eigenvalue pairs are tried closest to the positive real axis first, so a
    positive real x wins over its negative partner when both admit witnesses.
    """
    m = rho.strands
    if m < 4:
        raise ValueError("witness search needs at least 4 strands")
    if rho.domain is Domain.LAURENT:
        raise ValueError("witness search runs over a scalar field; specialize first")
    ys = _eig_candidates(rho.gen(1), cluster_tol)
    xs = _eig_candidates(rho.gen(m - 1), cluster_tol)
    crho = rho if rho.domain is Domain.COMPLEX else None
    for y0, _, y_exact, _ in ys:
        for x0, _, x_exact, _ in xs:
            use_exact = rho.domain is Domain.RATIONAL and y_exact and x_exact
            if use_exact:
                work = rho
                yv, xv = y0, x0
            else:
                if crho is None:
                    crho = rho.to_complex()
                work = crho
                yv, xv = complex(y0), complex(x0)
            blocks = [work.gen(i)._shift(yv) for i in range(1, m - 2)]
            blocks.append(work.gen(m - 1)._shift(xv))
            stacked = Mat.from_rows([r for b in blocks for r in b.row_lists()], work.domain)
            kern = nullspace(stacked, tol)
            if not kern:
                continue
            v = kern[0]
            residuals = tuple(
                [(i, _vec_residual(work.gen(i), v, yv)) for i in range(1, m - 2)]
                + [(m - 1, _vec_residual(work.gen(m - 1), v, xv))]
            )
            return WitnessReport(m, v, xv, yv, use_exact, residuals)
    return None


# ---------------------------------------------------------------------------
# central element and the theta conjugation cycle
# ---------------------------------------------------------------------------


def _scalar_of(p: Mat, tol: float):
    if p.domain is not Domain.COMPLEX:
        d = p.at(0, 0)
        # the first nonzero of p - d*I, row by row, is the first entry off d*I
        for i, cols in enumerate(p._shift(d)._nonzeros()):
            if cols:
                raise NotScalar("matrix is not scalar at (%d, %d)" % (i, cols[0]))
        return d
    d = p.trace() / p.rows
    resid = p._shift(d).max_norm()
    if resid > tol * max(p.max_norm(), 1e-300):
        raise NotScalar("matrix is off scalar by relative %.3g" % (
            resid / max(p.max_norm(), 1e-300)))
    return d


def central_scalar(rho: Rep, tol: float = DEFAULT_TOL):
    """The scalar d with rho(theta)^m = d*I, where theta = s1..s_{m-1}.

    theta^m is central, so an irreducible representation must send it to a
    scalar; NotScalar otherwise.  The block family gives d = t^(m-1), and a
    twist by the character y multiplies d by y^(m(m-1)).
    """
    m = rho.strands
    p = eval_word(rho, theta_word(m)) ** m
    return _scalar_of(p, tol)


@dataclass(frozen=True)
class CycleCell:
    i: int          # generator index
    k: int          # translate index
    kind: str       # "x", "y" or "free"
    residual: float | None
    parallel: bool | None  # free cells only: did the vector come back scaled anyway

    def to_json_dict(self) -> dict:
        return {"i": self.i, "k": self.k, "kind": self.kind,
                "residual": self.residual, "parallel": self.parallel}


@dataclass(frozen=True)
class CycleAuditReport:
    strands: int
    x: object
    y: object
    exact: bool
    d_scalar: object          # None when theta^m is not scalar
    d_note: str
    cycle_residuals: tuple
    cycle_ok: bool
    cells: tuple
    independence: int
    tol: float

    @property
    def table_ok(self) -> bool:
        limit = 0.0 if self.exact else self.tol
        return all(c.residual <= limit for c in self.cells if c.residual is not None)

    @property
    def degeneracies(self) -> tuple:
        return tuple(c for c in self.cells if c.kind == "free" and c.parallel)

    @property
    def independence_ok(self) -> bool:
        return self.independence >= self.strands - 2

    def to_json_dict(self) -> dict:
        return {
            "strands": self.strands,
            "x": scalar_to_json(self.x),
            "y": scalar_to_json(self.y),
            "exact": self.exact,
            "d_scalar": scalar_to_json(self.d_scalar),
            "d_note": self.d_note,
            "cycle_residuals": list(self.cycle_residuals),
            "cycle_ok": self.cycle_ok,
            "table_ok": self.table_ok,
            "cells": [c.to_json_dict() for c in self.cells],
            "degeneracies": [c.to_json_dict() for c in self.degeneracies],
            "independence": self.independence,
            "independence_ok": self.independence_ok,
            "tol": self.tol,
        }


def _is_exact_scalar_for(domain: Domain, s) -> bool:
    if isinstance(s, (int, Fraction)):
        return True
    return domain is Domain.LAURENT and isinstance(s, LaurentPoly)


def _parallel(w: Mat, v: Mat, tol: float) -> bool:
    if w.domain is not Domain.COMPLEX:
        n = w.rows
        for a in range(n):
            for b in range(a + 1, n):
                lhs = w.at(a, 0) * v.at(b, 0)
                rhs = w.at(b, 0) * v.at(a, 0)
                if lhs != rhs:
                    return False
        return True
    wv = w.as_numpy().ravel()
    vv = v.as_numpy().ravel()
    nw = np.linalg.norm(wv)
    nv = np.linalg.norm(vv)
    if nw == 0.0 or nv == 0.0:
        return True
    coef = (vv.conj() @ wv) / (nv * nv)
    return float(np.linalg.norm(wv - coef * vv) / nw) <= tol


def _normalize_translate(w: Mat) -> Mat:
    # translates are only used projectively (eigen-relation residuals, the
    # parallel test and the rank of a stacked prefix are all scale invariant),
    # and theta grows them geometrically; rescaling each one keeps the rank
    # test away from the relative floor and exact entries small
    if w.domain is Domain.COMPLEX:
        scale = w.max_norm()
        return w.scale(1.0 / scale) if scale > 0.0 else w
    column = [w.at(r, 0) for r in range(w.rows)]
    return Mat.column_vector(_canonical_exact_vector(column, w.domain), w.domain)


def theta_cycle_audit(rho: Rep, v: Mat, x, y,
                      tol: float = DEFAULT_TOL) -> CycleAuditReport:
    """Audit the conjugation cycle of theta = s1..s_{m-1} against a witness.

    Checks, with one residual each:
      * theta s_i theta^-1 = s_{i+1} for i < m-1, and the cycle closes
        through s_0 = theta s_{m-1} theta^-1 back to s_1;
      * the translates v_k = theta^(k+1) v satisfy s_i v_k = x v_k when
        i = k and s_i v_k = y v_k when (k - i) mod m lies in 2..m-2; the two
        leftover diagonals per generator are unconstrained and are only
        flagged when the vector comes back scaled anyway (a degeneracy);
      * how many leading translates v_1..v_m stay linearly independent.

    The witness must satisfy its defining relations (s_i v = y v for
    i <= m-3, s_{m-1} v = x v) or WitnessInvalid is raised.
    """
    m = rho.strands
    if m < 3:
        raise ValueError("cycle audit needs at least 3 strands")
    if v.cols != 1 or v.rows != rho.degree:
        raise ValueError("witness must be a degree-length column vector")
    exact = (rho.domain is not Domain.COMPLEX
             and v.domain is rho.domain
             and _is_exact_scalar_for(rho.domain, x)
             and _is_exact_scalar_for(rho.domain, y))
    if rho.domain is Domain.LAURENT and not exact:
        raise ValueError("Laurent-domain audit needs exact scalars and vector")
    if exact:
        o = ops_for(rho.domain)
        work, wv = rho, v
        xs, ys = o.coerce(x), o.coerce(y)
    else:
        work, wv = rho.to_complex(), v.to_complex()
        xs, ys = complex(x), complex(y)
    if wv.max_norm() == 0.0:
        raise WitnessInvalid("witness vector is zero")
    limit = 0.0 if exact else tol
    for i in list(range(1, m - 2)) + [m - 1]:
        lam = ys if i <= m - 3 else xs
        r = _vec_residual(work.gen(i), wv, lam)
        if r > limit:
            raise WitnessInvalid(
                "witness fails its defining relation at s%d (residual %.3g)" % (i, r))

    theta = eval_word(work, theta_word(m))
    theta_inv = theta.inverse()
    try:
        d = _scalar_of(theta ** m, tol)
        d_note = ""
    except NotScalar as exc:
        d = None
        d_note = str(exc)

    cycle_residuals = []
    for i in range(1, m - 1):
        cycle_residuals.append(relative_residual(
            theta @ work.gen(i) @ theta_inv, work.gen(i + 1)))
    sigma0 = theta @ work.gen(m - 1) @ theta_inv
    cycle_residuals.append(relative_residual(theta @ sigma0 @ theta_inv, work.gen(1)))
    cycle_ok = all(r <= limit for r in cycle_residuals)

    translates = []
    w = theta @ (theta @ wv)
    for _ in range(m):
        w = _normalize_translate(w)
        translates.append(w)
        w = theta @ w

    cells = []
    for i in range(1, m):
        gi = work.gen(i)
        for k in range(1, m + 1):
            r = (k - i) % m
            vk = translates[k - 1]
            if r == 0:
                cells.append(CycleCell(i, k, "x", _vec_residual(gi, vk, xs), None))
            elif r in (1, m - 1):
                cells.append(CycleCell(i, k, "free", None, _parallel(gi @ vk, vk, tol)))
            else:
                cells.append(CycleCell(i, k, "y", _vec_residual(gi, vk, ys), None))

    independence = 0
    for k in range(1, m + 1):
        stacked = Mat.from_columns(translates[:k])
        r = rank_exact(stacked) if exact else rank_numeric(stacked, tol)
        if r < k:
            break
        independence = k

    return CycleAuditReport(m, xs, ys, exact, d, d_note,
                            tuple(cycle_residuals), cycle_ok, tuple(cells),
                            independence, tol)


@dataclass(frozen=True)
class RankConclusion:
    y: object
    rank: int
    degree: int
    exact: bool

    @property
    def ok(self) -> bool:
        # the dichotomy threshold: a y-eigenspace of dimension degree-2 or more
        return self.rank <= 2

    def to_json_dict(self) -> dict:
        return {"y": scalar_to_json(self.y), "rank": self.rank,
                "degree": self.degree, "exact": self.exact, "ok": self.ok}


def rank_conclusion_check(rho: Rep, y, tol: float = DEFAULT_TOL) -> RankConclusion:
    """Rank of rho(s1) - y*I, exact when both sides allow it."""
    exact = rho.domain is not Domain.COMPLEX and _is_exact_scalar_for(rho.domain, y)
    rank = _ShiftRank(rho.gen(1), tol)
    r = rank.exact(y) if exact else rank.numeric(y)
    return RankConclusion(y, r, rho.degree, exact)


# ---------------------------------------------------------------------------
# Jordan projections and invariant subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanProjectionReport:
    eigenvalue: object
    dim: int
    basis: tuple  # column vectors
    minimal_polynomial: tuple

    def to_json_dict(self) -> dict:
        return {
            "eigenvalue": scalar_to_json(self.eigenvalue),
            "dim": self.dim,
            "basis": [b.to_json_dict() for b in self.basis],
            "minimal_polynomial": [scalar_to_json(c) for c in self.minimal_polynomial],
        }


def jordan_projection(m: Mat, lam, tol: float = DEFAULT_TOL,
                      cluster_tol: float = DEFAULT_CLUSTER_TOL) -> JordanProjectionReport:
    """Column space of q(m) where q = minpoly(m) / (X - lam).

    The dimension equals the number of maximal-size Jordan blocks at lam,
    and for a diagonalizable matrix the basis spans the lam-eigenspace.
    NotEigenvalue if lam is not a root of the minimal polynomial.
    """
    if not m.is_square:
        raise ValueError("jordan_projection needs a square matrix")
    o = ops_for(m.domain)
    if m.domain is Domain.COMPLEX:
        lam_c = complex(lam)
        scale = max(m.max_norm(), 1.0)
        centers = [c for c, _ in eigen_numeric(m, cluster_tol)]
        near = min(centers, key=lambda c: abs(c - lam_c), default=None)
        # written so that a NaN lam fails the comparison and is refused
        if near is None or not abs(near - lam_c) <= cluster_tol * scale:
            raise NotEigenvalue("%s is not an eigenvalue of the matrix" % lam_c)
        mp = minpoly(m, tol, cluster_tol)
        q, _ = poly_divmod(mp, [-near, o.one], m.domain)
        basis = column_space(poly_eval_matrix(q, m), tol)
        return JordanProjectionReport(near, len(basis), tuple(basis), tuple(mp))
    lam_e = o.coerce(lam)
    mp = minpoly(m)
    q, (rem,) = poly_divmod(mp, [-lam_e, o.one], m.domain)
    if not o.is_zero(rem):
        raise NotEigenvalue("%s does not annihilate the minimal polynomial" % (lam,))
    basis = column_space(poly_eval_matrix(q, m))
    return JordanProjectionReport(lam_e, len(basis), tuple(basis), tuple(mp))


@dataclass(frozen=True)
class InvarianceReport:
    entries: tuple  # ((generator index, ok, residual), ...)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "entries": [{"generator": i, "ok": ok, "residual": r}
                        for i, ok, r in self.entries],
        }


def subgroup_invariance_check(rho: Rep, indices, basis,
                              tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Do the given generators map span(basis) into itself?

    basis is a matrix whose columns span the subspace, or a list of column
    vectors.  Exact domains decide membership by rank, the complex domain by
    the projection defect relative to the mapped columns.
    """
    if isinstance(basis, (list, tuple)):
        basis = Mat.from_columns(list(basis))
    if basis.domain is not rho.domain:
        raise ValueError("basis domain does not match the representation")
    entries = []
    if rho.domain is Domain.COMPLEX:
        u, s, _ = np.linalg.svd(basis.as_numpy(), full_matrices=False)
        q = u[:, :_singular_rank(s, tol)]
        for i in indices:
            w = (rho.gen(i) @ basis).as_numpy()
            defect = w - q @ (q.conj().T @ w)
            scale = max(float(np.max(np.abs(w))), 1e-300)
            resid = float(np.max(np.abs(defect))) / scale
            entries.append((i, resid <= tol, resid))
    else:
        rv = rank_exact(basis)
        for i in indices:
            w = rho.gen(i) @ basis
            both = Mat(basis.rows, basis.cols + w.cols, basis.domain,
                       [x for row in range(basis.rows)
                        for x in (list(basis.row(row)) + list(w.row(row)))])
            grown = rank_exact(both) - rv
            entries.append((i, grown == 0, float(grown)))
    return InvarianceReport(tuple(entries))


@dataclass(frozen=True)
class InvariantSubspaceReport:
    found: bool
    dim: int
    basis: Mat | None
    trials: int
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "found": self.found,
            "dim": self.dim,
            "basis": self.basis.to_json_dict() if self.basis is not None else None,
            "trials": self.trials,
            "note": self.note,
        }


def _random_image_combination(rho: Rep, rng: random.Random) -> Mat:
    terms = rng.randint(2, 4)
    o = ops_for(rho.domain)
    acc = Mat.zeros(rho.degree, rho.degree, rho.domain)
    for _ in range(terms):
        word = Mat.identity(rho.degree, rho.domain)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, rho.strands - 1)
            word = word @ (rho.gen(i) if rng.random() < 0.7 else rho.gen_inverse(i))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        acc = acc + word.scale(o.coerce(c))
    return acc


def invariant_subspace_search(rho: Rep, tries: int = 30, seed: int = 0,
                              tol: float = DEFAULT_TOL,
                              cluster_tol: float = DEFAULT_CLUSTER_TOL) -> InvariantSubspaceReport:
    """Randomized search for a proper nonzero invariant subspace.

    Each trial draws a random integer combination of image matrices, picks a
    singular shift from its eigenvalues, and spins the kernel vectors under
    the generators.  A spin that stabilizes below the full degree exhibits
    invariance directly.  Rational representations only accept shifts that
    verify exactly, so a reported subspace is exact; the complex domain spins
    numerically, and a spun subspace counts only once _checked verifies it,
    else the search goes on.  A complex combination that overflows the float
    range ends the search with nothing found.  Deterministic for a fixed
    seed.
    """
    if rho.domain is Domain.LAURENT:
        raise ValueError("invariant subspace search runs over a scalar field; specialize first")
    n = rho.degree
    exact_domain = rho.domain is Domain.RATIONAL
    ops = [_integer_array(g) if exact_domain else g.as_numpy() for g in rho.gens]
    for trial in range(tries):
        rng = random.Random(seed * 1_000_003 + trial)
        with np.errstate(over="ignore", invalid="ignore"):
            a = _random_image_combination(rho, rng)
        if not exact_domain and not np.isfinite(a.entries).all():
            break  # products of the images leave the float range
        for c, _, exact, _ in _eig_candidates(a, cluster_tol):
            if exact_domain and not exact:
                continue
            for vec in nullspace(a._shift(c), tol):
                if exact_domain:
                    basis, start = _EchelonBasis(), _integer_array(vec)
                    note = ("spun from the kernel of a random image combination"
                            " shifted by %s" % c)
                else:
                    basis, start = _OrthoBasis(tol), vec.as_numpy()
                    note = "numeric spin from a singular shift %s" % c
                _spin([start], ops, basis, n)
                if not 0 < basis.dim < n:
                    continue
                found = _checked(rho, InvariantSubspaceReport(
                    True, basis.dim, _spun(basis), trial + 1, note), tol)
                if found is not None:
                    return found
    return InvariantSubspaceReport(False, 0, None, tries,
                                   "no proper invariant subspace surfaced")


def _spun(basis, dual: bool = False) -> Mat:
    """A spun subspace U as the columns of a Mat: the echelon rows made monic,
    or the orthonormal columns.  With dual, its annihilator {x : u^T x = 0}
    instead, which the generators keep when their transposes, or inverse
    transposes, keep U: u^T g x = (g^T u)^T x.  (The adjoints, not the
    generators, keep {x : u^H x = 0}.)"""
    if isinstance(basis, _OrthoBasis):
        q = basis.q[:, :basis.dim]
        return Mat.from_numpy(_np_nullspace(q.T, basis.tol) if dual else q)
    rows = Mat.from_rows(basis.vectors(), Domain.RATIONAL)
    return Mat.from_columns(nullspace(rows)) if dual else rows.transpose()


def _checked(rho: Rep, found: InvariantSubspaceReport,
             tol: float) -> InvariantSubspaceReport | None:
    """found, or None when rho is COMPLEX and subgroup_invariance_check puts
    a generator's residual above tol / 10: a numeric spin can stop short of
    an invariant subspace, as it does near u = 0."""
    if rho.domain is Domain.COMPLEX and not subgroup_invariance_check(
            rho, range(1, rho.strands), found.basis, tol / 10).ok:
        return None
    return found
