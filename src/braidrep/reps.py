"""Matrix representations of braid groups.

A ``Rep`` holds one invertible matrix per generator s1..s_{m-1}.  Two
families are built in:

  standard_rep(n)   n-dimensional over the Laurent ring: generator i acts as
                    the identity except for the 2x2 block [[0, t], [1, 0]]
                    in rows/columns (i, i+1).  Trace n-2, determinant -t.
  burau_rep(n)      the unreduced Burau family, block [[1-t, t], [1, 0]];
                    every row sums to 1, so the all-ones vector is fixed.

Representations can be twisted by a scalar character (every generator scaled
by y), specialized at t=u (exact rational or complex), and evaluated on braid
words.  Braid relations are verified on construction by default; the trusted
closed-form constructors defer the check explicitly since their relations
hold identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .braid import BraidWord
from .errors import (
    IndexOutOfRange,
    NotInvertible,
    NumericOverflow,
    RelationFailure,
    SchemaError,
    ZeroScalar,
    ZeroSubstitution,
)
from .laurent import LaurentPoly
from .matrix import (
    DEFAULT_TOL,
    Domain,
    Mat,
    _evaluate,
    _inverse_stack,
    _relative_residuals,
    _scale_complex,
    is_json_int,
    mat_from_json,
    ops_for,
    relative_residual,
)

__all__ = [
    "Rep",
    "RelationReport",
    "standard_rep",
    "burau_rep",
    "character_rep",
    "character_twist",
    "specialize",
    "eval_word",
    "check_braid_relations",
    "rep_from_json",
]


@dataclass(frozen=True)
class RelationEntry:
    kind: str  # "adjacent" or "far"
    i: int
    j: int
    residual: float

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j, "residual": self.residual}


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking all defining braid relations.

    Residuals are relative: |lhs - rhs| in max-norm divided by the larger
    side's max-norm.  Exact domains report exactly 0.0 on success.
    """

    domain: Domain
    tol: float
    entries: tuple[RelationEntry, ...]

    @property
    def max_residual(self) -> float:
        """The largest residual, or NaN when any is NaN: max() keeps a NaN
        only when it comes first."""
        residuals = [e.residual for e in self.entries]
        if any(math.isnan(r) for r in residuals):
            return math.nan
        return max(residuals, default=0.0)

    @property
    def ok(self) -> bool:
        if self.domain is Domain.COMPLEX:
            return self.max_residual <= self.tol
        return self.max_residual == 0.0

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.value,
            "tol": self.tol,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "relations": [e.to_json_dict() for e in self.entries],
        }


class Rep:
    """An assignment of one invertible matrix per braid generator.

    A COMPLEX rep holds its generators as one read-only (strands - 1, n, n)
    array, stack, and its Mats are views of it; gens may also be given as
    such an array, which the rep copies.  Its inverses are taken
    and checked in one batched call, at construction when check is set,
    else on first use, and are kept as one stack too (inverse_stack)."""

    def __init__(self, strands: int, gens, label: str = "", *,
                 check: bool = True, tol: float = DEFAULT_TOL):
        if strands < 2:
            raise ValueError("a representation needs at least 2 strands")
        if isinstance(gens, np.ndarray):
            stack = np.array(gens, dtype=complex)  # a copy the rep owns
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise ValueError("a generator stack must be an (m, n, n) array")
            count, degree, domain = len(stack), stack.shape[1], Domain.COMPLEX
        else:
            stack, gens = None, tuple(gens)
            count = len(gens)
            degree, domain = (gens[0].rows, gens[0].domain) if gens else (0, None)
        if count != strands - 1:
            raise ValueError("expected %d generator images, got %d" % (strands - 1, count))
        if degree < 1:
            raise ValueError("a representation needs degree at least 1")
        if stack is None:
            for g in gens:
                if not g.is_square or g.rows != degree or g.domain != domain:
                    raise ValueError("generator images must be square, one size, one domain")
            if domain is Domain.COMPLEX:
                stack = np.stack([g.entries for g in gens])
        if stack is not None:
            stack.flags.writeable = False
            gens = tuple(Mat._trusted(degree, degree, domain, a) for a in stack)
        self.strands = strands
        self.degree = degree
        self.domain = domain
        self.gens = gens
        self.stack = stack
        self.label = label
        self._inv_cache: dict[int, Mat] = {}
        self._inv_stack: np.ndarray | None = None
        self._relations: RelationReport | None = None
        if check:
            if domain is Domain.COMPLEX:
                self._inv_stack = _inverse_stack(stack, tol, "generator s{}: ")
            else:
                for i in range(1, strands):
                    self.gen_inverse(i)
            report = check_braid_relations(self, tol)
            if not report.ok:
                raise RelationFailure(
                    "braid relations fail, max residual %.3g" % report.max_residual
                )
            self._relations = report

    def gen(self, i: int) -> Mat:
        """Image of s_i, 1-based."""
        if not 1 <= i <= self.strands - 1:
            raise IndexOutOfRange("generator index %d outside 1..%d" % (i, self.strands - 1))
        return self.gens[i - 1]

    def gen_inverse(self, i: int) -> Mat:
        if not 1 <= i <= self.strands - 1:
            raise IndexOutOfRange("generator index %d outside 1..%d" % (i, self.strands - 1))
        k = i - 1
        if self.domain is Domain.COMPLEX:
            return Mat._trusted(self.degree, self.degree, Domain.COMPLEX, self.inverse_stack()[k])
        if k not in self._inv_cache:
            try:
                self._inv_cache[k] = self.gens[k].inverse()
            except NotInvertible as exc:
                raise NotInvertible("generator s%d: %s" % (i, exc)) from exc
        return self._inv_cache[k]

    def inverse_stack(self) -> np.ndarray:
        """A COMPLEX rep's generator inverses as one read-only array: those
        checked at construction, else all taken and checked at the default
        tolerance on first use."""
        if self.domain is not Domain.COMPLEX:
            raise ValueError("inverse_stack applies to COMPLEX representations")
        if self._inv_stack is None:
            self._inv_stack = _inverse_stack(self.stack, DEFAULT_TOL, "generator s{}: ")
        return self._inv_stack

    def to_complex(self) -> "Rep":
        if self.domain is Domain.COMPLEX:
            return self
        return Rep(self.strands, [g.to_complex() for g in self.gens],
                   self.label, check=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rep):
            return NotImplemented
        return (self.strands == other.strands and self.degree == other.degree
                and self.domain == other.domain and self.gens == other.gens)

    def __repr__(self) -> str:
        return "Rep(strands=%d, degree=%d, domain=%s, label=%r)" % (
            self.strands, self.degree, self.domain.value, self.label)

    def to_json_dict(self) -> dict:
        return {
            "strands": self.strands,
            "degree": self.degree,
            "domain": self.domain.value,
            "label": self.label,
            "generators": [g.to_json_dict() for g in self.gens],
        }


def rep_from_json(d: dict, *, check: bool = True, tol: float = DEFAULT_TOL) -> Rep:
    if not isinstance(d, dict):
        raise SchemaError("representation JSON must be an object")
    for key in ("strands", "degree", "domain", "generators"):
        if key not in d:
            raise SchemaError("representation JSON missing %r" % key)
    strands = d["strands"]
    if not is_json_int(strands) or strands < 2:
        raise SchemaError("strands must be an integer >= 2")
    if not is_json_int(d["degree"]):
        raise SchemaError("degree must be an integer")
    gens_json = d["generators"]
    if not isinstance(gens_json, list) or len(gens_json) != strands - 1:
        raise SchemaError("need exactly strands-1 generator matrices")
    gens = [mat_from_json(g) for g in gens_json]
    label = d.get("label", "")
    if not isinstance(label, str):
        raise SchemaError("label must be a string")
    try:
        rep = Rep(strands, gens, label, check=check, tol=tol)
    except (ValueError, NotInvertible, RelationFailure) as exc:
        if isinstance(exc, (NotInvertible, RelationFailure)):
            raise
        raise SchemaError(str(exc)) from exc
    if rep.degree != d["degree"]:
        raise SchemaError("declared degree %r does not match matrices" % (d["degree"],))
    if d["domain"] != rep.domain.value:
        raise SchemaError("declared domain %r does not match matrices" % (d["domain"],))
    return rep


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _block_family(n: int, block: list[list[LaurentPoly]], name: str) -> Rep:
    if n < 2:
        raise ValueError("need at least 2 strands")
    # the ring's own constants, which the product recognises by identity
    ops = ops_for(Domain.LAURENT)
    one, zero = ops.one, ops.zero
    # every generator is a copy of the identity with one 2x2 block written in
    eye = [zero] * (n * n)
    eye[::n + 1] = [one] * n
    eye_nz = [(r,) for r in range(n)]
    gens = []
    for i in range(n - 1):
        ent = eye.copy()
        nz = eye_nz.copy()
        for r in (0, 1):
            for c in (0, 1):
                ent[(i + r) * n + i + c] = block[r][c]
            nz[i + r] = tuple(i + c for c in (0, 1) if block[r][c])
        gens.append(Mat._trusted(n, n, Domain.LAURENT, ent, tuple(nz)))
    # closed-form matrices satisfy the relations identically; the check is
    # deferred here and exercised by the test suite instead
    return Rep(n, gens, "%s(%d)" % (name, n), check=False)


def standard_rep(n: int) -> Rep:
    """The n-dimensional family with generator block [[0, t], [1, 0]]."""
    t = LaurentPoly.t()
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    return _block_family(n, [[zero, t], [one, zero]], "standard")


def burau_rep(n: int) -> Rep:
    """The unreduced Burau family, generator block [[1-t, t], [1, 0]]."""
    t = LaurentPoly.t()
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    return _block_family(n, [[one - t, t], [one, zero]], "burau")


def character_rep(strands: int, y, domain: Domain | None = None) -> Rep:
    """The one-dimensional representation sending every generator to [y]."""
    if domain is None:
        if isinstance(y, LaurentPoly):
            domain = Domain.LAURENT
        elif isinstance(y, (int, Fraction)):
            domain = Domain.RATIONAL
        else:
            domain = Domain.COMPLEX
    g = Mat(1, 1, domain, [y])
    if ops_for(domain).is_zero(g.at(0, 0)):
        raise ZeroScalar("character value must be nonzero")
    return Rep(strands, [g] * (strands - 1), "chi(%s)" % _fmt_scalar(g.at(0, 0)),
               check=False)


def _fmt_scalar(y) -> str:
    if isinstance(y, LaurentPoly):
        return y.format()
    if isinstance(y, Fraction):
        return str(y)
    if isinstance(y, complex):
        if y.imag == 0:
            return repr(y.real)
        return repr(y)
    return str(y)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def character_twist(rho: Rep, y) -> Rep:
    """Tensor with the character y: every generator image is scaled by y.

    y must be invertible in the representation's domain (nonzero scalar, or a
    unit of the Laurent ring).  Finite complex generators that the scaling
    takes beyond the float range raise NumericOverflow."""
    o = ops_for(rho.domain)
    y = o.coerce(y)
    if o.is_zero(y):
        raise ZeroScalar("twist by zero leaves the general linear group")
    if rho.domain is Domain.LAURENT and not y.is_unit:
        raise NotInvertible("twist scalar must be a unit of the Laurent ring: %s" % y)
    label = "chi(%s)*%s" % (_fmt_scalar(y), rho.label or "rep")
    if rho.domain is Domain.COMPLEX:
        with np.errstate(over="ignore", invalid="ignore"):
            stack = _scale_complex(rho.stack, y)
        if not np.isfinite(stack).all() and np.isfinite(rho.stack).all():
            raise NumericOverflow(
                "the twist by y = %s takes generator entries beyond the float range,"
                " largest entry %.3g" % (_fmt_scalar(y), np.abs(rho.stack).max()))
        return Rep(rho.strands, stack, label, check=False)
    return Rep(rho.strands, [g.scale(y) for g in rho.gens], label, check=False)


def specialize(rho: Rep, u) -> Rep:
    """Evaluate a Laurent-domain representation at t=u.

    Exact rational u gives a RATIONAL representation, float or complex u a
    COMPLEX one.  All generators go through one _evaluate call, so each
    distinct entry of the family is evaluated once.  u=0 is rejected
    (generator determinants vanish with t); u=1 is allowed but flagged in
    the label as the degenerate permutation point.  Invertibility of every
    image is re-verified.
    """
    if rho.domain is not Domain.LAURENT:
        raise ValueError("specialize applies to Laurent-domain representations")
    if u == 0:
        raise ZeroSubstitution("t=0 is outside the invertible locus")
    exact = isinstance(u, (int, Fraction))
    u = Fraction(u) if exact else complex(u)
    gens = _evaluate(rho.gens, u)
    if exact:
        for k, g in enumerate(gens):
            if g.det() == 0:
                raise NotInvertible("generator s%d is singular at t=%s" % (k + 1, u))
    label = "%s@t=%s" % (rho.label or "rep", _fmt_scalar(u))
    if u == 1:
        label += " [u=1 permutation point]"
    out = Rep(rho.strands, gens, label, check=False)
    if not exact:
        out._inv_stack = _inverse_stack(out.stack, DEFAULT_TOL)
    return out


def eval_word(rho: Rep, w: BraidWord) -> Mat:
    """Image of a braid word: the ordered product of generator images."""
    if w.strands != rho.strands:
        raise ValueError("word strands %d do not match representation strands %d"
                         % (w.strands, rho.strands))
    out = Mat.identity(rho.degree, rho.domain)
    for idx, sign in w.letters:
        out = out @ (rho.gen(idx) if sign > 0 else rho.gen_inverse(idx))
    return out


def check_braid_relations(rho: Rep, tol: float = DEFAULT_TOL) -> RelationReport:
    """Verify s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and far commutation.

    Returns a report with one relative max-norm residual per relation; exact
    domains must come out identically zero.  A representation checked on
    construction keeps its report, which is returned again for the same tol.

    Mat._split reads an exact generator as c*I off a closed block S, the
    moved rows (those other than c*e_r) and their nonzero columns.
      - Far pair, supports: g = c*I + D with D in the moved rows and the
        columns of S, and scalars commute, so g_i g_j - g_j g_i =
        D_i D_j - D_j D_i.  When S_i misses the moved rows of g_j and S_j
        those of g_i, both products vanish: residual 0.0.
      - Any pair, blocks: both generators are block-diagonal on U = S_i | S_j
        and its complement, so each side of a relation is the same word in
        the U blocks beside a scalar: c_i c_j on both sides of a far pair,
        c_i^2 c_{i+1} and c_i c_{i+1}^2 for an adjacent one.  When those
        agree (c_i = c_{i+1}) the relation holds exactly when it holds on
        the U blocks; a match has residual 0.0.
    Every other relation, failing ones included, is multiplied out in full,
    so its residual is the dense one.

    A COMPLEX rep is checked on its stack (_stacked_relations): all
    relations at once, in blocks of stacked products, each residual bit for
    bit relative_residual's.  When the products of every adjacent relation
    overflow from finite generators, NumericOverflow is raised rather than
    a report of NaN residuals.
    """
    if rho._relations is not None and rho._relations.tol == tol:
        return rho._relations
    if rho.domain is Domain.COMPLEX:
        return RelationReport(rho.domain, tol, _stacked_relations(rho.stack))
    gens = rho.gens
    m = rho.strands
    splits = [g._split() for g in gens]

    def holds_on_block(i: int, j: int, adjacent: bool) -> bool:
        si, sj = splits[i], splits[j]
        if si is None or sj is None or (adjacent and si[0] != sj[0]):
            return False
        union = sorted(set(si[2]).union(sj[2]))
        a, b = gens[i]._principal(union), gens[j]._principal(union)
        return a @ b @ a == b @ a @ b if adjacent else a @ b == b @ a

    entries = []
    for i in range(m - 2):
        if holds_on_block(i, i + 1, True):
            residual = 0.0
        else:
            a, b = gens[i], gens[i + 1]
            residual = relative_residual(a @ b @ a, b @ a @ b)
        entries.append(RelationEntry("adjacent", i + 1, i + 2, residual))
    for i in range(m - 1):
        for j in range(i + 2, m - 1):
            si, sj = splits[i], splits[j]
            if ((si and sj and si[1].isdisjoint(sj[2]) and sj[1].isdisjoint(si[2]))
                    or holds_on_block(i, j, False)):
                residual = 0.0
            else:
                residual = relative_residual(gens[i] @ gens[j], gens[j] @ gens[i])
            entries.append(RelationEntry("far", i + 1, j + 1, residual))
    return RelationReport(rho.domain, tol, tuple(entries))


# Upper bound on the bytes of one block of stacked relation products: every
# relation of a complex rep at n = 12 fits in one block.
_RELATION_BYTES = 1 << 18


def _stacked_relations(stack: np.ndarray) -> tuple[RelationEntry, ...]:
    """The relations of check_braid_relations on a complex stack, in its
    order: the adjacent pairs, then the far pairs row by row.  A block of
    pairs (a, b) takes a @ b and b @ a in two stacked matmuls, and the
    adjacent pairs among them (a @ b) @ a and (b @ a) @ b in two more, so
    every product is the one the Mat product forms.  Products are formed
    under np.errstate, so overflows do not warn.  When every adjacent
    relation overflows from finite generators, the scale of the generators
    is beyond the float range (u^2 at u = 1e200), and NumericOverflow is
    raised.  An overflow confined to some relations, as from cancelling
    terms in an ill-conditioned basis, stays a NaN residual, which fails
    the check."""
    m = len(stack)
    adjacent = m - 1
    far_i, far_j = np.triu_indices(m, 2)
    left = np.concatenate([np.arange(adjacent), far_i])
    right = np.concatenate([np.arange(1, m), far_j])
    step = max(1, _RELATION_BYTES // (16 * stack[0].size))
    residuals, overflow = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(left), step):
            a, b = stack[left[k:k + step]], stack[right[k:k + step]]
            lhs, rhs = a @ b, b @ a
            t = max(0, adjacent - k)  # the adjacent pairs of this block
            lhs[:t], rhs[:t] = lhs[:t] @ a[:t], rhs[:t] @ b[:t]
            residuals.append(_relative_residuals(lhs, rhs))
            overflow.append(~(np.isfinite(lhs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))))
    if adjacent and np.concatenate(overflow)[:adjacent].all() and np.isfinite(stack).all():
        raise NumericOverflow(
            "products of the generators overflow in every adjacent braid relation,"
            " largest entry %.3g; the relations cannot be checked in floating point"
            % np.abs(stack).max())
    residuals = np.concatenate(residuals).tolist() if left.size else []
    return tuple(RelationEntry("adjacent" if k < adjacent else "far", i + 1, j + 1, r)
                 for k, (i, j, r) in enumerate(zip(left.tolist(), right.tolist(), residuals)))

