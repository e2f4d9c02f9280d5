"""Dense matrices over three scalar domains, with exact and floating kernels.

Domains and how a Mat stores its entries:
  RATIONAL  exact rationals, a row-major tuple of fractions.Fraction
  LAURENT   exact Laurent polynomials in t over the rationals, a row-major
            tuple of LaurentPoly
  COMPLEX   double-precision complex floats, one read-only row-major
            complex128 ndarray of the matrix's shape, which may be a view
            of a representation's stack of generators

An exact Mat also carries a nonzero index: per row, the ascending column
indices of its nonzero entries.  It is built once, on first use, from the
entries, unless the kernel that made the Mat already knew it.  Equality,
hashing, entry access and JSON read the row-major tuple only.  The exact
kernels (product, sum, difference, scaling, evaluation, max-norm and the
eliminations) visit nonzero entries only, which is what keeps the braid
generators cheap: each is the identity outside one 2x2 block.  A product
passes a factor equal to the ring's one through without multiplying.

Mat(...) coerces and checks every entry, and is the constructor for any
outside input.  Mat._trusted skips both, and may only be given entries that
are already the domain's scalar type (Fraction or LaurentPoly) because a
domain operation or a ring constant produced them, and a nonzero index that
is exactly the one those entries give; or, for COMPLEX, a read-only complex
array of the Mat's shape, which it shares.

Exact-domain eliminations are fraction-free (Bareiss for echelon form and
determinants, Montante's Gauss-Jordan variant for inverses and nullspaces),
so every intermediate value stays in the scalar ring and divisions are exact
by construction.  They hold each row as a {column: value} map of its nonzero
entries, and take the same pivots and reach the same values as the dense
recurrences.  Floating-domain kernels use numpy; rank decisions use
complete-pivot elimination with a relative threshold, and eigenvalues are
clustered with an explicit ambiguity check rather than silently merged.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import ClusterAmbiguous, NotDivisible, NotInvertible, SchemaError
from .laurent import LaurentPoly

DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6


class Domain(str, Enum):
    RATIONAL = "rational"
    LAURENT = "laurent"
    COMPLEX = "complex"

    def __str__(self) -> str:  # keep JSON round-trips tidy
        return self.value


# ---------------------------------------------------------------------------
# scalar operations per domain
# ---------------------------------------------------------------------------


class _Ops:
    """Scalar operation table for one domain."""

    __slots__ = ("zero", "one", "is_zero", "is_one", "div", "mag", "coerce")

    def __init__(self, zero, one, is_zero, is_one, div, mag, coerce):
        self.zero = zero
        self.one = one
        self.is_zero = is_zero
        self.is_one = is_one
        self.div = div
        self.mag = mag
        self.coerce = coerce


def _coerce_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, LaurentPoly) and x.is_const():
        return x.const_value()
    raise TypeError("not an exact rational: %r" % (x,))


def _coerce_laurent(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError("not a Laurent polynomial: %r" % (x,))


def _coerce_complex(x) -> complex:
    if isinstance(x, complex):
        return x
    if isinstance(x, (int, float, Fraction)):
        return complex(x)
    raise TypeError("not a complex scalar: %r" % (x,))


def _div_rational(a: Fraction, b: Fraction) -> Fraction:
    if not b:
        raise NotDivisible("rational division by zero")
    return a / b

def _div_complex(a: complex, b: complex) -> complex:
    if b == 0:
        raise NotDivisible("complex division by zero")
    return a / b


_OPS: dict[Domain, _Ops] = {
    Domain.RATIONAL: _Ops(
        zero=Fraction(0),
        one=Fraction(1),
        is_zero=lambda x: not x,
        is_one=lambda x: x == 1,
        div=_div_rational,
        mag=lambda x: abs(float(x)),
        coerce=_coerce_rational,
    ),
    Domain.LAURENT: _Ops(
        zero=LaurentPoly.zero(),
        one=LaurentPoly.one(),
        is_zero=lambda x: x.is_zero,
        is_one=lambda x: x.is_one,
        div=lambda a, b: a.divide_exact(b),
        mag=lambda x: x.magnitude(),
        coerce=_coerce_laurent,
    ),
    Domain.COMPLEX: _Ops(
        zero=complex(0),
        one=complex(1),
        is_zero=lambda x: x == 0,
        is_one=lambda x: x == 1,
        div=_div_complex,
        mag=abs,
        coerce=_coerce_complex,
    ),
}


def ops_for(domain: Domain) -> _Ops:
    return _OPS[domain]


def entry_from_json(v, domain: Domain):
    try:
        if domain is Domain.RATIONAL:
            if isinstance(v, str):
                return Fraction(v)
            if isinstance(v, int):
                return Fraction(v)
            raise TypeError("rational entries must be strings or integers")
        if domain is Domain.LAURENT:
            if isinstance(v, str):
                return LaurentPoly.parse(v)
            if isinstance(v, int):
                return LaurentPoly.const(v)
            raise TypeError("laurent entries must be strings or integers")
        if isinstance(v, (list, tuple)) and len(v) == 2:
            z = complex(float(v[0]), float(v[1]))
        elif isinstance(v, (int, float)):
            z = complex(v)
        else:
            raise TypeError("complex entries must be [re, im] pairs")
        if not cmath.isfinite(z):
            raise ValueError("complex entries must be finite")
        return z
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError("bad %s entry %r: %s" % (domain.value, v, exc)) from exc


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------


class Mat:
    """Immutable dense matrix with row-major entries in a declared domain.
    COMPLEX entries may also come as a (copied) ndarray of rows * cols values."""

    def __init__(self, rows: int, cols: int, domain: Domain, entries: Iterable):
        self.rows = int(rows)
        self.cols = int(cols)
        self.domain = Domain(domain)
        if self.domain is Domain.COMPLEX:
            if not isinstance(entries, np.ndarray):
                entries = [_coerce_complex(x) for x in entries]
            ent = np.array(entries, dtype=complex).ravel()
        else:
            ent = tuple(map(_OPS[self.domain].coerce, entries))
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(ent) != self.rows * self.cols:
            raise ValueError(
                "entry count %d does not match shape %dx%d" % (len(ent), self.rows, self.cols)
            )
        if self.domain is Domain.COMPLEX:
            ent = ent.reshape(self.rows, self.cols)
            ent.flags.writeable = False
        self.entries = ent
        self._nz = None

    @classmethod
    def _trusted(cls, rows: int, cols: int, domain: Domain, entries: Sequence,
                 nz: tuple | None = None) -> "Mat":
        """Mat over entries a domain operation produced, without coercion or
        checks: an exact Mat's entries with nz, when given, their nonzero
        index, or for COMPLEX a read-only (rows, cols) complex array, which
        the Mat shares, such as one generator of a stack."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.domain = domain
        m.entries = entries if domain is Domain.COMPLEX else tuple(entries)
        m._nz = nz
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], domain: Domain) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, domain, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int, domain: Domain) -> "Mat":
        o = _OPS[Domain(domain)]
        return cls(n, n, domain, [o.one if i == j else o.zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: Domain) -> "Mat":
        z = _OPS[Domain(domain)].zero
        return cls(rows, cols, domain, [z] * (rows * cols))

    @classmethod
    def column_vector(cls, values: Sequence, domain: Domain) -> "Mat":
        return cls(len(values), 1, domain, list(values))

    @classmethod
    def from_columns(cls, cols: Sequence["Mat"]) -> "Mat":
        if not cols:
            raise ValueError("no columns")
        n = cols[0].rows
        dom = cols[0].domain
        if any(c.rows != n or c.cols != 1 or c.domain != dom for c in cols):
            raise ValueError("columns must be n x 1 in one domain")
        return cls(n, len(cols), dom, [c.at(i, 0) for i in range(n) for c in cols])

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Mat":
        a = np.asarray(arr, dtype=complex)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(a.shape[0], a.shape[1], Domain.COMPLEX, a)

    # -- access ---------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int):
        if self.domain is Domain.COMPLEX:
            return complex(self.entries[i, j])
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return [self.at(i, j) for j in range(self.cols)]

    def col(self, j: int) -> list:
        return [self.at(i, j) for i in range(self.rows)]

    def _flat(self) -> tuple:
        """Row-major entries as Python scalars."""
        if self.domain is Domain.COMPLEX:
            return tuple(self.entries.ravel().tolist())
        return self.entries

    def row_lists(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def _nonzeros(self) -> tuple:
        """The nonzero index of an exact Mat: per row, the ascending column
        indices of its nonzero entries."""
        if self._nz is None:
            e, c = self.entries, self.cols
            self._nz = tuple(tuple(compress(range(c), e[i * c:(i + 1) * c]))
                             for i in range(self.rows))
        return self._nz

    def _row_maps(self) -> list[dict]:
        """An exact Mat's rows as new {column: value} maps of their nonzeros."""
        e, c = self.entries, self.cols
        return [{j: e[i * c + j] for j in cols} for i, cols in enumerate(self._nonzeros())]

    # -- arithmetic -------------------------------------------------------------

    def _require_same_shape(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError("expected Mat")
        if self.domain != other.domain:
            raise ValueError("domain mismatch: %s vs %s" % (self.domain, other.domain))
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def _entrywise(self, f, other: "Mat") -> "Mat":
        """f(x, y) entry by entry, or once on the whole arrays for COMPLEX.
        Exact domains apply f at the other's nonzeros only, so f(x, 0) must
        be x, as for the sum and the difference."""
        self._require_same_shape(other)
        if self.domain is Domain.COMPLEX:
            return Mat.from_numpy(f(self.entries, other.entries))
        out = list(self.entries)
        e, c = other.entries, self.cols
        nz = []
        for i, (mine, cols) in enumerate(zip(self._nonzeros(), other._nonzeros())):
            if not cols:
                nz.append(mine)
                continue
            base = i * c
            for j in cols:
                out[base + j] = f(out[base + j], e[base + j])
            # only the entries f touched can have become zero
            touched = set(cols)
            kept = [j for j in mine if j not in touched]
            kept += [j for j in cols if out[base + j]]
            nz.append(tuple(sorted(kept)))
        return Mat._trusted(self.rows, self.cols, self.domain, out, tuple(nz))

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(operator.sub, other)

    def __neg__(self) -> "Mat":
        if self.domain is Domain.COMPLEX:
            return Mat.from_numpy(-self.entries)
        return self.scale(-_OPS[self.domain].one)

    def scale(self, s) -> "Mat":
        o = _OPS[self.domain]
        s = o.coerce(s)
        if self.domain is Domain.COMPLEX:
            return Mat.from_numpy(_scale_complex(self.entries, s))
        out = [o.zero] * (self.rows * self.cols)
        e, c = self.entries, self.cols
        for i, cols in enumerate(self._nonzeros()):
            base = i * c
            for j in cols:
                out[base + j] = s * e[base + j]
        # a product of nonzeros is nonzero, so the index carries over
        return Mat._trusted(self.rows, self.cols, self.domain, out,
                            self._nz if s else None)

    def _shift(self, c) -> "Mat":
        """self - c*I, bit for bit self - Mat.identity(n, domain).scale(c):
        exact entries are copied once and the diagonal and its index
        changed; COMPLEX subtracts scale's image of I, signed zeros and all."""
        if not self.is_square:
            raise ValueError("shift of a non-square matrix")
        n = self.rows
        if self.domain is Domain.COMPLEX:
            return self - Mat.from_numpy(np.eye(n)).scale(c)
        c = _OPS[self.domain].coerce(c)
        out = list(self.entries)
        nz = list(self._nonzeros())
        for i, cols in enumerate(nz):
            k = i * (n + 1)
            x = out[k] = out[k] - c
            if (i in cols) != bool(x):
                nz[i] = tuple(sorted(set(cols) ^ {i}))
        return Mat._trusted(n, n, self.domain, out, tuple(nz))

    def _split(self):
        """Read an exact square Mat as c*I off a closed block of indices:
        (c, moved, block), or None when no row is a multiple of a unit row
        e_r or when block is every index.

        c wins a majority vote among the rows x*e_r, so it is the value the
        unmoved rows share when they are most rows (c = y after a twist).
        moved holds the rows other than c*e_r, and block, ascending, the
        moved rows and their nonzero columns.  Every row in block has its
        nonzeros in block and every other row is c*e_r, so the matrix is
        block-diagonal: its submatrix on block beside c*I.  Products of such
        matrices are products of their blocks on the union of the blocks
        beside a scalar, and rank adds over blocks.
        """
        e, n = self.entries, self.cols
        nzs = self._nonzeros()
        c, votes = None, 0
        for r, cols in enumerate(nzs):
            if cols == (r,):
                x = e[r * n + r]
                if not votes:
                    c, votes = x, 1
                else:
                    votes += 1 if x is c or x == c else -1
        if c is None:
            return None
        moved = set()
        block = set()
        for r, cols in enumerate(nzs):
            if cols != (r,) or not (e[r * n + r] is c or e[r * n + r] == c):
                moved.add(r)
                block.update(cols)
        block |= moved
        if len(block) == n:
            return None
        return c, moved, tuple(sorted(block))

    def _principal(self, idx: Sequence[int]) -> "Mat":
        """The principal submatrix of an exact square Mat on the ascending
        indices idx, with its nonzero index."""
        pos = {r: p for p, r in enumerate(idx)}
        k = len(idx)
        e, n = self.entries, self.cols
        nzs = self._nonzeros()
        out = [_OPS[self.domain].zero] * (k * k)
        nz = []
        for p, r in enumerate(idx):
            kept = []
            for j in nzs[r]:
                q = pos.get(j)
                if q is not None:
                    out[p * k + q] = e[r * n + j]
                    kept.append(q)
            nz.append(tuple(kept))
        return Mat._trusted(k, k, self.domain, out, tuple(nz))

    def __mul__(self, s) -> "Mat":
        return self.scale(s)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.domain != other.domain:
            raise ValueError("domain mismatch: %s vs %s" % (self.domain, other.domain))
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        if self.domain is Domain.COMPLEX:
            return Mat.from_numpy(self.as_numpy() @ other.as_numpy())
        # Gustavson's row-by-row product: row i of the result accumulates
        # a_ip * (row p of b) over the nonzeros a_ip, terms in ascending p
        o = _OPS[self.domain]
        zero, one, is_one = o.zero, o.one, o.is_one
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        bnz = other._nonzeros()
        brows: dict[int, list] = {}  # p -> [(j, b_pj, b_pj is one)], built on first use
        out = []
        nz = []
        for i, cols in enumerate(self._nonzeros()):
            if len(cols) == 1:
                p = cols[0]
                x = a[i * k + p]
                if x is one or is_one(x):
                    # a row of the identity copies row p of b
                    out += b[p * m:(p + 1) * m]
                    nz.append(bnz[p])
                    continue
            row = [zero] * m
            touched = []
            summed = False
            for p in cols:
                x = a[i * k + p]
                x_one = x is one or is_one(x)
                brow = brows.get(p)
                if brow is None:
                    brow = brows[p] = [(j, y, y is one or is_one(y))
                                       for j in bnz[p] for y in (b[p * m + j],)]
                for j, y, y_one in brow:
                    t = y if x_one else x if y_one else x * y
                    cur = row[j]
                    if cur is zero:
                        row[j] = t
                        touched.append(j)
                    else:
                        row[j] = cur + t
                        summed = True
            touched.sort()
            if summed:
                # a sum may have cancelled; such an entry goes back to zero
                kept = []
                for j in touched:
                    if row[j]:
                        kept.append(j)
                    else:
                        row[j] = zero
                touched = kept
            nz.append(tuple(touched))
            out += row
        return Mat._trusted(n, m, self.domain, out, tuple(nz))

    def __pow__(self, k: int) -> "Mat":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = Mat.identity(self.rows, self.domain)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def transpose(self) -> "Mat":
        ent = [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        if self.domain is Domain.COMPLEX:
            return Mat(self.cols, self.rows, self.domain, ent)
        return Mat._trusted(self.cols, self.rows, self.domain, ent)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        tot = _OPS[self.domain].zero
        for i in range(self.rows):
            tot = tot + self.at(i, i)
        return tot

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.domain == other.domain and self.rows == other.rows
                and self.cols == other.cols and self._flat() == other._flat())

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.domain, self._flat()))

    def is_zero(self) -> bool:
        if self.domain is Domain.COMPLEX:
            return all(x == 0 for x in self._flat())
        return not any(self._nonzeros())

    def max_norm(self) -> float:
        """Largest entry magnitude (max-norm); the residual scale used everywhere."""
        if self.domain is Domain.COMPLEX:
            return float(_max_norms(self.entries))
        mag, e, c = _OPS[self.domain].mag, self.entries, self.cols
        return max((mag(e[i * c + j]) for i, cols in enumerate(self._nonzeros()) for j in cols),
                   default=0.0)

    # -- conversions --------------------------------------------------------

    def as_numpy(self) -> np.ndarray:
        """Complex ndarray: a COMPLEX matrix's own read-only storage, or a new
        array of an exact matrix's entries converted to floats."""
        return self.to_complex().entries

    def to_complex(self) -> "Mat":
        if self.domain is Domain.COMPLEX:
            return self
        if self.domain is Domain.LAURENT:
            raise ValueError("Laurent matrices need an evaluation point first")
        out = [0.0] * (self.rows * self.cols)
        e, c = self.entries, self.cols
        for i, cols in enumerate(self._nonzeros()):
            base = i * c
            for j in cols:
                out[base + j] = float(e[base + j])
        return Mat(self.rows, self.cols, Domain.COMPLEX, np.array(out))

    def eval_at(self, u) -> "Mat":
        """Evaluate a LAURENT matrix at t=u by _evaluate: Fraction u gives a
        RATIONAL matrix, float/complex u a COMPLEX one."""
        if self.domain is not Domain.LAURENT:
            raise ValueError("eval_at applies to Laurent matrices")
        out = _evaluate([self], u)[0]
        return out if isinstance(out, Mat) else Mat.from_numpy(out)

    # -- linear algebra (delegates) -----------------------------------------

    def det(self):
        """The determinant: numpy's for COMPLEX, else Bareiss elimination.
        An exact Mat that _split reads as c*I beside a block is
        block-diagonal, so its determinant is det(block) * c^(n - |block|)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.domain is Domain.COMPLEX:
            return complex(np.linalg.det(self.as_numpy()))
        split = self._split()
        if split is not None:
            c, _, block = split
            return self._principal(block).det() * c ** (self.rows - len(block))
        o = _OPS[self.domain]
        if self.rows == 0:
            return o.one
        pivots, last, sign = _fraction_free(self._row_maps(), self.cols, o, False)
        if len(pivots) < self.rows:
            return o.zero
        return last if sign > 0 else -last

    def inverse(self, tol: float = DEFAULT_TOL) -> "Mat":
        if not self.is_square:
            raise NotInvertible("non-square matrix")
        if self.domain is Domain.COMPLEX:
            return Mat.from_numpy(_inverse_stack(self.entries[None], tol)[0])
        return _exact_inverse(self)

    def to_json_dict(self) -> dict:
        """rows, cols, domain and the row-major entries: COMPLEX ones as
        [re, im] float pairs, exact ones as strings.  Each distinct exact
        entry object is formatted once, looked up by identity: a family's
        generators share the ring's constants."""
        if self.domain is Domain.COMPLEX:
            entries = np.ascontiguousarray(self.entries).view(float).reshape(-1, 2).tolist()
        else:
            fmt = str if self.domain is Domain.RATIONAL else LaurentPoly.format
            ids = list(map(id, self.entries))
            text = {i: fmt(x) for i, x in dict(zip(ids, self.entries)).items()}
            entries = list(map(text.__getitem__, ids))
        return {
            "rows": self.rows,
            "cols": self.cols,
            "domain": self.domain.value,
            "entries": entries,
        }


def _scale_complex(a: np.ndarray, s: complex) -> np.ndarray:
    """s * a for a complex array of any shape, entry by entry as Python's
    complex * rounds it: four real products, where numpy's complex multiply
    can differ in the last bit."""
    out = (s.real * a.real - s.imag * a.imag).astype(complex)
    out.imag = s.real * a.imag + s.imag * a.real
    return out


def _evaluate(mats: Sequence["Mat"], u):
    """LAURENT matrices of one shape evaluated at t=u.  An exact u gives a
    list of RATIONAL Mats, each with the nonzero index its values give (a
    nonzero polynomial can vanish at u); a float or complex u gives one
    (len(mats), rows, cols) complex array.  One memo serves all the
    matrices, so each distinct entry is evaluated once, the zero
    polynomial too when some entry is zero.  Entries are looked up by
    identity before equality, which hashes the polynomial."""
    exact = isinstance(u, (int, Fraction))
    rows, cols = mats[0].rows, mats[0].cols
    size = rows * cols
    nonzeros = [m._nonzeros() for m in mats]
    zero = Fraction(0) if exact else 0j
    if sum(len(js) for nz in nonzeros for js in nz) < len(mats) * size:
        zero = _OPS[Domain.LAURENT].zero.eval(u)
    out = ([[zero] * size for _ in mats] if exact
           else np.full((len(mats), size), zero, dtype=complex))
    by_id: dict[int, object] = {}
    values: dict[LaurentPoly, object] = {}
    for m, nz, flat in zip(mats, nonzeros, out):
        e = m.entries
        for i, js in enumerate(nz):
            base = i * cols
            for j in js:
                x = e[base + j]
                v = by_id.get(id(x))
                if v is None:
                    v = values.get(x)
                    if v is None:
                        v = values[x] = x.eval(u)
                    by_id[id(x)] = v
                flat[base + j] = v
    if not exact:
        return out.reshape(len(mats), rows, cols)
    return [Mat._trusted(rows, cols, Domain.RATIONAL, flat,
                         tuple(tuple(j for j in js if flat[i * cols + j])
                               for i, js in enumerate(nz)))
            for flat, nz in zip(out, nonzeros)]


def _inverse_stack(a: np.ndarray, tol: float, where: str = "") -> np.ndarray:
    """The inverses of a stack of square complex arrays, in one batched call,
    as a read-only array.

    Each inverse is checked by its residual max|A A^-1 - I|, which must be at
    most tol; a NaN residual, from an overflowing inverse, fails too.  The
    first array that is singular or fails its check, in stack order, raises
    NotInvertible, its message prefixed by where.format(k + 1) for its
    index k.  Inverses and residuals are bit for bit those of one call per
    array, which is what Mat.inverse makes on a stack of one."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            raise NotInvertible(where.format(1) + str(exc)) from exc
        # some array is singular: check each in turn for the first failure
        for k in range(len(a)):
            _inverse_stack(a[k:k + 1], tol, where.format(k + 1))
        raise
    if a.shape[1]:
        resid = np.abs(a @ inv - np.eye(a.shape[1])).max(axis=(1, 2))
        bad = np.flatnonzero(~(resid <= tol))
        if bad.size:
            k = bad[0]
            raise NotInvertible(where.format(k + 1) + "inverse residual %.3g exceeds"
                                " tolerance %.3g" % (resid[k], tol))
    inv.flags.writeable = False
    return inv


def is_json_int(x) -> bool:
    """True for a JSON integer; JSON true and false load as bool, an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def mat_from_json(d: dict) -> Mat:
    if not isinstance(d, dict):
        raise SchemaError("matrix JSON must be an object")
    for key in ("rows", "cols", "domain", "entries"):
        if key not in d:
            raise SchemaError("matrix JSON missing %r" % key)
    try:
        domain = Domain(d["domain"])
    except ValueError as exc:
        raise SchemaError("unknown domain %r" % (d["domain"],)) from exc
    rows, cols = d["rows"], d["cols"]
    if not is_json_int(rows) or not is_json_int(cols) or rows < 0 or cols < 0:
        raise SchemaError("rows/cols must be nonnegative integers")
    entries = d["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise SchemaError("entries must be a list of length rows*cols")
    if domain is Domain.COMPLEX:
        z = _complex_pairs(entries)
        if z is not None:
            return Mat(rows, cols, domain, z)
    return Mat(rows, cols, domain, [entry_from_json(v, domain) for v in entries])


def _complex_pairs(entries: list) -> np.ndarray | None:
    """A list of finite [re, im] pairs of JSON numbers, decoded by one
    np.array, as the complex values entry_from_json gives them; None for
    anything else (strings, bare numbers, other lengths, non-finite values,
    pairs of bools only), which entry_from_json decodes or rejects one entry
    at a time.  A bool among numbers reads as 1 or 0 on either path."""
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged, or bare numbers among pairs
        return None
    if pairs.dtype.kind not in "if" or pairs.shape != (len(entries), 2):
        return None
    pairs = np.ascontiguousarray(pairs, dtype=float)
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex)[:, 0]  # re and im bit for bit, as complex(re, im)


# ---------------------------------------------------------------------------
# exact elimination (fraction-free)
# ---------------------------------------------------------------------------


def _fraction_free(a: list[dict], ncols: int, o: _Ops,
                   jordan: bool) -> tuple[list[tuple[int, int]], object, int]:
    """Fraction-free elimination over the first ncols columns of rows held
    as {column: value} maps of their nonzeros, reduced in place.

    jordan False is Bareiss's echelon reduction: each pivot clears the rows
    below it, and the rows are left partly reduced.  jordan True is
    Montante's Gauss-Jordan variant: each pivot clears every other row, and
    on return every pivot entry equals the final pivot value p, all other
    entries in pivot columns are zero, and for square nonsingular input the
    left block is p*I with p = det up to the row-swap sign.

    A step with pivot p clears column c from a row by x -> (p*x - x_c*y)/prev,
    y the pivot row's entry and prev the previous pivot, and turns every
    entry x of a row without column c into p*x/prev.  Entries stay in the
    scalar ring; every division is exact (Sylvester identity), which is what
    makes this valid over the Laurent ring.  The second rule is applied
    lazily: a row records the pivot it is current as of, s, and is brought
    to the eager values (prev*x)/s only when a step reads it, or at the end
    for jordan True.  Pivots and values are those of the dense recurrence.
    Returns ([(pivot row, pivot col)], last pivot, row-swap sign).
    """
    m = len(a)
    since = [o.one] * m
    pivots: list[tuple[int, int]] = []
    prev = o.one
    sign = 1
    div = o.div

    def catch_up(i):
        s = since[i]
        if s is not prev:
            row = a[i]
            for j, x in row.items():
                row[j] = div(prev * x, s)
            since[i] = prev

    r = 0
    for c in range(ncols):
        if r >= m:
            break
        pr = next((i for i in range(r, m) if c in a[i]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            since[r], since[pr] = since[pr], since[r]
            sign = -sign
        catch_up(r)
        prow = a[r]
        p = prow[c]
        for i in chain(range(r), range(r + 1, m)) if jordan else range(r + 1, m):
            if c not in a[i]:
                continue
            catch_up(i)
            row = a[i]
            aic = row.pop(c)
            new = {}
            for j, x in row.items():
                y = prow.get(j)
                new[j] = p * x if y is None else p * x - aic * y
            for j, y in prow.items():
                if j != c and j not in row:
                    new[j] = -(aic * y)
            a[i] = {j: div(x, prev) for j, x in new.items() if x}
            since[i] = p
        since[r] = p
        prev = p
        pivots.append((r, c))
        r += 1
    if jordan:
        for i in range(m):
            catch_up(i)
    return pivots, prev, sign


# Python ints as a scalar ring for _fraction_free, whose divisions are exact
_INT_OPS = _Ops(0, 1, operator.not_, lambda x: x == 1, operator.floordiv, abs, int)


def _integer_singular(rows: list[dict], n: int) -> bool:
    """Whether the n x n integer matrix with these {column: value} rows of
    its nonzeros, reduced in place, has determinant 0: one fraction-free
    (Bareiss) elimination in Python ints finds fewer than n pivots."""
    pivots, _, _ = _fraction_free(rows, n, _INT_OPS, False)
    return len(pivots) < n


def _exact_inverse(m: Mat) -> Mat:
    o = _OPS[m.domain]
    n = m.rows
    red = m._row_maps()
    for i, row in enumerate(red):
        row[n + i] = o.one
    pivots, p, _ = _fraction_free(red, n, o, True)
    if len(pivots) < n:
        raise NotInvertible("matrix is singular")
    p_one = o.is_one(p)
    out = [o.zero] * (n * n)
    for r, c in pivots:
        for j, x in red[r].items():
            if j < n:
                continue
            try:
                out[c * n + j - n] = x if p_one else o.div(x, p)
            except NotDivisible as exc:
                raise NotInvertible(
                    "determinant is not a unit in the %s domain" % m.domain.value
                ) from exc
    return Mat._trusted(n, n, m.domain, out)


def _content(entries, domain: Domain):
    """Positive rational content of exact entries, zeros skipped.

    RATIONAL: the c > 0 that leaves the entries coprime integers once
    divided out, 0 when every entry is zero.  LAURENT: the unit c*t^k with
    c the content of all coefficients and k the smallest degree present."""
    if domain is Domain.LAURENT:
        nz = [x for x in entries if not x.is_zero]
        if not nz:
            return LaurentPoly.zero()
        c = _content([v for x in nz for _, v in x.items()], Domain.RATIONAL)
        return LaurentPoly.term(c, min(x.deg_min for x in nz))
    num, den = 0, 1
    for x in entries:
        if x:
            num = gcd(num, x.numerator)
            den = lcm(den, x.denominator)
    return Fraction(num, den)


def _canonical_exact_vector(vec: list, domain: Domain) -> list:
    """Deterministic scaling of an exact kernel/eigenvector.

    RATIONAL: first nonzero coordinate becomes 1.  LAURENT: divide out the
    common rational content and power of t, then the leading entry when it is
    a unit."""
    o = _OPS[domain]
    lead = next((x for x in vec if not o.is_zero(x)), None)
    if lead is None:
        return list(vec)
    if domain is Domain.RATIONAL:
        return [x / lead for x in vec]
    unit = _content(vec, domain)
    vec = [x.divide_exact(unit) if not x.is_zero else x for x in vec]
    lead = next(x for x in vec if not x.is_zero)
    if lead.is_unit:
        vec = [x.divide_exact(lead) if not x.is_zero else x for x in vec]
    return vec


def rank_exact(m: Mat) -> int:
    """Exact rank over the scalar field (fraction field for LAURENT)."""
    if m.domain is Domain.COMPLEX:
        raise ValueError("rank_exact needs an exact domain; use rank_numeric")
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_fraction_free(m._row_maps(), m.cols, _OPS[m.domain], False)[0])


def nullspace(m: Mat, tol: float = DEFAULT_TOL) -> list[Mat]:
    """Kernel basis as a list of column vectors.

    Exact domains get an exact reduced-echelon kernel (each vector satisfies
    m v = 0 identically); the complex domain uses an SVD cutoff at
    tol * sigma_max.  Vectors are canonically scaled for determinism.
    """
    if m.rows == 0 or m.cols == 0:
        o = _OPS[m.domain]
        basis = []
        for j in range(m.cols):
            vec = [o.zero] * m.cols
            vec[j] = o.one
            basis.append(Mat.column_vector(vec, m.domain))
        return basis
    if m.domain is Domain.COMPLEX:
        out = []
        for v in _np_nullspace(m.entries, tol).T:
            k = int(np.argmax(np.abs(v)))
            out.append(Mat(m.cols, 1, Domain.COMPLEX, v / v[k]))
        return out
    o = _OPS[m.domain]
    red = m._row_maps()
    pivots, p, _ = _fraction_free(red, m.cols, o, True)
    piv_cols = {c: r for r, c in pivots}
    basis = []
    for f in range(m.cols):
        if f in piv_cols:
            continue
        vec = [o.zero] * m.cols
        vec[f] = p
        for r, c in pivots:
            x = red[r].get(f)
            if x is not None:
                vec[c] = -x
        basis.append(Mat.column_vector(_canonical_exact_vector(vec, m.domain), m.domain))
    return basis


def _np_nullspace(a: np.ndarray, tol: float) -> np.ndarray:
    """Kernel of a complex array as the columns of an array: the right
    singular vectors whose singular values are at most tol * sigma_max."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a wide input needs the full vh to hold its kernel; no caller reads u
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_singular_rank(s, tol):].conj().T


def _singular_rank(s: np.ndarray, tol: float) -> int:
    """How many of the descending singular values s exceed tol * sigma_max:
    none when there are none, or sigma_max is 0 or NaN."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def relative_residual(a: Mat, b: Mat) -> float:
    """Max-norm distance between two matrices, relative to the larger one.

    Exact domains short-circuit equality to exactly 0.0.
    """
    if a.domain is not Domain.COMPLEX and a == b:
        return 0.0
    diff = (a - b).max_norm()
    return diff / max(a.max_norm(), b.max_norm(), 1e-300)


def _max_norms(a: np.ndarray) -> np.ndarray:
    """The max-norm of each matrix of a complex stack, or of one matrix.
    hypot rounds as Python's abs(complex) does; np.abs can differ."""
    return np.hypot(a.real, a.imag).max(axis=(-2, -1), initial=0.0)


def _python_max(v: np.ndarray) -> float:
    """max(v) as Python's max() takes it over floats: a NaN counts only when
    it comes first."""
    return float(v[0] if np.isnan(v[0]) else np.fmax.reduce(v))


def _relative_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relative_residual of each pair of matrices of two complex stacks, bit
    for bit.  A NaN norm of a or b makes that of a - b NaN too, so the
    residual is NaN whichever order max() would have met it in."""
    scale = np.maximum(np.maximum(_max_norms(a), _max_norms(b)), 1e-300)
    return _max_norms(a - b) / scale


def column_space(m: Mat, tol: float = DEFAULT_TOL) -> list[Mat]:
    """Basis of the column space, as a list of column vectors.

    Exact domains return the original columns sitting at the pivot positions
    of a fraction-free row reduction, canonically scaled.  The complex domain
    returns left singular vectors for singular values above tol * sigma_max.
    """
    if m.rows == 0 or m.cols == 0:
        return []
    if m.domain is Domain.COMPLEX:
        u, s, _ = np.linalg.svd(m.entries)
        return [Mat(m.rows, 1, Domain.COMPLEX, u[:, j]) for j in range(_singular_rank(s, tol))]
    pivots, _, _ = _fraction_free(m._row_maps(), m.cols, _OPS[m.domain], False)
    out = []
    for _, c in pivots:
        col = [m.at(i, c) for i in range(m.rows)]
        out.append(Mat.column_vector(_canonical_exact_vector(col, m.domain), m.domain))
    return out


# ---------------------------------------------------------------------------
# numeric rank and eigen structure
# ---------------------------------------------------------------------------


def rank_numeric(m: Mat, tol: float = DEFAULT_TOL) -> int:
    """Rank by complete-pivot elimination.

    A pivot counts while its magnitude exceeds tol times the largest initial
    row max-norm, which makes the decision scale-invariant and deterministic.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    a = np.array(m.as_numpy(), dtype=complex)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0
    r = 0
    nr, nc = a.shape
    steps = min(nr, nc)
    while r < steps:
        sub = np.abs(a[r:, r:])
        idx = np.unravel_index(int(np.argmax(sub)), sub.shape)
        i, j = idx[0] + r, idx[1] + r
        if abs(a[i, j]) <= tol * scale:
            break
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        if j != r:
            a[:, [r, j]] = a[:, [j, r]]
        col = a[r + 1 :, r] / a[r, r]
        a[r + 1 :, r:] -= np.outer(col, a[r, r:])
        r += 1
    return r


def eigen_numeric(m: Mat, cluster_tol: float = DEFAULT_CLUSTER_TOL, home: complex | None = None,
                  extra: int = 0) -> list[tuple[complex, int]]:
    """Clustered eigenvalues of a square matrix as (value, multiplicity).

    Eigenvalues closer than cluster_tol * max-norm are merged by single
    linkage; if a merged group has diameter beyond the threshold (a chain of
    borderline gaps with no consistent grouping) ClusterAmbiguous is raised
    rather than guessing.  Results are sorted by (real, imag).

    With home, one of m's diagonal entries, the cluster of the eigenvalue
    nearest home gains extra more eigenvalues home, listed after m's own:
    the spectrum of a matrix with m's max-norm whose leading principal
    block is m and whose other indices are isolated, with diagonal entry
    home.
    """
    if not m.is_square:
        raise ValueError("eigenvalues of a non-square matrix")
    if m.rows == 0:
        return []
    a = m.as_numpy()
    vals = np.linalg.eigvals(a)
    thr = cluster_tol * max(float(np.max(np.abs(a))), 1e-300)
    n = len(vals)
    # single-linkage components under the threshold relation: every pairwise
    # distance at once, then union-find over the close pairs, i < j ascending
    dist = np.abs(vals[:, None] - vals)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = (dist <= thr).nonzero()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < j:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    grown = find(int(np.argmin(np.abs(vals - home)))) if home is not None else None
    out = []
    for root, idxs in groups.items():
        diam = float(dist.take(idxs, 0).take(idxs, 1).max()) if len(idxs) > 1 else 0.0
        if diam > thr:
            raise ClusterAmbiguous(
                "eigenvalue chain of diameter %.3g straddles threshold %.3g" % (diam, thr)
            )
        pts = [vals[i] for i in idxs]
        if root == grown:
            pts += [home] * extra
        out.append((complex(sum(pts) / len(pts)), len(pts)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


@dataclass(frozen=True)
class JordanData:
    """Jordan structure attached to one eigenvalue cluster."""

    eigenvalue: complex
    multiplicity: int
    block_sizes: tuple[int, ...]  # descending

    @property
    def largest_block(self) -> int:
        return self.block_sizes[0]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def to_json_dict(self) -> dict:
        return {
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
            "multiplicity": self.multiplicity,
            "block_sizes": list(self.block_sizes),
        }


def jordan_structure(m: Mat, tol: float = DEFAULT_TOL,
                     cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list[JordanData]:
    """Jordan block sizes per clustered eigenvalue, from rank sequences.

    For eigenvalue y with algebraic multiplicity a, the number of blocks of
    size >= k equals rank((m-yI)^(k-1)) - rank((m-yI)^k); the sequence is
    computed with the numeric rank and stops when it reaches n - a.
    """
    if not m.is_square:
        raise ValueError("jordan structure of a non-square matrix")
    n = m.rows
    clusters = eigen_numeric(m, cluster_tol)
    a = m.as_numpy()
    out = []
    for lam, mult in clusters:
        shifted = a - lam * np.eye(n)
        ranks = [n]
        power = np.eye(n, dtype=complex)
        k = 0
        while ranks[-1] > n - mult and k < mult:
            power = power @ shifted
            ranks.append(rank_numeric(Mat.from_numpy(power), tol))
            k += 1
        ge = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
        ge.append(0)
        sizes = []
        for size in range(1, len(ge)):
            sizes.extend([size] * max(ge[size - 1] - ge[size], 0))
        sizes.sort(reverse=True)
        if sum(sizes) != mult:
            raise ValueError(
                "inconsistent rank sequence for eigenvalue %s (got sizes %r, multiplicity %d); "
                "tolerances are likely unsuitable" % (lam, sizes, mult)
            )
        out.append(JordanData(lam, mult, tuple(sizes)))
    return out


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials
# ---------------------------------------------------------------------------


def charpoly(m: Mat) -> list:
    """Characteristic polynomial det(x*I - m), coefficients ascending.

    Exact domains use the Faddeev-LeVerrier recursion (all divisions are by
    integers, hence exact); the complex domain expands the product over
    numeric eigenvalues.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if m.domain is Domain.COMPLEX:
        vals = np.linalg.eigvals(m.as_numpy())
        coeffs = np.poly(vals) if n else np.array([1.0])
        return [complex(c) for c in coeffs[::-1]]
    o = _OPS[m.domain]
    coeffs_desc = [o.one]
    nmat = Mat.identity(n, m.domain)
    for k in range(1, n + 1):
        an = m @ nmat
        tr = an.trace()
        ck = -tr * Fraction(1, k)
        coeffs_desc.append(ck)
        nmat = an._shift(-ck)
    return list(reversed(coeffs_desc))


def minpoly(m: Mat, tol: float = DEFAULT_TOL,
            cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list:
    """Monic minimal polynomial, coefficients ascending.

    Exact domains stack vec(m^0), vec(m^1), ... as columns, doubling their
    number until the stack has a kernel; by Cayley-Hamilton it has one at
    n + 1 powers.  The echelon kernel's first vector belongs to the first
    power m^d that depends on the earlier ones, so its first d + 1 entries
    are the minimal polynomial's coefficients, made monic by dividing by the
    last (exact over the Laurent ring too, as a monic factor of the monic
    characteristic polynomial stays in the ring).  The complex domain
    assembles the polynomial from clustered eigenvalues and Jordan data,
    which is far more stable than floating Krylov elimination.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return [_OPS[m.domain].one]
    if m.domain is Domain.COMPLEX:
        data = jordan_structure(m, tol, cluster_tol)
        coeffs = [complex(1)]
        for jd in data:
            for _ in range(jd.largest_block):
                coeffs = _poly_mul(coeffs, [-jd.eigenvalue, complex(1)], _OPS[Domain.COMPLEX])
        return coeffs
    o = _OPS[m.domain]
    powers = [Mat.identity(n, m.domain)]
    kernel = []
    while not kernel:
        for _ in range(min(len(powers), n + 1 - len(powers))):
            powers.append(powers[-1] @ m)
        stacked = zip(*(p.entries for p in powers))
        kernel = nullspace(Mat._trusted(n * n, len(powers), m.domain,
                                        [x for row in stacked for x in row]))
    coeffs = kernel[0].entries[:len(powers) - len(kernel) + 1]
    return [o.div(c, coeffs[-1]) for c in coeffs]


# -- polynomial helpers over a scalar domain ---------------------------------


def _poly_mul(a: list, b: list, o: _Ops) -> list:
    out = [o.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if o.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def poly_eval_matrix(coeffs: list, m: Mat) -> Mat:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    if not m.is_square:
        raise ValueError("polynomial of a non-square matrix")
    o = _OPS[m.domain]
    n = m.rows
    result = Mat.zeros(n, n, m.domain)
    eye = Mat.identity(n, m.domain)
    for c in reversed(coeffs):
        result = result @ m + eye.scale(o.coerce(c))
    return result


def poly_eval_scalar(coeffs: list, x, domain: Domain):
    o = _OPS[domain]
    x = o.coerce(x)
    acc = o.zero
    for c in reversed(coeffs):
        acc = acc * x + o.coerce(c)
    return acc


def poly_divmod(f: list, g: list, domain: Domain) -> tuple[list, list]:
    """Long division of f by g (ascending coefficients) over the domain:
    (quotient, remainder), the remainder shorter than g, or [zero] for a
    constant g.  Each quotient term is divided by g's leading coefficient
    unless that is one.  ValueError when g is empty or leads with zero."""
    o = _OPS[domain]
    if not g or o.is_zero(g[-1]):
        raise ValueError("divisor must have a nonzero leading coefficient")
    f = list(f)
    dg, lead = len(g) - 1, g[-1]
    if len(f) - 1 < dg:
        return [o.zero], f
    monic = o.is_one(lead)
    q = [o.zero] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if o.is_zero(c):
            continue
        if not monic:
            c = o.div(c, lead)
        q[i - dg] = c
        for j in range(dg + 1):
            f[i - dg + j] = f[i - dg + j] - c * g[j]
    return q, f[:dg] if dg else [o.zero]


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------


def intertwiner_space(a_mats: Sequence[Mat], b_mats: Sequence[Mat],
                      tol: float = DEFAULT_TOL) -> list[Mat]:
    """Basis of {X : A_i X = X B_i for all i}.

    Vectorizing X row-major turns each condition into the linear system
    (A_i (x) I - I (x) B_i^T) vec(X) = 0; the systems are stacked and their
    joint nullspace taken, exactly or by SVD, with canonically scaled basis
    vectors.
    """
    if not a_mats or not b_mats or len(a_mats) != len(b_mats):
        raise ValueError("need equally many A and B matrices")
    dom = a_mats[0].domain
    r = a_mats[0].rows
    s = b_mats[0].rows
    for x in a_mats:
        if x.domain != dom or not x.is_square or x.rows != r:
            raise ValueError("A matrices must be square, one size, one domain")
    for x in b_mats:
        if x.domain != dom or not x.is_square or x.rows != s:
            raise ValueError("B matrices must be square, one size, one domain")
    if dom is Domain.COMPLEX:
        system = Mat.from_numpy(np.vstack([
            np.kron(A.entries, np.eye(s)) - np.kron(np.eye(r), B.entries.T)
            for A, B in zip(a_mats, b_mats)
        ]))
    else:
        o = _OPS[dom]
        rows = []
        for A, B in zip(a_mats, b_mats):
            for p in range(r):
                for q in range(s):
                    row = [o.zero] * (r * s)
                    for k in range(r):
                        apk = A.at(p, k)
                        if not o.is_zero(apk):
                            row[k * s + q] = row[k * s + q] + apk
                    for l in range(s):
                        blq = B.at(l, q)
                        if not o.is_zero(blq):
                            row[p * s + l] = row[p * s + l] - blq
                    rows.append(row)
        system = Mat.from_rows(rows, dom)
    return [Mat(r, s, dom, v.entries) for v in nullspace(system, tol)]
