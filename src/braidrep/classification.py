"""Classification of degree-n representations on n strands.

An irreducible representation whose degree equals its strand count is, in
the guaranteed range n >= 9, a character twist of the standard block family.
The pipeline here makes that effective:

  recover_parameters    read (y, u) off the spectrum of rho(s1): y is the
                        unique eigenvalue of multiplicity n-2 and the other
                        two eigenvalues multiply to -y^2 u, so
                        u = -(lam_plus * lam_minus) / y^2 with no branch
                        ambiguity.  Needs n >= 5.
  certify_equivalence   produce a checkable verdict for a pair of
                        representations: compare the spectra of rho(s1),
                        then solve for an intertwiner; a one-dimensional
                        intertwiner space with an invertible, low-residual
                        matrix certifies equivalence.  The intertwiner comes
                        from an n-dimensional graph spin when that
                        certifies, else from the Kronecker system.
  classify              relations -> irreducibility -> parameter recovery ->
                        certified comparison against the rebuilt model, in
                        one pass.  Irreducibility is the one rule of
                        analysis._irreducibility: Norton's test decides, and
                        the span closure only what it leaves open.  Raises
                        NotIrreducible for a reducible input; flags
                        THEOREM-CONTRADICTION in the report if an
                        irreducible input with n >= 9 refuses to match (no
                        such input should exist).
  audit_theorem         randomized end-to-end exercise: sample (y, u), build
                        the twisted family, hide it behind a random
                        well-conditioned change of basis, and require the
                        pipeline to recover everything within tolerance.

Irreducibility is decided in the input's own domain, exactly for rational
input; parameter recovery and the certificate run on the complexification.
All residuals are relative max-norm.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    BurnsideReport,
    _irreducibility,
    _OrthoBasis,
    _spin,
    burnside_dimension,
    corank,
    scalar_to_json,
)
from .errors import (
    BraidRepError,
    DegenerateU,
    NoDominantEigenvalue,
    NotIrreducible,
    RelationFailure,
)
from .matrix import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    Domain,
    Mat,
    _max_norms,
    _np_nullspace,
    _python_max,
    _relative_residuals,
    eigen_numeric,
    intertwiner_space,
)
from .reps import Rep, character_twist, check_braid_relations, specialize, standard_rep

__all__ = [
    "RecoveredParams",
    "EquivalenceCert",
    "ClassificationReport",
    "AuditRow",
    "AuditSummary",
    "recover_parameters",
    "certify_equivalence",
    "classify",
    "audit_theorem",
]

_COND_LIMIT = 1e12  # an intertwiner this ill-conditioned does not certify


@dataclass(frozen=True)
class RecoveredParams:
    y: complex
    u: complex
    spectrum: tuple  # ((eigenvalue, multiplicity), ...) of rho(s1)

    def to_json_dict(self) -> dict:
        return {
            "y": scalar_to_json(self.y),
            "u": scalar_to_json(self.u),
            "spectrum": [{"eigenvalue": scalar_to_json(v), "multiplicity": m}
                         for v, m in self.spectrum],
        }


def recover_parameters(rho: Rep, tol: float = DEFAULT_TOL,
                       cluster_tol: float = DEFAULT_CLUSTER_TOL,
                       degenerate_tol: float = 1e-3) -> RecoveredParams:
    """Read the twist scalar y and the block parameter u off rho(s1).

    The twisted family has spectrum {y with multiplicity n-2, +y sqrt(u),
    -y sqrt(u)}; the product of the two simple eigenvalues is -y^2 u.
    NoDominantEigenvalue when no unique multiplicity-(n-2) eigenvalue exists,
    DegenerateU when the recovered u sits within degenerate_tol of 0 or 1
    (the two points where the family leaves the classified range).
    """
    n = rho.degree
    if rho.strands != n:
        raise ValueError("parameter recovery applies when degree equals strands")
    if n < 5:
        raise ValueError("parameter recovery needs at least 5 strands")
    if rho.domain is Domain.LAURENT:
        raise ValueError("parameter recovery runs over a scalar field; specialize first")
    clusters = eigen_numeric(rho.gen(1), cluster_tol)
    spectrum = tuple((complex(c), m) for c, m in clusters)
    dominant = [c for c, m in clusters if m == n - 2]
    if len(dominant) != 1:
        raise NoDominantEigenvalue(
            "expected one eigenvalue of multiplicity %d, spectrum is %s"
            % (n - 2, [(str(c), m) for c, m in spectrum]))
    y = complex(dominant[0])
    rest = []
    for c, m in clusters:
        if m == n - 2 and c == dominant[0]:
            continue
        rest.extend([complex(c)] * m)
    if len(rest) != 2:
        raise NoDominantEigenvalue(
            "expected two residual eigenvalues beside y, got %d" % len(rest))
    # divide by y first where y^2 would lose precision below the normal range
    if abs(y * y) >= sys.float_info.min:
        u = -(rest[0] * rest[1]) / (y * y)
    else:
        u = -(rest[0] / y) * (rest[1] / y)
    if abs(u) <= degenerate_tol or abs(u - 1) <= degenerate_tol:
        raise DegenerateU("recovered u = %s sits at a degenerate point" % u)
    return RecoveredParams(y, u, spectrum)


# ---------------------------------------------------------------------------
# equivalence certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCert:
    verdict: str  # EQUIVALENT, NOT_EQUIVALENT or INCONCLUSIVE
    obstruction: str | None
    intertwiner: Mat | None
    intertwiner_dim: int | None
    residual: float | None
    condition: float | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "obstruction": self.obstruction,
            "intertwiner": self.intertwiner.to_json_dict() if self.intertwiner else None,
            "intertwiner_dim": self.intertwiner_dim,
            "residual": self.residual,
            "condition": self.condition,
        }


def _spectrum_gap(ca: list, cb: list) -> float:
    """Largest distance between matched eigenvalue clusters of two matrices.

    Each cluster of ca takes the nearest unmatched cluster of cb with the
    same multiplicity, so eigenvalues that share a real part cannot swap
    partners; inf when the multiplicities do not pair up."""
    rest = list(cb)
    worst = 0.0
    for c, m in ca:
        same = [k for k, (_, mb) in enumerate(rest) if mb == m]
        if not same:
            return math.inf
        k = min(same, key=lambda k: abs(rest[k][0] - c))
        worst = max(worst, abs(rest.pop(k)[0] - c))
    return math.inf if rest else worst


def _format_spectrum(clusters: list) -> list[str]:
    return ["%.6g%+.6gj" % (c.real, c.imag) for c, m in clusters for _ in range(m)]


def _verified(a: Rep, b: Rep, x: Mat, tol: float) -> EquivalenceCert:
    """Certificate for a one-dimensional intertwiner space spanned by x."""
    arr = x.as_numpy()
    cond = float(np.linalg.cond(arr))
    # the largest relative_residual(A_i X, X B_i) over the generators
    residual = _python_max(_relative_residuals(a.stack @ arr, arr @ b.stack))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        return EquivalenceCert(
            "INCONCLUSIVE",
            "intertwiner is numerically singular (condition %.3g)" % cond,
            x, 1, residual, cond)
    if residual > tol:
        return EquivalenceCert(
            "INCONCLUSIVE",
            "intertwiner residual %.3g exceeds tolerance %.3g" % (residual, tol),
            x, 1, residual, cond)
    return EquivalenceCert("EQUIVALENT", None, x, 1, residual, cond)


def _graph_intertwiner(a: Rep, b: Rep, ca: list, cb: list,
                       tol: float) -> EquivalenceCert | None:
    """EQUIVALENT certificate from one n-dimensional spin, or None.

    An intertwiner A_i X = X B_i has the graph {(z, Xz)} as a submodule of
    B (+) A.  Seeded with (v_b, v_a), eigenvectors of B_1 and A_1 for
    matching simple eigenvalues, the spin under diag(B_i, A_i) stops at
    dimension n on that graph, with an invertible top block Q_b, and
    X = Q_a Q_b^-1.  Then v_b is cyclic and X is fixed by X v_b, a multiple
    of v_a, so the intertwiner space is one-dimensional.  X is scaled as
    nullspace scales vec(X) and verified as the Kronecker solution is.
    Returns None whenever the spin, the block or the verification fails.
    """
    n = a.degree
    ops = np.zeros((a.strands - 1, 2 * n, 2 * n), dtype=complex)
    ops[:, :n, :n], ops[:, n:, n:] = b.stack, a.stack
    a1, b1 = a.gen(1).as_numpy(), b.gen(1).as_numpy()
    simple_a = [c for c, m in ca if m == 1]
    if not simple_a:
        return None
    for lam, m in cb:
        if m != 1:
            continue
        mu = min(simple_a, key=lambda c: abs(c - lam))
        v_b = _np_nullspace(b1 - lam * np.eye(n), tol)
        v_a = _np_nullspace(a1 - mu * np.eye(n), tol)
        if v_b.shape[1] != 1 or v_a.shape[1] != 1:
            continue
        basis = _OrthoBasis(tol)
        _spin([np.concatenate([v_b[:, 0], v_a[:, 0]])], ops, basis, n + 1)
        if basis.dim != n:
            continue
        q = basis.q[:, :n]
        if np.linalg.cond(q[:n]) > _COND_LIMIT:
            continue
        x = np.linalg.solve(q[:n].T, q[n:].T).T  # X Q_b = Q_a
        x = x / x.flat[int(np.argmax(np.abs(x)))]
        cert = _verified(a, b, Mat.from_numpy(x), tol)
        if cert.verdict == "EQUIVALENT":
            return cert
    return None


def certify_equivalence(rho_a: Rep, rho_b: Rep, tol: float = DEFAULT_TOL,
                        cluster_tol: float = DEFAULT_CLUSTER_TOL) -> EquivalenceCert:
    """Decide whether two representations are conjugate, with evidence.

    Three stages: the spectra of rho(s1) must agree as multisets (cheap
    obstruction), the joint intertwiner equation A_i X = X B_i must have a
    one-dimensional solution space, and the solution must be invertible with
    a small conjugation residual on every generator.  Under the braid
    relations each rho(s_i) is conjugate to rho(s1), as s_{i+1} =
    (s_i s_{i+1}) s_i (s_i s_{i+1})^-1, so s1 is the only spectrum compared.
    A zero intertwiner space refutes equivalence outright; two or more
    dimensions mean the pair is reducible and the certificate stays
    INCONCLUSIVE.  The intertwiner comes from an n-dimensional graph spin
    when that certifies EQUIVALENT, and otherwise from the stacked Kronecker
    system, which gives every other verdict.  Runs on the complexification.
    """
    if rho_a.strands != rho_b.strands:
        raise ValueError("cannot compare representations of different strand counts")
    if rho_a.degree != rho_b.degree:
        return EquivalenceCert("NOT_EQUIVALENT",
                               "degrees differ: %d vs %d" % (rho_a.degree, rho_b.degree),
                               None, None, None, None)
    a = rho_a if rho_a.domain is Domain.COMPLEX else rho_a.to_complex()
    b = rho_b if rho_b.domain is Domain.COMPLEX else rho_b.to_complex()
    scale = max(_python_max(_max_norms(a.stack)), _python_max(_max_norms(b.stack)), 1.0)
    ca = eigen_numeric(a.gen(1), cluster_tol)
    cb = eigen_numeric(b.gen(1), cluster_tol)
    worst = _spectrum_gap(ca, cb)
    if worst > cluster_tol * scale:
        return EquivalenceCert(
            "NOT_EQUIVALENT",
            "generator s1: spectra differ by %.3g (%s vs %s)"
            % (worst, _format_spectrum(ca), _format_spectrum(cb)),
            None, None, None, None)
    cert = _graph_intertwiner(a, b, ca, cb, tol)
    if cert is not None:
        return cert
    basis = intertwiner_space(list(a.gens), list(b.gens), tol)
    if not basis:
        return EquivalenceCert("NOT_EQUIVALENT",
                               "no nonzero intertwiner solves A X = X B",
                               None, 0, None, None)
    if len(basis) > 1:
        return EquivalenceCert(
            "INCONCLUSIVE",
            "intertwiner space has dimension %d; the pair is reducible" % len(basis),
            None, len(basis), None, None)
    return _verified(a, b, basis[0], tol)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    strands: int
    degree: int
    y: complex
    u: complex
    relation_residual: float
    burnside: BurnsideReport
    certificate: EquivalenceCert
    contradiction: bool
    notes: str = ""

    @property
    def classified(self) -> bool:
        return self.certificate.verdict == "EQUIVALENT"

    def to_json_dict(self) -> dict:
        return {
            "strands": self.strands,
            "degree": self.degree,
            "y": scalar_to_json(self.y),
            "u": scalar_to_json(self.u),
            "classified": self.classified,
            "relation_residual": self.relation_residual,
            "burnside": self.burnside.to_json_dict(),
            "certificate": self.certificate.to_json_dict(),
            "contradiction": self.contradiction,
            "notes": self.notes,
        }


def classify(rho: Rep, tol: float = DEFAULT_TOL,
             cluster_tol: float = DEFAULT_CLUSTER_TOL) -> ClassificationReport:
    """Match an irreducible degree-n representation of n strands to the family.

    One pass: verify the defining relations, decide irreducibility by
    analysis._irreducibility, recover (y, u) from the spectrum, rebuild the
    twisted model and certify equivalence.  Norton's certificate stands
    whatever the verdict; a witness raises NotIrreducible naming its
    dimension, and so does a short exact span.  For n >= 9 a NOT_EQUIVALENT
    verdict on an irreducible input contradicts the classification this
    package implements, so the report says so loudly.
    """
    if rho.degree != rho.strands:
        raise ValueError("classification applies when degree equals strands")
    if rho.domain is Domain.LAURENT:
        raise ValueError("classification runs over a scalar field; specialize first")
    relations = check_braid_relations(rho, tol)
    if not relations.ok:
        raise RelationFailure(
            "input does not satisfy the braid relations (max residual %.3g)"
            % relations.max_residual)
    burnside, witness = _irreducibility(rho, lambda: burnside_dimension(rho, tol),
                                        tol, cluster_tol)
    if witness is not None:
        raise NotIrreducible(
            "invariant subspace of dimension %d of %d; the representation is"
            " reducible" % (witness.dim, rho.degree))
    if not burnside.full:
        raise NotIrreducible(
            "image span has dimension %d of %d; the representation is reducible"
            % (burnside.dimension, rho.degree ** 2))
    params = recover_parameters(rho, tol, cluster_tol)
    model = character_twist(specialize(standard_rep(rho.strands), params.u), params.y)
    cert = certify_equivalence(rho, model, tol, cluster_tol)
    contradiction = rho.strands >= 9 and cert.verdict == "NOT_EQUIVALENT"
    notes = ""
    if contradiction:
        notes = ("THEOREM-CONTRADICTION: irreducible input of degree %d on %d "
                 "strands does not match the twisted block family; this is "
                 "outside what the classification allows, re-examine the input "
                 "and the certificate" % (rho.degree, rho.strands))
    elif cert.verdict != "EQUIVALENT" and rho.strands < 9:
        notes = ("verdict %s with %d strands; the classification is only "
                 "guaranteed from 9 strands up" % (cert.verdict, rho.strands))
    return ClassificationReport(rho.strands, rho.degree, params.y, params.u,
                                relations.max_residual, burnside, cert,
                                contradiction, notes)


# ---------------------------------------------------------------------------
# randomized end-to-end audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    trial: int
    y: complex
    u: complex
    y_recovered: complex | None
    u_recovered: complex | None
    y_err: float
    u_err: float
    residual: float | None
    verdict: str
    corank_ok: bool
    burnside_full: bool
    error: str = ""

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "y": scalar_to_json(self.y),
            "u": scalar_to_json(self.u),
            "y_recovered": scalar_to_json(self.y_recovered),
            "u_recovered": scalar_to_json(self.u_recovered),
            "y_err": self.y_err,
            "u_err": self.u_err,
            "residual": self.residual,
            "verdict": self.verdict,
            "corank_ok": self.corank_ok,
            "burnside_full": self.burnside_full,
            "error": self.error,
        }


@dataclass(frozen=True)
class AuditSummary:
    strands: int
    trials: int
    seed: int
    param_tol: float
    residual_tol: float
    rows: tuple

    def row_ok(self, row: AuditRow) -> bool:
        return (row.error == ""
                and row.verdict == "EQUIVALENT"
                and row.y_err <= self.param_tol
                and row.u_err <= self.param_tol
                and row.residual is not None
                and row.residual <= self.residual_tol
                and row.corank_ok
                and row.burnside_full)

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.rows if self.row_ok(r))

    @property
    def pass_rate(self) -> float:
        return self.pass_count / len(self.rows) if self.rows else 0.0

    @property
    def max_param_err(self) -> float:
        return max((max(r.y_err, r.u_err) for r in self.rows), default=0.0)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.rows if r.residual is not None),
                   default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "strands": self.strands,
            "trials": self.trials,
            "seed": self.seed,
            "param_tol": self.param_tol,
            "residual_tol": self.residual_tol,
            "pass_count": self.pass_count,
            "pass_rate": self.pass_rate,
            "max_param_err": self.max_param_err,
            "max_residual": self.max_residual,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def _sample_y(rng: np.random.Generator) -> complex:
    r = rng.uniform(0.5, 2.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def _sample_u(rng: np.random.Generator) -> complex:
    while True:
        u = complex(rng.uniform(-2.5, 4.0), rng.uniform(-1.5, 1.5))
        if abs(u) > 0.25 and abs(u - 1) > 0.25:
            return u


def _sample_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        p = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        p = p / np.sqrt(2.0)
        if np.isfinite(np.linalg.cond(p)) and np.linalg.cond(p) <= 1e4:
            return p


def _audit_trial(args) -> AuditRow:
    n, seed, trial, tol, cluster_tol = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
    y = _sample_y(rng)
    u = _sample_u(rng)
    base = character_twist(specialize(standard_rep(n), u), y)
    p = _sample_basis(rng, n)
    rho = Rep(n, p @ base.stack @ np.linalg.inv(p), "hidden twisted family", check=False)
    try:
        report = classify(rho, tol, cluster_tol)
        ck = corank(rho, tol, cluster_tol)
        return AuditRow(
            trial, y, u, report.y, report.u,
            abs(report.y - y), abs(report.u - u),
            report.certificate.residual, report.certificate.verdict,
            ck.corank == 2, report.burnside.full)
    except BraidRepError as exc:
        return AuditRow(trial, y, u, None, None, float("inf"), float("inf"),
                        None, "ERROR", False, False, error=exc.name)


def audit_theorem(strands: int = 9, trials: int = 100, seed: int = 0,
                  tol: float = DEFAULT_TOL,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  param_tol: float = 1e-7, residual_tol: float = 1e-8,
                  jobs: int = 1) -> AuditSummary:
    """Randomized round-trip audit of the classification pipeline.

    Each trial hides a sampled twisted family behind a random change of
    basis (condition at most 1e4) and demands recovery: parameters within
    param_tol, certificate residual within residual_tol, corank 2, full
    span.  Trials are seeded independently via a spawn key, so the summary
    is reproducible for a fixed seed and any job count.
    """
    if strands < 5:
        raise ValueError("the audit needs at least 5 strands to recover parameters")
    work = [(strands, seed, t, tol, cluster_tol) for t in range(trials)]
    jobs = min(jobs, trials)  # a fork-started pool starts every worker at once
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_audit_trial, work))
    else:
        rows = [_audit_trial(w) for w in work]
    return AuditSummary(strands, trials, seed, param_tol, residual_tol, tuple(rows))
