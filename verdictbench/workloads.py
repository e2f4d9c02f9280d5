"""Workload inputs and their ground truth.

Every input comes from a construction whose answer is known: twisted
families chi_y (x) tau_n(u) hidden behind a random change of basis, the
standard block family at rational points, and the unspecialised standard
and Burau families.  The checker compares each report against that
construction, never against another braidrep answer.

A workload is one round of operations: fixed commands at fixed sizes and
strata, where the seed only picks the values inside each stratum, or the
order of a round whose inputs are fixed.  The timed phase repeats whole
rounds, so the share of each stratum, and with it the failure ratios, does
not depend on how long a run lasts, and every operation is timed several
times, spread over the run.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

PARAM_TOL = 1e-7     # recovered (y, u) against the sampled point
RESIDUAL_TOL = 1e-9  # the CLI default tolerance
BASIS_COND = 1e4     # condition bound of the hiding change of basis

# Typed errors whose name alone asserts something false about a valid,
# irreducible input.
_FALSE_ERRORS = {"NotIrreducible", "RelationFailure"}


@dataclass(frozen=True)
class Op:
    id: str      # stable for one seed, so report hashes can be compared
    kind: str
    argv: tuple
    truth: dict


@dataclass(frozen=True)
class Outcome:
    failure: str | None  # None when the report is right
    wrong: bool          # the report asserts something false


PASS = Outcome(None, False)


class _Wrong(Exception):
    """A report field contradicts the construction."""


class _Failed(Exception):
    """A report that is not false but does not give the answer either."""


# ---------------------------------------------------------------------------
# classify-hidden
# ---------------------------------------------------------------------------

# Three n = 9 ops per n = 12 op.  An n = 12 op costs about four n = 9 ops
# and its cost depends on the point, so three of them keep the round's cost
# steady across seeds.  Every stratum here gives the right verdict at commit
# 68d64da, so a run fails only when braidrep regresses.
CLASSIFY_SLOTS = (
    (9, "generic"), (9, "real_neg"), (9, "real_pos"), (9, "unit_y"),
    (9, "large_u"), (9, "near_one"), (9, "generic"), (9, "real_neg"),
    (9, "unit_y"),
    (12, "generic"), (12, "real_neg"), (12, "real_pos"),
)

# Points where braidrep gives a wrong verdict at commit 68d64da (ROADMAP open
# item 1).  They are not in the scored round; the traced run replays them and
# prints what they return, so the defect stays in view until it is fixed.
#   real_neg_real_y: u < 0 with real y; sorted spectra swap +-i sqrt(|u|) y,
#                    so classify reports NOT_EQUIVALENT, THEOREM-CONTRADICTION.
#   near_zero:       |u| = 3e-3; the span closure under-counts and classify
#                    raises NotIrreducible on an irreducible family.
DEFECT_SLOTS = ((9, "real_neg_real_y"), (12, "real_neg_real_y"), (9, "near_zero"))


def _polar(rng: np.random.Generator, radius: float) -> complex:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(phi), radius * math.sin(phi))


def _generic_u(rng: np.random.Generator) -> complex:
    while True:
        u = complex(rng.uniform(-2.5, 4.0), rng.uniform(-1.5, 1.5))
        if abs(u) > 0.25 and abs(u - 1) > 0.25:
            return u


def _real_y(rng: np.random.Generator) -> complex:
    return complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))


def _off_axis_y(rng: np.random.Generator) -> complex:
    """y at least 30 degrees away from the real axis."""
    phi = rng.uniform(math.pi / 6, 5 * math.pi / 6) * rng.choice([-1.0, 1.0])
    return complex(math.cos(phi), math.sin(phi)) * rng.uniform(0.5, 2.0)


def _stratum_point(stratum: str, rng: np.random.Generator) -> tuple[complex, complex]:
    if stratum == "real_neg":
        return _off_axis_y(rng), complex(-rng.uniform(0.3, 3.0))
    if stratum == "real_neg_real_y":
        return _real_y(rng), complex(-rng.uniform(0.3, 3.0))
    if stratum == "real_pos":
        y = _real_y(rng)
        while True:
            u = rng.uniform(0.3, 3.0)
            if abs(u - 1) > 0.25:
                return y, complex(u)
    if stratum == "unit_y":
        return _polar(rng, 1.0), _generic_u(rng)
    y = _polar(rng, rng.uniform(0.5, 2.0))
    if stratum == "generic":
        return y, _generic_u(rng)
    if stratum == "large_u":
        return y, _polar(rng, rng.uniform(30.0, 100.0))
    if stratum == "near_zero":
        return y, _polar(rng, 3e-3)
    if stratum == "near_one":
        return y, 1 + _polar(rng, 3e-3)
    raise ValueError("unknown stratum %r" % stratum)


def _hidden_rep(n: int, y: complex, u: complex, rng: np.random.Generator) -> dict:
    """chi_y (x) tau_n(u) conjugated by a random basis, in the --rep format."""
    while True:
        p = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        if np.linalg.cond(p) <= BASIS_COND:
            break
    pinv = np.linalg.inv(p)
    gens = []
    for i in range(n - 1):
        g = np.eye(n, dtype=complex)
        g[i, i], g[i, i + 1], g[i + 1, i], g[i + 1, i + 1] = 0, u, 1, 0
        h = p @ (y * g) @ pinv
        gens.append({"rows": n, "cols": n, "domain": "complex",
                     "entries": [[float(z.real), float(z.imag)] for z in h.ravel()]})
    return {"strands": n, "degree": n, "domain": "complex", "label": "hidden",
            "generators": gens}


def _classify_op(seed: int, slot: int, n: int, stratum: str, workdir: Path,
                 tag: str = "s") -> Op:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(slot,)))
    y, u = _stratum_point(stratum, rng)
    path = workdir / ("%s%d.json" % (tag, slot))
    path.write_text(json.dumps(_hidden_rep(n, y, u, rng)), encoding="utf-8")
    return Op("classify:%s%d:n%d:%s" % (tag, slot, n, stratum), "classify",
              ("classify", "--rep", str(path)), {"n": n, "y": y, "u": u})


def classify_round(seed: int, workdir: Path) -> list[Op]:
    return [_classify_op(seed, s, n, stratum, workdir)
            for s, (n, stratum) in enumerate(CLASSIFY_SLOTS)]


def defect_ops(seed: int, workdir: Path) -> list[Op]:
    """The known wrong-verdict points, drawn apart from the scored round."""
    return [_classify_op(seed, 100 + s, n, stratum, workdir, tag="d")
            for s, (n, stratum) in enumerate(DEFECT_SLOTS)]


# ---------------------------------------------------------------------------
# exact-span
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, nums: tuple, dens: tuple, sign: int) -> Fraction:
    while True:
        p, q = rng.randint(*nums), rng.randint(*dens)
        u = sign * Fraction(p, q)
        if math.gcd(p, q) == 1 and u != 1:
            return u


def _irreducible_op(n: int, label: str, u: Fraction) -> Op:
    return Op("irreducible:n%d:%s" % (n, label), "irreducible",
              ("irreducible", "--family", "standard", "--n", str(n), "--u=%s" % u),
              {"n": n, "irreducible": u != 1})


# Irreducible points per size.  The extra n = 5 points put the median
# operation time inside a dense cluster instead of on one u = 1 control.
EXACT_POINTS = {5: 8, 6: 3, 7: 3}


def _exact_point(rng: random.Random, k: int) -> tuple[str, Fraction]:
    stratum = ("pos", "neg", "height")[k % 3]
    if stratum == "pos":
        return stratum, _rational(rng, (2, 9), (1, 4), 1)
    if stratum == "neg":
        return stratum, _rational(rng, (1, 9), (1, 4), -1)
    return stratum, _rational(rng, (17, 43), (5, 11), rng.choice((-1, 1)))


def exact_round(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random("exact-span:%d" % seed)
    ops = []
    for n, count in EXACT_POINTS.items():
        for k in range(count):
            label, u = _exact_point(rng, k)
            ops.append(_irreducible_op(n, "%s%d" % (label, k), u))
        ops.append(_irreducible_op(n, "one", Fraction(1)))
    ops.append(Op("irreducible:n5:laurent", "irreducible",
                  ("irreducible", "--family", "standard", "--n", "5"),
                  {"n": 5, "irreducible": True}))
    for family, expect in (("standard", 2), ("burau", 1)):
        ops.append(Op("corank:n12:%s" % family, "corank",
                      ("corank", "--family", family, "--n", "12"), {"corank": expect}))
    u = _rational(rng, (2, 9), (1, 4), rng.choice((-1, 1)))
    y = _rational(rng, (1, 5), (1, 3), rng.choice((-1, 1)))
    ops.append(Op("jordan:n9", "jordan",
                  ("jordan", "--family", "standard", "--n", "9", "--u=%s" % u,
                   "--y=%s" % y, "--word", "s8", "--eigenvalue=%s" % y,
                   "--invariant-under", "1,2,3,4,5,6,8"),
                  {"dim": 7}))
    root = _rational(rng, (1, 5), (1, 3), 1)
    ops.append(Op("theta-cycle:n9", "theta-cycle",
                  ("theta-cycle", "--family", "standard", "--n", "9",
                   "--u=%s" % (root * root)),
                  {"d_scalar": str((root * root) ** 8)}))
    return ops


# ---------------------------------------------------------------------------
# laurent-relations
# ---------------------------------------------------------------------------

# The inputs are the two unspecialised families, so a round is fixed and the
# seed only orders it: the cost grows like n^3, and drawing n per seed would
# make goodput depend on the seed more than on the code.  corank is cheap and
# runs at every size, which keeps the operation times dense around their
# median.
RELATION_SIZES = tuple(range(12, 41, 4))
CORANK_SIZES = tuple(range(12, 41))
GEN_SIZE = 40
_FAMILY_CORANK = (("standard", 2), ("burau", 1))


def laurent_round(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for n in RELATION_SIZES:
        for family, _ in _FAMILY_CORANK:
            ops.append(Op("relations:n%d:%s" % (n, family), "relations",
                          ("relations", "--family", family, "--n", str(n)), {"n": n}))
    for n in CORANK_SIZES:
        for family, corank in _FAMILY_CORANK:
            ops.append(Op("corank:n%d:%s" % (n, family), "corank",
                          ("corank", "--family", family, "--n", str(n)),
                          {"corank": corank}))
    ops.append(Op("gen:n%d:standard" % GEN_SIZE, "gen",
                  ("gen", "--family", "standard", "--n", str(GEN_SIZE)), {"n": GEN_SIZE}))
    random.Random("laurent-relations:%d" % seed).shuffle(ops)
    # The first op is the warm-up op; keep it the same cheap one for every seed.
    ops.sort(key=lambda op: op.id != "relations:n%d:standard" % RELATION_SIZES[0])
    return ops


# Each maps (seed, scratch directory) to the workload's round.
WORKLOADS = {
    "classify-hidden": classify_round,
    "exact-span": exact_round,
    "laurent-relations": laurent_round,
}


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError("non-standard JSON constant %s" % name)


def parse_report(text: str) -> dict:
    """Strict RFC 8259 parse: NaN and Infinity are errors."""
    report = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise _Wrong(what)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _check_classify(op: Op, d: dict) -> None:
    c = d["classification"]
    verdict = c["certificate"]["verdict"]
    if verdict == "INCONCLUSIVE":
        raise _Failed("INCONCLUSIVE")
    _require(verdict == "EQUIVALENT" and c["classified"] is True, verdict)
    _require(c["contradiction"] is False, "THEOREM-CONTRADICTION")
    n = op.truth["n"]
    _require(c["burnside"]["dimension"] == n * n, "WrongDimension")
    _require(abs(_complex(c["y"]) - op.truth["y"]) <= PARAM_TOL
             and abs(_complex(c["u"]) - op.truth["u"]) <= PARAM_TOL, "WrongParameters")
    _require(c["relation_residual"] <= RESIDUAL_TOL, "RelationResidual")


def _check_irreducible(op: Op, d: dict) -> None:
    n, irreducible = op.truth["n"], op.truth["irreducible"]
    _require(d["irreducible"] is irreducible, "WrongIrreducible")
    dim = d["burnside"]["dimension"]
    _require(dim == n * n if irreducible else dim < n * n, "WrongDimension")


def _check_corank(op: Op, d: dict) -> None:
    _require(d["corank"]["corank"] == op.truth["corank"], "WrongCorank")


def _check_relations(op: Op, d: dict) -> None:
    r, n = d["relations"], op.truth["n"]
    count = (n - 2) + (n - 2) * (n - 3) // 2
    _require(r["ok"] is True and r["max_residual"] == 0.0 and r["domain"] == "laurent"
             and len(r["relations"]) == count
             and all(e["residual"] == 0.0 for e in r["relations"]), "RelationsFailed")


_TERM = re.compile(r"^(-?\d+(?:/\d+)?)\*t\^(-?\d+)$")


def _laurent_terms(text: str) -> dict:
    if text == "0":
        return {}
    out: dict = {}
    for part in text.split(" + "):
        m = _TERM.match(part)
        if not m:
            raise _Failed("BadLaurentEntry")
        k = int(m.group(2))
        out[k] = out.get(k, 0) + Fraction(m.group(1))
    return {k: v for k, v in out.items() if v}


def _standard_entry(i: int, r: int, c: int) -> dict:
    """Entry (r, c) of the standard family's generator s_{i+1}."""
    block = {(i, i + 1): {1: 1}, (i + 1, i): {0: 1}, (i, i): {}, (i + 1, i + 1): {}}
    if (r, c) in block:
        return block[(r, c)]
    return {0: 1} if r == c else {}


def _check_gen(op: Op, d: dict) -> None:
    rep, n = d["representation"], op.truth["n"]
    _require(rep["strands"] == n and rep["degree"] == n and rep["domain"] == "laurent"
             and len(rep["generators"]) == n - 1, "WrongRepresentation")
    for i, g in enumerate(rep["generators"]):
        _require(g["rows"] == n and g["cols"] == n and len(g["entries"]) == n * n,
                 "WrongRepresentation")
        for k, text in enumerate(g["entries"]):
            _require(_laurent_terms(text) == _standard_entry(i, k // n, k % n),
                     "WrongRepresentation")


def _check_jordan(op: Op, d: dict) -> None:
    _require(d["jordan"]["dim"] == op.truth["dim"] and d["invariance"]["ok"] is True,
             "WrongJordan")


def _check_theta(op: Op, d: dict) -> None:
    cyc = d["cycle"]
    _require(d["found"] is True and cyc["cycle_ok"] is True and cyc["table_ok"] is True
             and cyc["independence_ok"] is True
             and cyc["d_scalar"] == op.truth["d_scalar"], "WrongThetaCycle")


_CHECKS = {
    "classify": _check_classify,
    "irreducible": _check_irreducible,
    "corank": _check_corank,
    "relations": _check_relations,
    "gen": _check_gen,
    "jordan": _check_jordan,
    "theta-cycle": _check_theta,
}


def check(op: Op, code: int, text: str, validator) -> Outcome:
    """Judge one report against the construction behind op."""
    try:
        d = parse_report(text)
    except ValueError:
        return Outcome("NonStrictJSON", False)
    if any(True for _ in validator.iter_errors(d)):
        return Outcome("SchemaInvalid", False)
    if d["ok"] is not (code == 0) or d["command"] != op.argv[0]:
        return Outcome("EnvelopeMismatch", False)
    if not d["ok"]:
        name = d["error"]["name"]
        return Outcome(name, name in _FALSE_ERRORS)
    try:
        _CHECKS[op.kind](op, d)
    except _Wrong as exc:
        return Outcome(str(exc), True)
    except _Failed as exc:
        return Outcome(str(exc), False)
    except (KeyError, TypeError, IndexError):
        return Outcome("MalformedPayload", False)
    return PASS
