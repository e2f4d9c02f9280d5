"""Command line interface.

Every invocation prints exactly one JSON object with a fixed envelope

    {"schema": "braidrep/1", "command": ..., "ok": ..., "error": ..., "tol": ...}

plus a payload that depends on the command.  Output is deterministic for a
fixed input: keys are sorted and nothing time- or path-dependent is emitted,
so identical invocations produce byte-identical reports.

Exit codes: 0 on success, 1 when the mathematics fails (a named error such
as NotIrreducible or DegenerateU is reported in the envelope), 2 on bad
usage, malformed input, or input too large for the memory at hand
(MemoryError).  A command line that does not parse reports the
error name UsageError, with command null when no subcommand was read.
Reports are strict JSON: a non-finite number is written as null.

The base tolerance can be set through the BRAIDREP_TOL environment variable;
an explicit --tol flag wins over the environment.  Every tolerance must be
finite and positive, and every scalar finite.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .analysis import (
    _irreducibility,
    burnside_dimension,
    corank,
    jordan_projection,
    scalar_to_json,
    subgroup_invariance_check,
    subgroup_line_witness,
    theta_cycle_audit,
)
from .braid import BraidWord
from .classification import audit_theorem, classify
from .errors import BraidRepError, SchemaError
from .matrix import DEFAULT_CLUSTER_TOL, DEFAULT_TOL, Domain, charpoly, eigen_numeric
from .reps import (
    burau_rep,
    character_twist,
    check_braid_relations,
    eval_word,
    rep_from_json,
    specialize,
    standard_rep,
)

_SCHEMA_TAG = "braidrep/1"

# flags whose value may start with "-", as in --u -5/3
_SCALAR_FLAGS = ("--u", "--y", "--eigenvalue")

_FAMILIES = {
    "standard": standard_rep,
    "burau": burau_rep,
}


def parse_scalar(text: str):
    """Parse a scalar argument: exact first, complex as a fallback.

    "3/4", "2" and "1.5" become exact rationals; anything with a j, like
    "2j" or "1.5+0.5j", becomes a complex float.  Use a "+0j" suffix to force
    floating point.  inf and nan are refused.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError("cannot parse scalar %r; write 3/4, 1.5 or 1.5+0.5j"
                         % text) from None
    if not cmath.isfinite(z):
        raise ValueError("scalar %r is not finite" % text)
    return z


def _load_rep_file(path: str, tol: float):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return rep_from_json(data, tol=tol)


def _build_rep(args, tol: float):
    """Assemble the working representation from --rep or --family flags."""
    if getattr(args, "rep", None):
        if args.family or args.strands:
            raise ValueError("--rep replaces --family/--strands; do not mix them")
        rho = _load_rep_file(args.rep, tol)
    else:
        if not args.family:
            raise ValueError("need a representation: --family and --strands, or --rep FILE")
        if not args.strands:
            raise ValueError("--family needs --strands")
        rho = _FAMILIES[args.family](args.strands)
    if getattr(args, "u", None) is not None:
        rho = specialize(rho, parse_scalar(args.u))
    if getattr(args, "y", None) is not None:
        y = parse_scalar(args.y)
        rho = _complexified(rho, y, "a complex twist needs a specialized representation;"
                                    " pass --u as well")
        rho = character_twist(rho, y)
    return rho


def _complexified(rho, scalar, laurent_message: str):
    """rho on the complex numbers when scalar is complex: an exact rho is
    complexified, a Laurent one raises ValueError(laurent_message)."""
    if isinstance(scalar, complex) and rho.domain is not Domain.COMPLEX:
        if rho.domain is Domain.LAURENT:
            raise ValueError(laurent_message)
        return rho.to_complex()
    return rho


# ---------------------------------------------------------------------------
# command handlers: each returns the payload dict merged into the envelope
# ---------------------------------------------------------------------------


def _cmd_gen(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    return {"representation": rho.to_json_dict()}


def _cmd_relations(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    return {"relations": check_braid_relations(rho, tol).to_json_dict()}


def _cmd_corank(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    return {"corank": corank(rho, tol, cluster_tol).to_json_dict()}


def _cmd_irreducible(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    # the report gives the span dimension whenever Norton's test does not
    # certify, so the closure runs beside a witness too
    report, _ = _irreducibility(
        rho, lambda: burnside_dimension(rho, tol, args.max_generations),
        tol, cluster_tol, args.max_generations, measure=True)
    return {"burnside": report.to_json_dict(), "irreducible": report.full}


def _cmd_classify(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    return {"classification": classify(rho, tol, cluster_tol).to_json_dict()}


def _cmd_audit(args, tol, cluster_tol):
    summary = audit_theorem(args.strands, args.trials, args.seed, tol,
                            cluster_tol, args.param_tol, args.residual_tol,
                            args.jobs)
    return {"audit": summary.to_json_dict()}


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError("generator indices must be a comma list like 1,2,3") from None


def _cmd_jordan(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    lam = parse_scalar(args.eigenvalue)
    rho = _complexified(rho, lam, "a complex eigenvalue needs a specialized"
                                  " representation; pass --u as well")
    word = BraidWord.parse(rho.strands, args.word)
    mat = eval_word(rho, word)
    report = jordan_projection(mat, lam, tol, cluster_tol)
    payload = {"word": word.format(), "jordan": report.to_json_dict()}
    if args.invariant_under:
        indices = _parse_indices(args.invariant_under)
        check = subgroup_invariance_check(rho, indices, report.basis, tol)
        payload["invariance"] = check.to_json_dict()
    return payload


def _cmd_theta_cycle(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    witness = subgroup_line_witness(rho, tol, cluster_tol)
    if witness is None:
        return {"found": False, "witness": None, "cycle": None}
    audit = theta_cycle_audit(rho, witness.vector, witness.x, witness.y, tol)
    return {"found": True, "witness": witness.to_json_dict(),
            "cycle": audit.to_json_dict()}


def _cmd_spectrum(args, tol, cluster_tol):
    rho = _build_rep(args, tol)
    word = BraidWord.parse(rho.strands, args.word)
    mat = eval_word(rho, word)
    payload = {"word": word.format(), "domain": mat.domain.value}
    if mat.domain is Domain.COMPLEX:
        payload["charpoly"] = None
    else:
        payload["charpoly"] = [scalar_to_json(c) for c in charpoly(mat)]
    if mat.domain is Domain.LAURENT:
        payload["eigenvalues"] = None
    else:
        work = mat if mat.domain is Domain.COMPLEX else mat.to_complex()
        payload["eigenvalues"] = [
            {"value": scalar_to_json(v), "multiplicity": m}
            for v, m in eigen_numeric(work, cluster_tol)
        ]
    return payload


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """The command line does not parse; args are (message, command or None)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print usage and exit; the envelope reports it instead.
        # A subcommand parser's prog is "braidrep <command>".
        raise _UsageError(message, self.prog.partition(" ")[2] or None)


def _attach_scalar_values(argv: list[str]) -> list[str]:
    """Write "--u -5/3" as "--u=-5/3": argparse takes a separate value that
    starts with "-" for an option unless it is a plain negative number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SCALAR_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--tol", type=float, default=None,
                   help="base tolerance (default: BRAIDREP_TOL or %g)" % DEFAULT_TOL)
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                   help="eigenvalue clustering tolerance (default %g)"
                        % DEFAULT_CLUSTER_TOL)
    p.add_argument("--format", choices=["json"], default="json",
                   help="report format (json only)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON report to FILE instead of stdout")
    return p


def _rep_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", choices=sorted(_FAMILIES),
                   help="built-in family to instantiate")
    p.add_argument("--n", "--strands", dest="strands", type=int,
                   help="number of braid strands")
    p.add_argument("--u", metavar="SCALAR",
                   help="specialize the family at t=u (3/4, 1.5 or 1.5+0.5j)")
    p.add_argument("--y", metavar="SCALAR",
                   help="tensor with the character sending every generator to y")
    p.add_argument("--rep", metavar="FILE",
                   help="load a representation from a JSON file instead")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    reps = _rep_flags()
    parser = _Parser(
        prog="braidrep",
        description="Braid group representations: build, check and classify."
                    "  Every command prints one JSON report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, reps],
                       help="emit a representation as JSON")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("relations", parents=[common, reps],
                       help="check the defining braid relations")
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("corank", parents=[common, reps],
                       help="minimal corank of a generator image over its eigenvalues")
    p.set_defaults(handler=_cmd_corank)

    p = sub.add_parser("irreducible", parents=[common, reps],
                       help="irreducibility by Norton's test in the input's"
                            " domain, else the span dimension of the image"
                            " algebra; full span certifies irreducibility")
    p.add_argument("--max-generations", type=int, default=50,
                   help="generation cap for the span closure; Norton's"
                        " spins stop by dimension (default 50)")
    p.set_defaults(handler=_cmd_irreducible)

    p = sub.add_parser("classify", parents=[common, reps],
                       help="recover (y, u) and certify equivalence with the"
                            " twisted block family")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("audit", parents=[common],
                       help="randomized round-trip audit of the classification")
    p.add_argument("--n", "--strands", dest="strands", type=int, default=9)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param-tol", type=float, default=1e-7,
                   help="parameter recovery error bound (default 1e-7)")
    p.add_argument("--residual-tol", type=float, default=1e-8,
                   help="certificate residual bound (default 1e-8)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1; rows are identical"
                        " for any job count)")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("jordan", parents=[common, reps],
                       help="basis of the span of maximal Jordan chains for"
                            " one eigenvalue of a word image")
    p.add_argument("--word", default="s1", metavar="WORD",
                   help="braid word, space separated, like 's1 s2^-1' (default s1)")
    p.add_argument("--eigenvalue", required=True, metavar="SCALAR")
    p.add_argument("--invariant-under", default=None, metavar="I,J,...",
                   help="also test invariance of the projected subspace under"
                        " these generators")
    p.set_defaults(handler=_cmd_jordan)

    p = sub.add_parser("theta-cycle", parents=[common, reps],
                       help="find a boundary-pinned eigenvector and audit the"
                            " conjugation cycle of s1..s_{m-1}")
    p.set_defaults(handler=_cmd_theta_cycle)

    p = sub.add_parser("spectrum", parents=[common, reps],
                       help="characteristic polynomial and eigenvalue clusters"
                            " of a word image")
    p.add_argument("--word", default="s1", metavar="WORD",
                   help="braid word, space separated (default s1)")
    p.set_defaults(handler=_cmd_spectrum)

    return parser


# main's parser, built on its first call: a parse leaves no state in it
_parser = functools.cache(build_parser)


def _check_tol(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("%s must be finite and positive, got %r" % (name, value))
    return value


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return _check_tol("--tol", args.tol)
    raw = os.environ.get("BRAIDREP_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError("BRAIDREP_TOL=%r is not a number" % raw) from None
    return _check_tol("BRAIDREP_TOL", tol)


def _validate_flags(args) -> None:
    """Reject out-of-range numeric flags before any work is dispatched."""
    for flag in ("cluster_tol", "param_tol", "residual_tol"):
        if hasattr(args, flag):
            _check_tol("--" + flag.replace("_", "-"), getattr(args, flag))
    strands = getattr(args, "strands", None)
    if strands is not None and strands < 2:
        raise ValueError("the braid group needs at least 2 strands")
    if getattr(args, "trials", 1) < 1:
        raise ValueError("--trials must be at least 1")
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("--jobs must be at least 1")
    if getattr(args, "max_generations", 0) < 0:
        raise ValueError("--max-generations cannot be negative")


def _strict(x):
    """x with each non-finite float replaced by None: RFC 8259 has no
    Infinity or NaN."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


_quote = json.encoder.encode_basestring_ascii


def _dumps(x, indent: str = "") -> str:
    """json.dumps(x, sort_keys=True, indent=2, allow_nan=False), byte for
    byte, for str-keyed dicts, lists, tuples, str, int, float, bool and
    None: scalars as json writes them (encode_basestring_ascii,
    int.__repr__, float.__repr__), and one str.join per container, where
    json's encoder, pure Python once indent is set, yields every piece
    from a generator.  A non-finite float raises ValueError, as json does;
    anything else json may take raises TypeError."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("Out of range float values are not JSON compliant")
        return float.__repr__(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = [_quote(v) if type(v) is str else _dumps(v, inner) for v in x]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(x, dict):
        if not x:
            return "{}"
        if not all(isinstance(k, str) for k in x):
            raise TypeError("report keys must be str")
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(x.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    raise TypeError("cannot write %s" % type(x).__name__)


def _emit(env: dict, out_path: str | None) -> None:
    try:
        try:
            text = _dumps(env)
        except ValueError:  # a non-finite float: rebuild the report without it
            text = _dumps(_strict(env))
    except TypeError:  # a key or value only json.dumps takes, or none does
        text = json.dumps(_strict(env), sort_keys=True, indent=2, allow_nan=False)
    text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    env = {"schema": _SCHEMA_TAG, "command": None,
           "ok": True, "error": None, "tol": DEFAULT_TOL}
    out_path = None
    try:
        args, extra = parser.parse_known_args(
            _attach_scalar_values(sys.argv[1:] if argv is None else argv))
        if extra:
            raise _UsageError("unrecognized arguments: " + " ".join(extra), args.command)
        env["command"], out_path = args.command, args.out
        tol = _resolve_tol(args)
        env["tol"] = tol
        _validate_flags(args)
        payload = args.handler(args, tol, args.cluster_tol)
    except SystemExit as exc:  # --help printed its text
        return 0 if exc.code in (0, None) else 2
    except _UsageError as exc:
        message, env["command"] = exc.args
        env.update(ok=False, error={"name": "UsageError", "message": message})
        code = 2
    except SchemaError as exc:
        env.update(ok=False, error={"name": exc.name, "message": str(exc)})
        code = 2
    except BraidRepError as exc:
        env.update(ok=False, error={"name": exc.name, "message": str(exc)})
        code = 1
    except (ValueError, OSError) as exc:
        env.update(ok=False,
                   error={"name": type(exc).__name__, "message": str(exc)})
        code = 2
    except MemoryError:  # its message is usually empty
        env.update(ok=False, error={"name": "MemoryError",
                                    "message": "input too large for the memory at hand"})
        code = 2
    else:
        env.update(payload)
        code = 0
    _emit(env, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
