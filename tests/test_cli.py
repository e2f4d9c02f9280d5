"""CLI contract: envelope shape, exit codes, determinism, schema validity."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.cli import main, parse_scalar
from fractions import Fraction


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("braidrep") / "schema" / "report.schema.json"
    return json.loads(ref.read_text())


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant), out


def check(schema, doc):
    jsonschema.validate(doc, schema)


# -- scalar parsing ---------------------------------------------------------


def test_parse_scalar_exact_and_complex():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("1.5") == Fraction(3, 2)
    assert isinstance(parse_scalar("3/4"), Fraction)
    z = parse_scalar("1.5+0.5j")
    assert isinstance(z, complex) and z == 1.5 + 0.5j
    assert parse_scalar("2+0j") == complex(2)
    with pytest.raises(ValueError):
        parse_scalar("nope")
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    assert parse_scalar("1e400") == 10 ** 400  # exact, so finite
    for text in ("inf", "-inf", "nan", "1e400+0j", "1e400j", "nan+1j"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_error_names_are_class_names():
    # the envelope's error.name: each exported error's class name, "Error"
    # for the base class
    import braidrep

    errors = [e for e in map(braidrep.__dict__.get, braidrep.__all__)
              if isinstance(e, type) and issubclass(e, braidrep.BraidRepError)]
    assert len(errors) == 19
    for e in errors:
        assert e.name == ("Error" if e is braidrep.BraidRepError else e.__name__)


# -- gen and round trip -----------------------------------------------------


def test_gen_standard_symbolic(capsys, schema):
    code, doc, _ = run_cli(capsys, "gen", "--family", "standard", "--strands", "4")
    assert code == 0
    check(schema, doc)
    assert doc["ok"] is True and doc["error"] is None
    rep = doc["representation"]
    assert rep["strands"] == 4 and rep["degree"] == 4 and rep["domain"] == "laurent"


def test_gen_roundtrip_through_file(capsys, tmp_path, schema):
    path = tmp_path / "rep.json"
    code = main(["gen", "--family", "standard", "--strands", "5",
                 "--u", "7/2", "--y", "2", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    code, doc, _ = run_cli(capsys, "relations", "--rep",
                           str(path.with_name("nope.json")))
    assert code == 2
    saved = json.loads(path.read_text())
    check(schema, saved)
    rep_file = tmp_path / "bare.json"
    rep_file.write_text(json.dumps(saved["representation"]))
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(rep_file))
    assert code == 0
    assert doc["relations"]["ok"] is True
    assert doc["relations"]["max_residual"] == 0.0


def test_gen_rejects_mixed_sources(capsys, tmp_path):
    code, doc, _ = run_cli(capsys, "gen", "--family", "standard",
                           "--strands", "4", "--rep", str(tmp_path / "x.json"))
    assert code == 2
    assert doc["ok"] is False


def test_gen_needs_a_source(capsys, schema):
    code, doc, _ = run_cli(capsys, "gen")
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "ValueError"


def test_rep_file_with_bad_json_is_usage_error(capsys, tmp_path, schema):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc, _ = run_cli(capsys, "corank", "--rep", str(bad))
    assert code == 2
    check(schema, doc)


def test_rep_file_failing_schema(capsys, tmp_path, schema):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"strands": 3, "degree": 3}))
    code, doc, _ = run_cli(capsys, "corank", "--rep", str(bad))
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "SchemaError"


# -- analysis commands ------------------------------------------------------


def test_corank_symbolic(capsys, schema):
    code, doc, _ = run_cli(capsys, "corank", "--family", "standard", "--strands", "4")
    assert code == 0
    check(schema, doc)
    assert doc["corank"]["corank"] == 2


def test_corank_burau(capsys):
    code, doc, _ = run_cli(capsys, "corank", "--family", "burau", "--strands", "4")
    assert code == 0
    assert doc["corank"]["corank"] == 1


def test_irreducible_generic_and_permutation_point(capsys, schema):
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard",
                           "--strands", "3", "--u", "2")
    assert code == 0
    check(schema, doc)
    assert doc["irreducible"] is True and doc["burnside"]["dimension"] == 9
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard",
                           "--strands", "3", "--u", "1")
    assert code == 0
    assert doc["irreducible"] is False and doc["burnside"]["dimension"] == 5


def test_irreducible_norton_takes_no_generation_cap(capsys, schema):
    # Norton's spins stop by dimension, so --max-generations, which caps the
    # span closure, leaves them as they are: 6 generations exact at n = 7
    argv = ["irreducible", "--family", "standard", "--n", "7", "--u", "37/9"]
    for cap in ([], ["--max-generations", "5"], ["--max-generations", "0"]):
        code, doc, _ = run_cli(capsys, *argv, *cap)
        assert code == 0
        check(schema, doc)
        assert doc["irreducible"] is True
        assert (doc["burnside"]["method"], doc["burnside"]["generations"]) == ("norton", 6)
    # and 5 complex, under a cap of 4
    argv = ["irreducible", "--family", "standard", "--n", "7", "--u", "2.5+0.5j"]
    code, doc, _ = run_cli(capsys, *argv, "--max-generations", "4")
    assert code == 0
    check(schema, doc)
    assert (doc["burnside"]["method"], doc["burnside"]["generations"]) == ("norton", 5)
    # the cap still stops the closure: complex Norton does not split u = 1
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard", "--n", "7",
                           "--u=1+0j", "--max-generations", "3")
    assert code == 1
    check(schema, doc)
    assert doc["error"]["name"] == "ClosureDiverged"


def test_irreducible_complex_near_zero_u(capsys, schema):
    # the complex span closure under-counts here (66 of 81), while the exact
    # closure at u = 3/1000 is full; Norton's test certifies the input
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard", "--n", "9",
                           "--u=0.003+0j")
    assert code == 0
    check(schema, doc)
    assert doc["irreducible"] is True
    assert (doc["burnside"]["method"], doc["burnside"]["dimension"]) == ("norton", 81)


def test_irreducibility_undecided_without_a_verified_witness(monkeypatch, capsys, schema):
    # the complex closure reads 66 of 81 on this irreducible input; with
    # Norton's test forced to decline, the search finds no subspace that
    # passes the invariance check, so neither command calls it reducible
    from braidrep import analysis, classify, specialize, standard_rep
    from braidrep.errors import IrreducibilityUndecided

    monkeypatch.setattr(analysis, "_norton", lambda *args, **kwargs: (None, None))
    with pytest.raises(IrreducibilityUndecided, match="66 of 81"):
        classify(specialize(standard_rep(9), 0.003 + 0j))
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard", "--n", "9",
                           "--u=0.003+0j")
    assert code == 1
    check(schema, doc)
    assert doc["error"]["name"] == "IrreducibilityUndecided"


def test_each_module_runs_the_closure_through_its_own_name(monkeypatch, capsys):
    # the benchmark's tracer patches cli.burnside_dimension and
    # classification.burnside_dimension, so each must be the name called
    from braidrep import analysis, classification, cli

    calls = []
    for module in (cli, classification):
        def counted(*args, _module=module, _fn=module.burnside_dimension, **kwargs):
            calls.append(_module.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "burnside_dimension", counted)
    # exact u = 1 is measured from Norton's split; complex Burau at t = -1
    # gives Norton's test no simple eigenvalue, so the closure runs
    assert main(["irreducible", "--family", "burau", "--n", "4", "--u=-1+0j"]) == 0
    monkeypatch.setattr(analysis, "_norton", lambda *args, **kwargs: (None, None))
    assert main(["classify", "--family", "standard", "--n", "5", "--u", "1"]) == 1
    capsys.readouterr()
    assert calls == ["braidrep.cli", "braidrep.classification"]


@pytest.mark.parametrize("n,dim", [(4, 10), (6, 26)])
def test_irreducible_complex_burau_at_minus_one(capsys, schema, n, dim):
    # s1 has no simple eigenvalue at t = -1, so Norton's test gives nothing;
    # the short complex closure stands beside the search's verified witness
    from braidrep import analysis, burau_rep, invariant_subspace_search, specialize
    from test_analysis import assert_witness

    rho = specialize(burau_rep(n), -1 + 0j)
    assert analysis._norton(rho) == (None, None)
    assert_witness(rho, invariant_subspace_search(rho))
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "burau", "--n", str(n),
                           "--u=-1+0j")
    assert code == 0
    check(schema, doc)
    assert doc["irreducible"] is False
    assert (doc["burnside"]["method"], doc["burnside"]["dimension"]) == ("span", dim)


def test_classify_twisted_family(capsys, schema):
    code, doc, _ = run_cli(capsys, "classify", "--family", "standard",
                           "--strands", "9", "--u", "2.5+0j", "--y", "2+0j")
    assert code == 0
    check(schema, doc)
    cls = doc["classification"]
    assert cls["certificate"]["verdict"] == "EQUIVALENT"
    assert abs(cls["y"][0] - 2.0) < 1e-8 and abs(cls["u"][0] - 2.5) < 1e-8


@pytest.mark.parametrize("u, y", [("2", "1e-170"), ("2+0j", "1e-170+0j")])
def test_classify_at_a_twist_whose_square_underflows(capsys, schema, u, y):
    # y^2 underflows to 0 below |y| ~ 1e-162, so u is read as the product
    # of the two simple eigenvalues each divided by y
    code, doc, _ = run_cli(capsys, "classify", "--family", "standard", "--n", "9",
                           "--u", u, "--y", y)
    assert code == 0
    check(schema, doc)
    cls = doc["classification"]
    assert cls["certificate"]["verdict"] == "EQUIVALENT"
    assert cls["y"] == [1e-170, 0.0] and abs(cls["u"][0] - 2.0) < 1e-12


def test_classify_reducible_is_math_failure(capsys, schema):
    code, doc, _ = run_cli(capsys, "classify", "--family", "standard",
                           "--strands", "5", "--u", "1")
    assert code == 1
    check(schema, doc)
    assert doc["ok"] is False
    assert doc["error"]["name"] == "NotIrreducible"


def test_classify_symbolic_is_usage_error(capsys):
    code, doc, _ = run_cli(capsys, "classify", "--family", "standard",
                           "--strands", "9")
    assert code == 2
    assert doc["error"]["name"] == "ValueError"


def test_spectrum_exact(capsys, schema):
    code, doc, _ = run_cli(capsys, "spectrum", "--family", "standard",
                           "--strands", "5", "--u", "4")
    assert code == 0
    check(schema, doc)
    mults = sorted(e["multiplicity"] for e in doc["eigenvalues"])
    assert mults == [1, 1, 3]
    assert doc["charpoly"] is not None


def test_spectrum_symbolic_charpoly_only(capsys):
    code, doc, _ = run_cli(capsys, "spectrum", "--family", "standard",
                           "--strands", "3")
    assert code == 0
    assert doc["eigenvalues"] is None
    assert doc["charpoly"] is not None


def test_spectrum_of_theta_power(capsys):
    code, doc, _ = run_cli(capsys, "spectrum", "--family", "standard",
                           "--strands", "3", "--u", "2",
                           "--word", "s1 s2 s1 s2 s1 s2")
    assert code == 0
    values = {(round(e["value"][0], 6), round(e["value"][1], 6), e["multiplicity"])
              for e in doc["eigenvalues"]}
    assert values == {(4.0, 0.0, 3)}


def test_jordan_command(capsys, schema):
    code, doc, _ = run_cli(capsys, "jordan", "--family", "standard",
                           "--strands", "9", "--u", "3", "--y", "2",
                           "--word", "s8", "--eigenvalue", "2",
                           "--invariant-under", "1,2,3,4,5,6,8")
    assert code == 0
    check(schema, doc)
    assert doc["jordan"]["dim"] == 7
    assert doc["invariance"]["ok"] is True
    code, doc, _ = run_cli(capsys, "jordan", "--family", "standard",
                           "--strands", "9", "--u", "3", "--y", "2",
                           "--word", "s8", "--eigenvalue", "2",
                           "--invariant-under", "7")
    assert code == 0
    assert doc["invariance"]["ok"] is False


def test_jordan_not_eigenvalue(capsys, schema):
    code, doc, _ = run_cli(capsys, "jordan", "--family", "standard",
                           "--strands", "5", "--u", "4", "--eigenvalue", "17")
    assert code == 1
    check(schema, doc)
    assert doc["error"]["name"] == "NotEigenvalue"


@pytest.mark.parametrize("flags, message", [
    (["--eigenvalue", "4", "--y=2+0j"], "a complex twist needs a specialized representation"),
    (["--eigenvalue=1+0j"], "a complex eigenvalue needs a specialized representation"),
], ids=["y", "eigenvalue"])
def test_complex_scalar_complexifies_an_exact_rep_only(capsys, schema, flags, message):
    base = ["jordan", "--family", "standard", "--n", "5", "--word", "s1 s2"]
    code, doc, _ = run_cli(capsys, *base, *flags)
    assert code == 2
    check(schema, doc)
    assert doc["error"] == {"name": "ValueError", "message": message + "; pass --u as well"}
    code, doc, _ = run_cli(capsys, *base, "--u", "3", *flags)
    assert code == 0
    check(schema, doc)
    assert [b["domain"] for b in doc["jordan"]["basis"]] == ["complex"] * doc["jordan"]["dim"]


def test_theta_cycle_command(capsys, schema):
    code, doc, _ = run_cli(capsys, "theta-cycle", "--family", "standard",
                           "--strands", "5", "--u", "4")
    assert code == 0
    check(schema, doc)
    assert doc["found"] is True
    assert doc["witness"]["x"] == "2"
    assert doc["cycle"]["cycle_ok"] is True
    assert doc["cycle"]["independence"] >= 3


def test_audit_command(capsys, schema):
    code, doc, _ = run_cli(capsys, "audit", "--strands", "9", "--trials", "2",
                           "--seed", "5")
    assert code == 0
    check(schema, doc)
    audit = doc["audit"]
    assert audit["pass_count"] == 2 and audit["pass_rate"] == 1.0
    assert len(audit["rows"]) == 2


# -- tolerances -------------------------------------------------------------


def test_tol_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDREP_TOL", "1e-5")
    code, doc, _ = run_cli(capsys, "relations", "--family", "standard",
                           "--strands", "3")
    assert code == 0 and doc["tol"] == 1e-5
    code, doc, _ = run_cli(capsys, "relations", "--family", "standard",
                           "--strands", "3", "--tol", "1e-11")
    assert code == 0 and doc["tol"] == 1e-11


def test_bad_tol_env(capsys, monkeypatch, schema):
    monkeypatch.setenv("BRAIDREP_TOL", "soft")
    code, doc, _ = run_cli(capsys, "relations", "--family", "standard",
                           "--strands", "3")
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "ValueError"


def test_n_flag_is_strands_alias(capsys):
    main(["gen", "--family", "standard", "--n", "4"])
    out1 = capsys.readouterr().out
    main(["gen", "--family", "standard", "--strands", "4"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_format_flag(capsys):
    code, doc, _ = run_cli(capsys, "gen", "--family", "standard", "--n", "3",
                           "--format", "json")
    assert code == 0
    assert main(["gen", "--family", "standard", "--n", "3",
                 "--format", "csv"]) == 2
    capsys.readouterr()


def test_non_square_matrix_file(capsys, tmp_path, schema):
    rep = {
        "strands": 2,
        "degree": 2,
        "domain": "rational",
        "label": "",
        "generators": [{"rows": 2, "cols": 3, "domain": "rational",
                        "entries": ["1", "0", "0", "0", "1", "0"]}],
    }
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(rep))
    code, doc, _ = run_cli(capsys, "corank", "--rep", str(path))
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "SchemaError"


@pytest.mark.parametrize("domain", ["rational", "complex"])
@pytest.mark.parametrize("command", ["relations", "corank", "irreducible", "classify"])
def test_degree_zero_rep_file_is_schema_error(capsys, tmp_path, schema, command, domain):
    empty = {"rows": 0, "cols": 0, "domain": domain, "entries": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"strands": 3, "degree": 0, "domain": domain,
                                "label": "", "generators": [empty, empty]}))
    code, doc, _ = run_cli(capsys, command, "--rep", str(path))
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "SchemaError"


def test_numeric_flag_validation(capsys, schema):
    code, doc, _ = run_cli(capsys, "relations", "--family", "standard",
                           "--n", "3", "--tol", "0")
    assert code == 2
    check(schema, doc)
    code, doc, _ = run_cli(capsys, "gen", "--family", "standard", "--n", "1")
    assert code == 2
    code, doc, _ = run_cli(capsys, "audit", "--n", "9", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "standard", "--n", "3", "--u", "inf"],
    ["gen", "--family", "standard", "--n", "3", "--u", "nan"],
    ["classify", "--family", "standard", "--n", "9", "--u", "2+0j", "--y", "inf"],
    ["jordan", "--family", "standard", "--n", "5", "--u", "2+0j", "--eigenvalue", "nan"],
    ["relations", "--family", "standard", "--n", "3", "--cluster-tol", "inf"],
    ["audit", "--n", "5", "--trials", "1", "--param-tol", "nan"],
    ["audit", "--n", "5", "--trials", "1", "--residual-tol", "inf"],
])
def test_non_finite_values_are_refused(capsys, schema, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    check(schema, doc)
    assert doc["ok"] is False and doc["error"]["name"] == "ValueError"


def _broken_rep_file(tmp_path):
    # diag(1, 2) and diag(2, 1): s1 s2 s1 and s2 s1 s2 differ
    gens = [{"rows": 2, "cols": 2, "domain": "rational", "entries": e}
            for e in (["1", "0", "0", "2"], ["2", "0", "0", "1"])]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"strands": 3, "degree": 2, "domain": "rational",
                                "label": "", "generators": gens}))
    return path


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_cannot_pass_broken_relations(capsys, monkeypatch, tmp_path,
                                                     schema, tol):
    path = _broken_rep_file(tmp_path)
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(path))
    assert code == 1 and doc["error"]["name"] == "RelationFailure"
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(path), "--tol", tol)
    assert code == 2 and doc["ok"] is False
    check(schema, doc)
    monkeypatch.setenv("BRAIDREP_TOL", tol)
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(path))
    assert code == 2 and doc["ok"] is False
    check(schema, doc)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_rep_file_with_non_finite_entry_is_schema_error(capsys, tmp_path, schema, text):
    one, zero = "[1.0, 0.0]", "[0.0, 0.0]"
    entries = "[%s, %s, %s, [%s, 0.0]]" % (one, zero, zero, text)
    path = tmp_path / "nonfinite.json"
    path.write_text('{"strands": 2, "degree": 2, "domain": "complex", "label": "",'
                    ' "generators": [{"rows": 2, "cols": 2, "domain": "complex",'
                    ' "entries": %s}]}' % entries)
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(path))
    assert code == 2
    check(schema, doc)
    assert doc["error"]["name"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    # the unreduced Burau module fixes the all-ones vector, so it is reducible
    ["--family", "burau", "--n", "4", "--u=1e-320+0j"],
    ["--family", "standard", "--n", "3", "--u=1e-320+0j"],
    ["--family", "standard", "--n", "4", "--u=1e-320+0j"],
    ["--family", "standard", "--n", "9", "--u=1e-310+0j"],
], ids=["burau-4", "standard-3", "standard-4", "standard-9"])
def test_overflowing_inverse_is_not_invertible(capsys, schema, argv):
    # 1/u overflows to inf, so the inverse residual is NaN: it must fail the
    # tolerance, not certify the module or spin NaN vectors into a basis
    code, doc, out = run_cli(capsys, "irreducible", *argv)
    assert code == 1 and out.count('"schema"') == 1
    check(schema, doc)
    assert doc["error"]["name"] == "NotInvertible" and "irreducible" not in doc


def test_nan_relation_residual_fails_the_check(capsys, schema, tmp_path):
    # finite entries, but one relation residual is NaN
    import numpy as np
    from braidrep import Rep
    from test_reps import nan_residual_gens

    path = tmp_path / "nan_residual.json"
    path.write_text(json.dumps(Rep(5, nan_residual_gens(), check=False).to_json_dict()))
    with np.errstate(over="ignore", invalid="ignore"):
        code, doc, out = run_cli(capsys, "relations", "--rep", str(path))
    assert code == 1 and out.count('"schema"') == 1
    check(schema, doc)
    assert doc["error"]["name"] == "RelationFailure"


@pytest.mark.parametrize("command", ["relations", "classify"])
@pytest.mark.parametrize("argv", [
    ["--family", "standard", "--n", "5", "--u=1e200+0j"],
    ["--family", "burau", "--n", "9", "--u=1e200+0j"],
    ["--family", "standard", "--n", "9", "--u=2+0j", "--y=1e150+0j"],
], ids=["standard-5", "burau-9", "twist-1e150"])
def test_overflowing_relations_are_numeric_overflow(capsys, schema, command, argv):
    # u^2 (y^3 for the twist) is beyond the float range, while the relations
    # hold: once "ok": false with null residuals, and RelationFailure
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, out = run_cli(capsys, command, *argv)
    assert code == 1 and out.count('"schema"') == 1
    check(schema, doc)
    assert doc["error"]["name"] == "NumericOverflow"
    assert "relations" not in doc and "classification" not in doc


def test_overflowing_rep_file_is_numeric_overflow(capsys, schema, tmp_path):
    from braidrep import specialize, standard_rep

    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(specialize(standard_rep(5), 1e200 + 0j).to_json_dict()))
    code, doc, _ = run_cli(capsys, "relations", "--rep", str(path))
    assert code == 1
    check(schema, doc)
    assert doc["error"]["name"] == "NumericOverflow"


@pytest.mark.parametrize("command", ["classify", "relations", "gen"])
@pytest.mark.parametrize("n", [9, 12])
def test_overflowing_twist_is_numeric_overflow(capsys, schema, command, n):
    # u * y = 1e350: the twist itself leaves the float range, while the
    # relations hold; once RelationFailure, "max residual nan"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, out = run_cli(capsys, command, "--family", "standard", "--n", str(n),
                                 "--u=1e200+0j", "--y=1e150+0j")
    assert code == 1 and out.count('"schema"') == 1
    check(schema, doc)
    assert doc["error"]["name"] == "NumericOverflow"
    assert "twist" in doc["error"]["message"]


@pytest.mark.parametrize("n,u", [(9, "1e30+0j"), (9, "1e13+0j"), (9, "1+1e-9j"),
                                 (12, "1e13+0j"), (12, "1e30+0j")])
def test_overflowing_witness_search_is_undecided(capsys, schema, n, u):
    # at y = 1e-170 the inverse images have entries near 1e170, and the
    # search's random products overflow: once LinAlgError, exit 2
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, _ = run_cli(capsys, "classify", "--family", "standard", "--n", str(n),
                               "--u=" + u, "--y=1e-170+0j")
    assert code == 1
    check(schema, doc)
    assert doc["error"]["name"] == "IrreducibilityUndecided"


def test_classify_at_a_tiny_twist_warns_nothing(capsys, schema):
    # the dual spin's products have entries near 1/y = 1e170: their squared
    # norms overflowed in the screen, which numpy printed on stderr
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, _ = run_cli(capsys, "classify", "--family", "standard", "--n", "9",
                               "--u", "2+0j", "--y", "1e-170+0j")
    assert code == 0
    check(schema, doc)
    assert doc["classification"]["certificate"]["verdict"] == "EQUIVALENT"


def test_memory_error_is_reported_in_the_envelope(capsys, schema, monkeypatch):
    from braidrep import cli

    def too_large(n):
        raise MemoryError()
    monkeypatch.setitem(cli._FAMILIES, "standard", too_large)
    code, doc, out = run_cli(capsys, "gen", "--family", "standard", "--n", "30000")
    assert code == 2 and out.count('"schema"') == 1
    check(schema, doc)
    assert doc["ok"] is False and doc["error"]["name"] == "MemoryError"
    assert doc["error"]["message"] == "input too large for the memory at hand"


# -- exit codes and determinism ---------------------------------------------


def test_classify_real_negative_u_real_y(capsys, schema):
    for argv in (["--u=-2+0j", "--y=1+0j"], ["--u", "-2+0j", "--y", "1+0j"]):
        code, doc, _ = run_cli(capsys, "classify", "--family", "standard",
                               "--n", "9", *argv)
        assert code == 0
        check(schema, doc)
        cls = doc["classification"]
        assert cls["certificate"]["verdict"] == "EQUIVALENT"
        assert cls["contradiction"] is False


def test_negative_scalar_values(capsys, schema):
    code, doc, out = run_cli(capsys, "irreducible", "--family", "standard",
                             "--n", "6", "--u", "-5/3")
    assert code == 0
    check(schema, doc)
    assert doc["irreducible"] is True
    assert run_cli(capsys, "irreducible", "--family", "standard", "--n", "6",
                   "--u=-5/3")[2] == out
    code, doc, _ = run_cli(capsys, "irreducible", "--family", "standard",
                           "--n", "6", "--u", "-2+0j")
    assert code == 0
    assert doc["burnside"]["domain"] == "complex"
    code, doc, _ = run_cli(capsys, "jordan", "--family", "standard", "--n", "9",
                           "--u", "3", "--y", "-2", "--word", "s8",
                           "--eigenvalue", "-2")
    assert code == 0
    check(schema, doc)
    assert doc["jordan"]["eigenvalue"] == "-2" and doc["jordan"]["dim"] == 7


@pytest.mark.parametrize("argv,command", [
    (["no-such-command"], None),
    ([], None),
    (["irreducible", "--family", "standard", "--n", "6", "--u"], "irreducible"),
    (["corank", "--family", "nope", "--n", "4"], "corank"),
    (["gen", "--family", "standard", "--n", "3", "--bogus"], "gen"),
])
def test_usage_error_envelope(capsys, schema, argv, command):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    check(schema, doc)
    assert doc["command"] == command
    assert doc["ok"] is False and doc["error"]["name"] == "UsageError"


def test_non_finite_numbers_are_null(capsys, schema):
    # a coarse cluster tolerance merges the spectrum, so every row errors
    # with an infinite parameter error
    code, doc, _ = run_cli(capsys, "audit", "--n", "5", "--trials", "3",
                           "--cluster-tol", "0.5")
    assert code == 0
    check(schema, doc)
    audit = doc["audit"]
    assert audit["max_param_err"] is None
    assert all(r["error"] and r["y_err"] is None and r["u_err"] is None
               for r in audit["rows"])


@pytest.mark.parametrize("env", [
    {"a": [1.5, (2, "x")], "b": {"c": None}},
    {"a": [float("inf"), (float("nan"), 1)], "b": {"c": -float("inf")}},
    {"z": float("nan"), "a": {"b": [[np.float64("inf"), 2.5]], "c": "\u00e9"}},
    {"deep": [[[{"x": -float("inf")}]]], "e": [], "f": {}, "g": -0.0},
    {1: [float("nan")], 2: {"a": 1e308}},
])
def test_emit_matches_the_strict_rebuild(capsys, env):
    # non-finite floats are written as null; the int keys of the last report
    # go to json.dumps, the writer taking str keys only
    from braidrep.cli import _emit, _strict

    _emit(env, None)
    assert capsys.readouterr().out == json.dumps(
        _strict(env), sort_keys=True, indent=2, allow_nan=False) + "\n"


_SCALARS = st.one_of(
    st.text(st.characters(), max_size=8),
    st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028\U0001f600"]),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-320, 5e-324, 1e308, -1.7976931348623157e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)

_TREES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(st.characters(), max_size=6), kids, max_size=4),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(x):
    from braidrep.cli import _dumps

    assert _dumps(x) == json.dumps(x, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("x", [float("nan"), [1, float("inf")], {"a": (np.float64("-inf"),)}])
def test_writer_refuses_non_finite_floats(x):
    from braidrep.cli import _dumps

    with pytest.raises(ValueError):
        json.dumps(x, allow_nan=False)
    with pytest.raises(ValueError):
        _dumps(x)


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_byte_identical_reports(capsys):
    argv = ["classify", "--family", "standard", "--strands", "9",
            "--u", "2.5+0j", "--y", "2+0j"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_audit(capsys):
    argv = ["audit", "--strands", "9", "--trials", "2", "--seed", "3"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv + ["--jobs", "2"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["corank", "--family", "standard", "--strands", "4", "--u", "3"]
    main(argv)
    out = capsys.readouterr().out
    path = tmp_path / "report.json"
    main(argv + ["--out", str(path)])
    assert capsys.readouterr().out == ""
    assert path.read_text() == out


def test_cached_parser_answers_like_a_fresh_one(capsys, monkeypatch, tmp_path):
    from braidrep import cli

    out = tmp_path / "report.json"
    steps = [  # (BRAIDREP_TOL or None, argv)
        (None, ["relations", "--family", "standard", "--n", "4", "--bogus"]),
        (None, []),
        (None, ["--help"]),
        ("1e-5", ["corank", "--family", "burau", "--n", "4"]),
        ("1e-5", ["relations", "--family", "standard", "--n", "4", "--tol", "1e-6"]),
        (None, ["gen", "--family", "standard", "--n", "3", "--out", str(out)]),
        ("soft", ["relations", "--family", "standard", "--n", "3"]),
        (None, ["corank", "--help"]),
        (None, ["spectrum", "--family", "standard", "--n", "3", "--u", "2"]),
        (None, ["corank", "--family", "standard", "--n", "x"]),
        ("1e-7", ["relations", "--family", "burau", "--n", "5", "--u=-5/3",
                  "--out", str(out)]),
    ]

    def call(argv):
        code = cli.main(list(argv))
        text = capsys.readouterr().out
        written = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return code, text, written

    for tol, argv in steps:
        if tol is None:
            monkeypatch.delenv("BRAIDREP_TOL", raising=False)
        else:
            monkeypatch.setenv("BRAIDREP_TOL", tol)
        cached = call(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = call(argv)
        assert cached == fresh, argv
        assert cached[1] or cached[2]
    assert cli._parser() is cli._parser()
