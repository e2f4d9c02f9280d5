"""Tests for parameter recovery, equivalence certificates and the pipeline."""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import braidrep.classification as classify_mod
from braidrep.classification import (
    audit_theorem,
    certify_equivalence,
    classify,
    recover_parameters,
)
from braidrep.errors import (
    DegenerateU,
    NoDominantEigenvalue,
    NotIrreducible,
)
from braidrep.analysis import burnside_dimension
from braidrep.matrix import (
    Domain,
    Mat,
    _python_max,
    eigen_numeric,
    intertwiner_space,
    relative_residual,
)
from braidrep.reps import (
    Rep,
    character_rep,
    character_twist,
    rep_from_json,
    specialize,
    standard_rep,
)
from test_golden import GOLDEN, HIDDEN


def hidden_model(n: int, y: complex, u: complex, seed: int) -> Rep:
    """The twisted family conjugated by a random well-conditioned basis."""
    base = character_twist(specialize(standard_rep(n), u), y)
    rng = np.random.default_rng(seed)
    while True:
        p = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        if np.linalg.cond(p) <= 1e4:
            break
    pinv = np.linalg.inv(p)
    gens = [Mat.from_numpy(p @ np.array(g.as_numpy(), dtype=complex) @ pinv)
            for g in base.gens]
    return Rep(n, gens, "hidden", check=False)


def test_recover_parameters_plain():
    rho = character_twist(specialize(standard_rep(9), 3), 2)
    params = recover_parameters(rho)
    assert abs(params.y - 2) < 1e-10
    assert abs(params.u - 3) < 1e-9
    mults = sorted(m for _, m in params.spectrum)
    assert mults == [1, 1, 7]


def test_recover_parameters_conjugated():
    y, u = 1.5 - 0.5j, 2.0 + 1.0j
    params = recover_parameters(hidden_model(9, y, u, seed=42))
    assert abs(params.y - y) < 1e-8
    assert abs(params.u - u) < 1e-8


@pytest.mark.parametrize("y", [1e-158, 1e-170, 1e-300])
def test_recover_parameters_at_a_tiny_twist(y):
    # below |y| ~ 1.5e-154, y^2 is subnormal or 0: at y = 1e-158 the
    # quotient by it read u = 2.0000000494, and below 1e-162 it divided by 0
    params = recover_parameters(character_twist(specialize(standard_rep(9), 2 + 0j), y + 0j))
    assert abs(params.y - y) < 1e-15 * y and abs(params.u - 2) < 1e-12


def test_recover_parameters_needs_dominant_eigenvalue():
    rows = [[Fraction(0)] * 5 for _ in range(5)]
    for i, v in enumerate([2, 2, 3, 3, 4]):
        rows[i][i] = Fraction(v)
    d = Mat.from_rows(rows, Domain.RATIONAL)
    # identical diagonal generators commute, so the relations hold trivially
    rho = Rep(5, [d] * 4)
    with pytest.raises(NoDominantEigenvalue):
        recover_parameters(rho)


def test_recover_parameters_degenerate_u():
    near_zero = character_twist(specialize(standard_rep(9), 1e-4 + 0j), 2.0)
    with pytest.raises(DegenerateU):
        recover_parameters(near_zero)
    near_one = character_twist(specialize(standard_rep(9), 1.0 + 5e-4), 2.0)
    with pytest.raises(DegenerateU):
        recover_parameters(near_one)


def test_recover_parameters_usage_errors():
    with pytest.raises(ValueError):
        recover_parameters(specialize(standard_rep(4), 2))  # too few strands
    with pytest.raises(ValueError):
        recover_parameters(character_rep(9, Fraction(2)))  # degree != strands
    with pytest.raises(ValueError):
        recover_parameters(standard_rep(9))  # symbolic


def test_certify_equivalent_pair():
    y, u = 2.0, 3.0
    rho = hidden_model(9, y, u, seed=7)
    model = character_twist(specialize(standard_rep(9), u + 0j), y + 0j)
    cert = certify_equivalence(rho, model)
    assert cert.verdict == "EQUIVALENT"
    assert cert.intertwiner_dim == 1
    assert cert.residual < 1e-9
    assert cert.condition < 1e6
    x = cert.intertwiner
    for i in range(1, 9):
        lhs = rho.gen(i).to_complex() @ x
        rhs = x @ model.gen(i)
        assert (lhs - rhs).max_norm() <= 1e-8 * max(lhs.max_norm(), 1.0)


def test_certify_wrong_parameters_not_equivalent():
    rho = character_twist(specialize(standard_rep(9), 3.0), 2.0)
    wrong_u = character_twist(specialize(standard_rep(9), 4.0), 2.0)
    cert = certify_equivalence(rho, wrong_u)
    assert cert.verdict == "NOT_EQUIVALENT"
    assert "spectra differ" in cert.obstruction
    wrong_y = character_twist(specialize(standard_rep(9), 3.0), 2.5)
    cert2 = certify_equivalence(rho, wrong_y)
    assert cert2.verdict == "NOT_EQUIVALENT"
    assert "s1" in cert2.obstruction
    # the obstruction is reproducible
    again = certify_equivalence(rho, wrong_u)
    assert again.obstruction == cert.obstruction


def test_certify_no_intertwiner():
    d1 = Mat.from_rows([[2.0 + 0j, 0], [0, 3.0 + 0j]], Domain.COMPLEX)
    d2 = Mat.from_rows([[3.0 + 0j, 0], [0, 2.0 + 0j]], Domain.COMPLEX)
    # same spectra for each generator, but the joint equations clash
    a = Rep(3, [d1, d1], check=False)
    b = Rep(3, [d1, d2], check=False)
    cert = certify_equivalence(a, b)
    assert cert.verdict == "NOT_EQUIVALENT"
    assert cert.intertwiner_dim == 0
    assert "no nonzero intertwiner" in cert.obstruction


def test_certify_reducible_pair_inconclusive():
    d = Mat.from_rows([[2.0 + 0j, 0], [0, 3.0 + 0j]], Domain.COMPLEX)
    a = Rep(3, [d, d], check=False)
    cert = certify_equivalence(a, a)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.intertwiner_dim == 2


def _graph_spin(a, b):
    return classify_mod._graph_intertwiner(
        a, b, eigen_numeric(a.gen(1)), eigen_numeric(b.gen(1)), 1e-9)


def _conjugate_pair(values):
    # a diagonal 2-strand rep and its conjugate by a unit triangular matrix
    d = np.diag(np.array(values, dtype=complex))
    p = np.eye(len(values)) + 0.25 * np.tri(len(values), k=-1)
    return (Rep(2, [Mat.from_numpy(d)]), Rep(2, [Mat.from_numpy(p @ d @ np.linalg.inv(p))]))


def counted_spins(monkeypatch, module):
    """The calls to module._spin from here on; each still runs."""
    calls, spin = [], module._spin

    def counted(*args):
        calls.append(args)
        return spin(*args)

    monkeypatch.setattr(module, "_spin", counted)
    return calls


def test_graph_spin_declines_without_a_simple_eigenvalue(monkeypatch):
    # every eigenvalue of s1 is double: no seed, and the Kronecker system
    # finds the 8-dimensional intertwiner space of the reducible pair
    a, b = _conjugate_pair([2, 2, 3, 3])
    spins = counted_spins(monkeypatch, classify_mod)
    assert _graph_spin(a, b) is None and not spins
    cert = certify_equivalence(a, b)
    assert cert.verdict == "INCONCLUSIVE" and cert.intertwiner_dim == 8


def test_graph_spin_declines_when_no_kernel_is_a_line(monkeypatch):
    # at tol 1e-3 the simple eigenvalues 1 and 1 + 1e-4 of s1 have kernels
    # of dimension 2 and 3 is double: no seed, and the Kronecker system
    # finds an intertwiner space of dimension 8 at that tolerance
    a, b = _conjugate_pair([1, 1 + 1e-4, 3, 3])
    ca, cb = eigen_numeric(a.gen(1)), eigen_numeric(b.gen(1))
    assert [m for _, m in ca] == [m for _, m in cb] == [1, 1, 2]
    spins = counted_spins(monkeypatch, classify_mod)
    assert classify_mod._graph_intertwiner(a, b, ca, cb, 1e-3) is None and not spins
    cert = certify_equivalence(a, b, 1e-3)
    assert cert.verdict == "INCONCLUSIVE" and cert.intertwiner_dim == 8


def _graph_spin_case(case):
    if isinstance(case, str):  # a golden hidden-basis input
        n, y, u, _ = HIDDEN[case]
        data = json.loads((GOLDEN / (case + ".rep.json")).read_text(encoding="utf-8"))
        return rep_from_json(data), y, u
    n, seed = case  # a random twisted family
    rng = np.random.default_rng(seed)
    y = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * np.pi))
    u = complex(rng.uniform(-2.5, 4.0), rng.uniform(-1.5, 1.5))
    return hidden_model(n, y, u, seed), y, u


@pytest.mark.parametrize("case", sorted(HIDDEN) + [(5, 50), (9, 51), (9, 52), (12, 53)])
def test_graph_spin_intertwiner_matches_kronecker(case):
    rho, y, u = _graph_spin_case(case)
    model = character_twist(specialize(standard_rep(rho.strands), u), y)
    cert = _graph_spin(rho, model)
    assert cert.verdict == "EQUIVALENT" and cert.intertwiner_dim == 1
    (ref,) = intertwiner_space(list(rho.gens), list(model.gens))
    x, r = cert.intertwiner.as_numpy(), ref.as_numpy()
    assert np.max(np.abs(x - r)) <= 1e-9 * np.max(np.abs(r))
    assert certify_equivalence(rho, model) == cert


def test_graph_spin_declines_different_u():
    a = character_twist(specialize(standard_rep(9), 3.0 + 0j), 2.0 + 0j)
    b = character_twist(specialize(standard_rep(9), 4.0 + 0j), 2.0 + 0j)
    assert _graph_spin(a, b) is None


def test_graph_spin_declines_reducible_pair():
    a = specialize(standard_rep(9), 1.0 + 0j)
    assert _graph_spin(a, a) is None
    cert = certify_equivalence(a, a)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.intertwiner_dim == 2


@pytest.mark.parametrize("n", [5, 9, 12])
def test_verified_residual_is_the_largest_generator_residual(n):
    # the batched residual against one relative_residual per generator
    a = hidden_model(n, 0.6 + 1.1j, -1.8 + 0.3j, n)
    b = character_twist(specialize(standard_rep(n), -1.8 + 0.3j), 0.6 + 1.1j)
    cert = certify_equivalence(a, b)
    x = cert.intertwiner
    assert cert.verdict == "EQUIVALENT"
    ref = max(relative_residual(a.gen(i) @ x, x @ b.gen(i)) for i in range(1, n))
    assert cert.residual == ref and type(cert.residual) is float


def test_python_max_keeps_a_nan_only_when_it_comes_first():
    nan = float("nan")
    for v in ([1.0, nan, 2.0], [nan, 3.0], [2.0, 1.0], [nan], [0.5, nan]):
        got, ref = _python_max(np.array(v)), max(v)
        assert got == ref or (math.isnan(got) and math.isnan(ref))


def test_certify_degree_mismatch():
    a = specialize(standard_rep(5), 2)
    b = character_rep(5, Fraction(2))
    cert = certify_equivalence(a, b)
    assert cert.verdict == "NOT_EQUIVALENT"
    assert "degrees differ" in cert.obstruction
    with pytest.raises(ValueError):
        certify_equivalence(a, specialize(standard_rep(4), 2))


def test_classify_recovers_hidden_family():
    y, u = 1.2 + 0.3j, 2.5 - 0.8j
    report = classify(hidden_model(9, y, u, seed=3))
    assert report.classified
    assert abs(report.y - y) < 1e-8
    assert abs(report.u - u) < 1e-8
    assert report.burnside.full
    assert not report.contradiction
    assert report.certificate.residual < 1e-9
    json.dumps(report.to_json_dict())


def _classified_as(report, y, u):
    assert report.certificate.verdict == "EQUIVALENT"
    assert not report.contradiction
    assert abs(report.y - y) < 1e-8 * max(1.0, abs(y))
    assert abs(report.u - u) < 1e-8 * max(1.0, abs(u))


@pytest.mark.parametrize("trial", range(10))
def test_classify_hidden_real_negative_u_real_y(trial):
    # the simple eigenvalues +-y sqrt(u) share their real part here; spectra
    # matched by sorting on (real, imag) swapped them into a false
    # NOT_EQUIVALENT with THEOREM-CONTRADICTION
    rng = np.random.default_rng(trial)
    u = complex(-rng.uniform(0.3, 3.0))
    y = complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    _classified_as(classify(hidden_model(9, y, u, seed=100 + trial)), y, u)


@pytest.mark.parametrize("trial", range(3))
def test_classify_hidden_real_positive_u_real_y(trial):
    rng = np.random.default_rng(20 + trial)
    u = complex(rng.uniform(1.3, 4.0))
    y = complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    _classified_as(classify(hidden_model(9, y, u, seed=200 + trial)), y, u)


@pytest.mark.parametrize("trial", range(3))
def test_classify_hidden_unit_circle_y(trial):
    rng = np.random.default_rng(30 + trial)
    u = complex(rng.uniform(-2.5, 4.0), rng.uniform(0.3, 1.5))
    y = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    _classified_as(classify(hidden_model(9, y, u, seed=300 + trial)), y, u)


def test_classify_exact_input():
    report = classify(character_twist(specialize(standard_rep(9), 3), 2))
    assert report.classified
    assert abs(report.y - 2) < 1e-9
    assert abs(report.u - 3) < 1e-8


@pytest.mark.parametrize("n", [9, 12])
def test_classify_exact_input_matches_its_complexification(n):
    # Norton's test runs over Q on exact input, so only the burnside block's
    # domain and generation count may differ from the complex run
    for u in (Fraction(23, 7), Fraction(-5, 3), Fraction(4)):
        for y in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            rho = character_twist(specialize(standard_rep(n), u), y)
            exact = classify(rho).to_json_dict()
            numeric = classify(rho.to_complex()).to_json_dict()
            assert exact["burnside"].pop("domain") == "rational"
            assert numeric["burnside"].pop("domain") == "complex"
            del exact["burnside"]["generations"], numeric["burnside"]["generations"]
            assert exact == numeric, (n, u, y)
            assert exact["burnside"]["method"] == "norton"


def test_classify_small_strands():
    report = classify(specialize(standard_rep(5), 2.0 + 1.0j))
    assert report.classified
    assert abs(report.u - (2 + 1j)) < 1e-8
    assert not report.contradiction


def test_classify_reducible_raises():
    with pytest.raises(NotIrreducible):
        classify(specialize(standard_rep(9), 1))
    with pytest.raises(NotIrreducible):
        classify(specialize(standard_rep(5), 1.0))


@pytest.mark.parametrize("n", [5, 6, 9])
def test_classify_near_zero_u(n):
    # the span closure under-counts at |u| = 3e-3 (24 of 25 at n = 5, while
    # the exact span at u = 3/1000 is 25), so classify used to raise
    # NotIrreducible here
    y, u = cmath.rect(1.1, 0.4), cmath.rect(3e-3, 1.0)
    report = classify(hidden_model(n, y, u, seed=n))
    _classified_as(report, y, u)
    assert report.burnside.method == "norton"
    if n == 5:
        assert burnside_dimension(specialize(standard_rep(5), Fraction(3, 1000))).full


@pytest.mark.parametrize("u,y", [(1 + 0j, 2 + 0j), (Fraction(1), Fraction(2))], ids=str)
def test_classify_reducible_n40_by_norton_witness(monkeypatch, u, y):
    # Norton's kernel spin stops at n - 1 and is the witness; the span
    # closure, which takes minutes here, never runs
    rho = character_twist(specialize(standard_rep(40), u), y)
    counts = count_calls(monkeypatch, "burnside_dimension")
    start = time.perf_counter()
    with pytest.raises(NotIrreducible, match="invariant subspace of dimension 39 of 40"):
        classify(rho)
    assert time.perf_counter() - start < 5.0
    assert counts["burnside_dimension"] == 0


def test_classify_n40_within_budget():
    y, u = cmath.rect(1.1, 0.4), 1.7 - 0.6j
    rho = hidden_model(40, y, u, seed=40)
    start = time.perf_counter()
    report = classify(rho)
    assert time.perf_counter() - start < 30.0
    assert report.certificate.verdict == "EQUIVALENT"
    assert abs(report.y - y) < 1e-7 and abs(report.u - u) < 1e-7


def test_classify_usage_errors():
    with pytest.raises(ValueError):
        classify(character_rep(5, Fraction(2)))
    with pytest.raises(ValueError):
        classify(standard_rep(5))


def test_classify_contradiction_flag(monkeypatch):
    requests = []

    def fake_cert(a, b, tol=1e-9, cluster_tol=1e-6):
        requests.append((a, b))
        return classify_mod.EquivalenceCert(
            "NOT_EQUIVALENT", "forced by the test", None, 0, None, None)

    monkeypatch.setattr(classify_mod, "certify_equivalence", fake_cert)
    counts = count_calls(monkeypatch, "burnside_dimension")
    report = classify_mod.classify(hidden_model(9, 2.0, 3.0, seed=1))
    # Norton's certificate stands whatever the verdict: no span closure
    # runs, and the certificate is asked once
    assert len(requests) == 1
    assert report.burnside.method == "norton"
    assert counts["burnside_dimension"] == 0
    assert report.contradiction
    assert "THEOREM-CONTRADICTION" in report.notes


# -- one pass: each stage runs once --------------------------------------------


def count_calls(monkeypatch, *names):
    """Wrap the named classification globals; returns name -> call count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _fn=getattr(classify_mod, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(classify_mod, name, wrapper)
    return counts


@pytest.mark.parametrize("n", [9, 12])
def test_certify_compares_the_s1_spectra_only(monkeypatch, n):
    y, u = 1.2 + 0.3j, 2.5 - 0.8j
    model = character_twist(specialize(standard_rep(n), u), y)
    counts = count_calls(monkeypatch, "eigen_numeric")
    assert certify_equivalence(hidden_model(n, y, u, seed=n), model).verdict == "EQUIVALENT"
    assert counts["eigen_numeric"] == 2


def test_classify_hidden_n12_runs_each_stage_once(monkeypatch):
    data = json.loads((GOLDEN / "hidden_n12.rep.json").read_text(encoding="utf-8"))
    rho = rep_from_json(data)
    counts = count_calls(monkeypatch, "recover_parameters", "certify_equivalence",
                         "burnside_dimension")
    assert classify(rho).classified
    assert counts == {"recover_parameters": 1, "certify_equivalence": 1,
                      "burnside_dimension": 0}


def test_classify_degenerate_u_skips_the_closure(monkeypatch):
    # Norton's test certifies this input, so recovery's DegenerateU is
    # reported without running the span closure first
    rho = character_twist(specialize(standard_rep(9), 1.0005 + 0j), 1 + 0j)
    counts = count_calls(monkeypatch, "burnside_dimension")
    with pytest.raises(DegenerateU):
        classify(rho)
    assert counts["burnside_dimension"] == 0


def test_certify_never_equivalent_when_only_s2_spectra_differ():
    # equal s1 spectra, s2 spectra {2, 3} against {2, 5}: the relations do
    # not hold, and the residual check on every generator refuses the pair
    d23 = Mat.from_rows([[2.0 + 0j, 0], [0, 3.0 + 0j]], Domain.COMPLEX)
    d25 = Mat.from_rows([[2.0 + 0j, 0], [0, 5.0 + 0j]], Domain.COMPLEX)
    a = Rep(3, [d23, d23], check=False)
    b = Rep(3, [d23, d25], check=False)
    assert certify_equivalence(a, b).verdict != "EQUIVALENT"
    assert certify_equivalence(b, a).verdict != "EQUIVALENT"


def test_audit_theorem_small_run():
    summary = audit_theorem(strands=9, trials=3, seed=5)
    assert summary.pass_rate == 1.0
    assert summary.max_param_err < 1e-7
    assert summary.max_residual < 1e-8
    for row in summary.rows:
        assert 0.5 <= abs(row.y) <= 2.0
        assert abs(row.u) > 0.25 and abs(row.u - 1) > 0.25
        assert row.corank_ok and row.burnside_full
    json.dumps(summary.to_json_dict())


def test_audit_theorem_deterministic_and_parallel():
    a = audit_theorem(strands=9, trials=4, seed=11, jobs=1)
    b = audit_theorem(strands=9, trials=4, seed=11, jobs=2)
    assert a.rows == b.rows
    c = audit_theorem(strands=9, trials=4, seed=11, jobs=1)
    assert a.rows == c.rows


def test_audit_theorem_asks_for_no_more_workers_than_trials(monkeypatch):
    sizes = []

    class RecordingPool:  # runs the trials in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(classify_mod, "ProcessPoolExecutor", RecordingPool)
    serial = audit_theorem(strands=5, trials=2, seed=4)
    assert audit_theorem(strands=5, trials=2, seed=4, jobs=64).rows == serial.rows
    assert audit_theorem(strands=5, trials=1, seed=4, jobs=64).rows == serial.rows[:1]
    assert sizes == [2]


def test_audit_theorem_other_strand_counts():
    for n in (10, 12):
        summary = audit_theorem(strands=n, trials=1, seed=2)
        assert summary.pass_rate == 1.0
