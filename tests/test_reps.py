"""Tests for the representation families and transforms."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import analysis
from braidrep import reps as reps_mod
from braidrep.braid import BraidWord, theta_word
from braidrep.errors import (
    ClusterAmbiguous,
    GenericDisagreement,
    IndexOutOfRange,
    NotInvertible,
    NumericOverflow,
    RelationFailure,
    SchemaError,
    ZeroScalar,
    ZeroSubstitution,
)
from braidrep.laurent import LaurentPoly
from braidrep.matrix import (
    DEFAULT_TOL,
    Domain,
    Mat,
    eigen_numeric,
    _fraction_free,
    mat_from_json,
    ops_for,
    rank_exact,
    rank_numeric,
    relative_residual,
)
from braidrep.reps import (
    Rep,
    burau_rep,
    character_rep,
    character_twist,
    check_braid_relations,
    eval_word,
    rep_from_json,
    specialize,
    standard_rep,
)
from test_classify import hidden_model
from test_matrix import dense_product

T = LaurentPoly.t()


def test_standard_generator_matrix_n3():
    rho = standard_rep(3)
    g1 = rho.gen(1)
    assert g1.row_lists() == [
        [LaurentPoly.zero(), T, LaurentPoly.zero()],
        [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero()],
        [LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.one()],
    ]
    g2 = rho.gen(2)
    assert g2.at(1, 2) == T
    assert g2.at(2, 1) == LaurentPoly.one()
    assert g2.at(0, 0) == LaurentPoly.one()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_standard_trace_and_det(n):
    rho = standard_rep(n)
    for i in range(1, n):
        g = rho.gen(i)
        assert g.trace() == LaurentPoly.const(n - 2)
        assert g.det() == -T


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_standard_relations_exact(n):
    report = check_braid_relations(standard_rep(n))
    assert report.ok
    assert report.max_residual == 0.0
    n_adj = n - 2
    n_far = (n - 1) * (n - 2) // 2 - (n - 2) if n >= 3 else 0
    kinds = [e.kind for e in report.entries]
    assert kinds.count("adjacent") == n_adj
    assert kinds.count("far") == n_far


@pytest.mark.parametrize("n", [3, 4, 5])
def test_burau_relations_and_fixed_vector(n):
    rho = burau_rep(n)
    assert check_braid_relations(rho).ok
    ones = Mat.column_vector([LaurentPoly.one()] * n, Domain.LAURENT)
    for i in range(1, n):
        assert rho.gen(i) @ ones == ones  # rows sum to 1


def test_theta_image_standard3():
    rho = standard_rep(3)
    m = eval_word(rho, theta_word(3))
    t2 = T * T
    assert m.row_lists() == [
        [LaurentPoly.zero(), LaurentPoly.zero(), t2],
        [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero()],
        [LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.zero()],
    ]


def test_eval_word_homomorphism():
    rho = standard_rep(4)
    rng = random.Random(7)
    names = ["s1", "s2", "s3", "s1^-1", "s2^-1", "s3^-1"]
    for _ in range(25):
        w1 = BraidWord.parse(4, " ".join(rng.choice(names) for _ in range(4)))
        w2 = BraidWord.parse(4, " ".join(rng.choice(names) for _ in range(4)))
        assert eval_word(rho, w1 * w2) == eval_word(rho, w1) @ eval_word(rho, w2)


def test_eval_word_inverse_letters():
    rho = standard_rep(4)
    w = BraidWord.parse(4, "s1 s3^-1 s2 s2 s1^-1")
    assert eval_word(rho, w * w.inverse()) == Mat.identity(4, Domain.LAURENT)
    assert eval_word(rho, w) @ eval_word(rho, w.inverse()) == Mat.identity(4, Domain.LAURENT)


def test_eval_word_strand_mismatch():
    with pytest.raises(ValueError):
        eval_word(standard_rep(3), theta_word(4))


def test_gen_index_errors():
    rho = standard_rep(3)
    with pytest.raises(IndexOutOfRange):
        rho.gen(0)
    with pytest.raises(IndexOutOfRange):
        rho.gen(3)
    with pytest.raises(IndexOutOfRange):
        rho.gen_inverse(5)


def test_specialize_rational():
    rho = specialize(standard_rep(5), 4)
    assert rho.domain is Domain.RATIONAL
    assert rho.gen(1).at(0, 1) == Fraction(4)
    assert check_braid_relations(rho).ok
    assert "standard(5)" in rho.label and "t=4" in rho.label


def test_specialize_complex():
    rho = specialize(standard_rep(3), 2.0 + 1.0j)
    assert rho.domain is Domain.COMPLEX
    assert rho.gen(2).at(1, 2) == 2.0 + 1.0j
    assert check_braid_relations(rho).ok


@pytest.mark.parametrize("u", [Fraction(2), 2.5 + 0.5j], ids=str)
def test_specialize_evaluates_each_distinct_entry_once(monkeypatch, u):
    t = LaurentPoly.t()
    s1, s2 = standard_rep(3).gens
    # t - 2 vanishes at u = 2, where the exact index must leave it out
    s2 = s2 + Mat.from_rows([[0, t - 2, 0], [0, 0, 0], [0, 0, 0]], Domain.LAURENT)
    rho = Rep(3, [s1, s2], check=False)
    want = [[x.eval(u) for x in g.entries] for g in rho.gens]
    calls = []
    evaluate = LaurentPoly.eval
    monkeypatch.setattr(LaurentPoly, "eval",
                        lambda self, v: calls.append(self) or evaluate(self, v))
    got = specialize(rho, u)
    entries = {x for g in rho.gens for x in g.entries}
    assert len(calls) == len(entries) and set(calls) == entries
    if got.domain is Domain.COMPLEX:
        assert got.stack.tobytes() == np.array(want).reshape(2, 3, 3).tobytes()
    else:
        assert [list(g.entries) for g in got.gens] == want
        for g in got.gens:
            assert g._nz == Mat(3, 3, Domain.RATIONAL, g.entries)._nonzeros()
        assert got.gen(2)._nz[0] == (0,)


def test_specialize_zero_rejected():
    with pytest.raises(ZeroSubstitution):
        specialize(standard_rep(3), 0)


def test_specialize_marks_permutation_point():
    rho = specialize(standard_rep(3), 1)
    assert "permutation point" in rho.label
    assert check_braid_relations(rho).ok
    plain = specialize(standard_rep(3), 2)
    assert "permutation point" not in plain.label


def test_specialize_requires_laurent_domain():
    with pytest.raises(ValueError):
        specialize(specialize(standard_rep(3), 2), 3)


def test_character_twist_rational():
    rho = character_twist(specialize(standard_rep(4), 3), 2)
    assert rho.gen(1).at(1, 0) == Fraction(2)
    assert rho.gen(1).trace() == Fraction(2) * 2  # y * (n - 2)
    assert check_braid_relations(rho).ok
    assert rho.label.startswith("chi(2)*")


def test_character_twist_laurent_unit():
    rho = character_twist(standard_rep(3), LaurentPoly.t())
    assert rho.gen(1).at(0, 1) == T * T
    assert check_braid_relations(rho).ok


def test_character_twist_zero_rejected():
    with pytest.raises(ZeroScalar):
        character_twist(standard_rep(3), 0)
    with pytest.raises(ZeroScalar):
        character_twist(specialize(standard_rep(3), 2), 0)


def test_character_twist_nonunit_rejected():
    with pytest.raises(NotInvertible):
        character_twist(standard_rep(3), LaurentPoly.one() + LaurentPoly.t())


def test_character_rep():
    chi = character_rep(6, Fraction(3))
    assert chi.degree == 1
    assert chi.strands == 6
    assert eval_word(chi, theta_word(6)).at(0, 0) == Fraction(3) ** 5
    with pytest.raises(ZeroScalar):
        character_rep(4, 0)


def test_relation_failure_on_construction():
    rho = standard_rep(3)
    bad = list(rho.gens)
    ent = list(bad[0].entries)
    ent[2] = LaurentPoly.one()  # poke the (0,2) entry
    bad[0] = Mat(3, 3, Domain.LAURENT, ent)
    with pytest.raises(RelationFailure):
        Rep(3, bad)


def nan_residual_gens() -> list[Mat]:
    """Complex tau_5(2) conjugated by P = I + 1e160 E_53: the entries are
    finite, and the third relation residual is NaN."""
    p = np.eye(5, dtype=complex)
    p[4, 2] = 1e160
    q = np.eye(5, dtype=complex)
    q[4, 2] = -1e160
    return [Mat.from_numpy(p @ g.as_numpy() @ q)
            for g in specialize(standard_rep(5), 2 + 0j).gens]


def test_nan_relation_residual_is_not_ok():
    # max() kept a NaN only when it came first, so ok read true
    gens = nan_residual_gens()
    assert all(np.isfinite(g.as_numpy()).all() for g in gens)
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_braid_relations(Rep(5, gens, check=False))
        residuals = [e.residual for e in report.entries]
        assert math.isnan(residuals[2]) and not math.isnan(residuals[0])
        assert math.isnan(report.max_residual) and not report.ok
        assert report.to_json_dict()["ok"] is False
        with pytest.raises(RelationFailure):
            Rep(5, gens)


def _pairwise_residuals(rho: Rep) -> list[float]:
    """Each relation as one relative_residual of Mat products, in
    check_braid_relations order: the per-pair reference."""
    g, m = rho.gens, rho.strands - 1
    out = [relative_residual(g[i] @ g[i + 1] @ g[i], g[i + 1] @ g[i] @ g[i + 1])
           for i in range(m - 1)]
    return out + [relative_residual(g[i] @ g[j], g[j] @ g[i])
                  for i in range(m) for j in range(i + 2, m)]


def _perturbed(rho: Rep, k: int) -> Rep:
    a = np.array(rho.stack)
    a[k, 0, 1] += 1e-3
    return Rep(rho.strands, a, check=False)


def _stacked_cases():
    cases = [hidden_model(n, 1.3 - 0.4j, 2.5 + 0.5j, n) for n in range(3, 13)]
    cases.append(_perturbed(hidden_model(9, 0.8j, -1.5, 3), 4))
    cases.append(Rep(5, nan_residual_gens(), check=False))
    return cases


@pytest.mark.parametrize("rho", _stacked_cases(), ids=lambda r: "n%d" % r.degree)
def test_stacked_relation_residuals_match_per_pair(rho, monkeypatch):
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _pairwise_residuals(rho)
        for block in (reps_mod._RELATION_BYTES, 1):  # one byte: a pair per block
            monkeypatch.setattr(reps_mod, "_RELATION_BYTES", block)
            report = check_braid_relations(rho)
            got = [e.residual for e in report.entries]
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            assert [(e.kind, e.i, e.j) for e in report.entries] == [
                (e["kind"], e["i"], e["j"]) for e in _dense_relations(rho, 1e-9)["relations"]]


def test_twist_beyond_the_float_range_raises_numeric_overflow():
    rho = specialize(standard_rep(9), 1e200 + 0j)
    with np.errstate(all="raise"):  # and warns nothing
        with pytest.raises(NumericOverflow):
            character_twist(rho, 1e150)
        with pytest.raises(NumericOverflow):
            character_twist(rho, -1e150j)
        assert np.isfinite(character_twist(rho, 1e100).stack).all()


def test_relations_that_all_overflow_raise_numeric_overflow():
    for rho in (specialize(standard_rep(3), 1e200 + 0j), specialize(standard_rep(5), 1e200 + 0j),
                specialize(burau_rep(9), -1e160 + 0j),
                character_twist(specialize(standard_rep(9), 2 + 0j), 1e150)):
        with pytest.raises(NumericOverflow):
            check_braid_relations(rho)
        with pytest.raises(NumericOverflow):
            Rep(rho.strands, rho.gens)
    # below the range, and an overflow in one relation only, give reports
    assert check_braid_relations(specialize(standard_rep(5), 1e150 + 0j)).ok
    with np.errstate(over="ignore", invalid="ignore"):
        assert not check_braid_relations(Rep(5, nan_residual_gens(), check=False)).ok


def _loop_inverse(g: np.ndarray, tol: float) -> np.ndarray:
    """Mat.inverse of one complex matrix as a call of its own."""
    inv = np.linalg.inv(g)
    resid = float(np.max(np.abs(g @ inv - np.eye(len(g)))))
    if not resid <= tol:
        raise NotInvertible("inverse residual %.3g exceeds tolerance %.3g" % (resid, tol))
    return inv


@pytest.mark.parametrize("n", [3, 5, 9, 12])
def test_batched_inverses_match_mat_inverse(n):
    rho = hidden_model(n, 0.9 + 0.3j, -1.7 + 0.2j, n)
    checked = Rep(n, rho.gens, tol=1e-9)
    for r in (rho, checked):
        for i in range(1, n):
            ref = _loop_inverse(rho.gen(i).as_numpy(), 1e-9)
            assert r.gen_inverse(i).as_numpy().tobytes() == ref.tobytes()
            assert r.gen_inverse(i).entries.base is r.inverse_stack()
        assert r.gen(1).entries.base is r.stack and not r.stack.flags.writeable


def test_batched_inverse_names_the_failing_generator():
    gens = [g.to_complex() for g in specialize(standard_rep(5), 3).gens]
    singular = Mat.from_numpy(np.diag([1.0, 1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(NotInvertible, match="^generator s3: Singular matrix$"):
        Rep(5, gens[:2] + [singular] + gens[3:])
    # s2 fails its residual check, alone or before the singular s4
    tiny = Mat.from_numpy(np.diag([1e-320 + 0j, 1, 1, 1, 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotInvertible, match="^generator s2: inverse residual nan"):
            Rep(5, [gens[0], tiny] + gens[2:])
        with pytest.raises(NotInvertible, match="^generator s2: inverse residual nan"):
            Rep(5, [gens[0], tiny, gens[2], singular])
        with pytest.raises(NotInvertible, match="^generator s2: inverse residual nan"):
            Rep(5, [gens[0], tiny, gens[2], singular], check=False).gen_inverse(1)
        with pytest.raises(NotInvertible, match="^inverse residual nan"):
            specialize(burau_rep(4), 1e-320 + 0j)


def test_exact_inverse_names_the_failing_generator():
    t = LaurentPoly.t()
    # det 1 + t is no unit of the Laurent ring; s3 is singular over Q
    laurent = Mat.from_rows([[t + 1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                            Domain.LAURENT)
    gens = standard_rep(4).gens
    singular = Mat.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                             Domain.RATIONAL)
    rational = specialize(standard_rep(4), 3).gens
    for images, i, message in (
            ([gens[0], laurent, gens[2]], 2, "determinant is not a unit in the laurent domain"),
            ([rational[0], rational[1], singular], 3, "matrix is singular")):
        match = "^generator s%d: %s$" % (i, message)
        with pytest.raises(NotInvertible, match=match):
            Rep(4, images)
        with pytest.raises(NotInvertible, match=match):
            Rep(4, images, check=False).gen_inverse(i)


_MODEL_POINTS = [(2.5 + 0.5j, 0.7 - 1.2j), (-1.5 + 0j, 1j), (2 + 0j, 1e-170 + 0j),
                 (1e-13 + 0j, 1.3 + 0.4j), (1e30 + 0j, -0.5 + 2j), (1 + 0j, -1 + 0j),
                 (-0.0 - 2j, -0.0 - 1j)]


@pytest.mark.parametrize("n", [5, 9, 12])
@pytest.mark.parametrize("family, u, y", [(standard_rep, u, y) for u, y in _MODEL_POINTS]
                         + [(burau_rep, u, y) for u, y in _MODEL_POINTS[:3]])
def test_stacked_model_matches_entrywise_evaluation(n, family, u, y):
    # the model classify builds, against every entry evaluated and twisted
    # by Python's own complex arithmetic
    laurent = family(n)
    model = character_twist(specialize(laurent, u), y)
    ref = np.array([[[y * g.at(i, j).eval(u) for j in range(n)] for i in range(n)]
                    for g in laurent.gens])
    assert model.stack.tobytes() == ref.tobytes()
    assert model.label == "chi(%r)*%s(%d)@t=%r%s" % (
        y.real if y.imag == 0 else y, family.__name__[:-4], n, u.real if u.imag == 0 else u,
        " [u=1 permutation point]" if u == 1 else "")


def test_rep_copies_a_stack_and_checks_its_shape():
    gens = character_twist(specialize(standard_rep(4), 2 + 0j), 1j).stack.copy()
    rho = Rep(4, gens)
    gens[0, 0, 0] = 5
    assert rho.stack[0, 0, 0] == 0 and not rho.stack.flags.writeable and gens.flags.writeable
    for bad in (gens[0], gens[:, :, :3], gens[:2]):
        with pytest.raises(ValueError):
            Rep(4, bad)


def test_noninvertible_generator_rejected():
    z = Mat.zeros(2, 2, Domain.RATIONAL)
    i2 = Mat.identity(2, Domain.RATIONAL)
    with pytest.raises(NotInvertible):
        Rep(3, [z, i2])


def test_complex_relation_residual_small():
    rho = specialize(standard_rep(6), 1.5 - 0.25j)
    report = check_braid_relations(rho)
    assert report.ok
    assert report.max_residual <= 1e-12


def test_rep_json_roundtrip():
    for rho in (standard_rep(4), specialize(standard_rep(3), Fraction(7, 2)),
                specialize(standard_rep(3), 0.5 + 0.5j)):
        d = rho.to_json_dict()
        back = rep_from_json(d)
        assert back == rho
        assert back.label == rho.label


def test_rep_json_validation():
    good = standard_rep(3).to_json_dict()
    with pytest.raises(SchemaError):
        rep_from_json({**good, "generators": good["generators"][:1]})
    with pytest.raises(SchemaError):
        rep_from_json({**good, "degree": 5})
    with pytest.raises(SchemaError):
        rep_from_json({**good, "domain": "rational"})
    with pytest.raises(SchemaError):
        rep_from_json("nope")
    missing = dict(good)
    del missing["strands"]
    with pytest.raises(SchemaError):
        rep_from_json(missing)


def test_rep_json_rejects_booleans_as_sizes():
    # JSON true loads as Python True, which is the int 1
    good = character_rep(3, Fraction(2)).to_json_dict()
    assert rep_from_json(good).degree == 1
    for key in ("degree", "strands"):
        with pytest.raises(SchemaError):
            rep_from_json({**good, key: True})


@pytest.mark.parametrize("domain", ["rational", "complex"])
def test_degree_zero_is_refused(domain):
    empty = {"rows": 0, "cols": 0, "domain": domain, "entries": []}
    d = {"strands": 3, "degree": 0, "domain": domain, "label": "",
         "generators": [empty, empty]}
    with pytest.raises(SchemaError, match="degree at least 1"):
        rep_from_json(d)
    with pytest.raises(ValueError, match="degree at least 1"):
        Rep(3, [mat_from_json(empty)] * 2)


def test_rep_json_checks_relations():
    rho = specialize(standard_rep(3), 2)
    d = rho.to_json_dict()
    d["generators"][0]["entries"][2] = "1"  # break the (0,2) zero
    with pytest.raises(RelationFailure):
        rep_from_json(d)


def test_to_complex():
    rho = specialize(standard_rep(3), Fraction(5, 2)).to_complex()
    assert rho.domain is Domain.COMPLEX
    assert rho.gen(1).at(0, 1) == 2.5
    assert check_braid_relations(rho).ok


def test_relation_report_json():
    rep = check_braid_relations(standard_rep(4)).to_json_dict()
    assert rep["ok"] is True
    assert rep["max_residual"] == 0.0
    assert {e["kind"] for e in rep["relations"]} == {"adjacent", "far"}


def test_checked_rep_keeps_its_relation_report():
    gens = [g.to_complex() for g in specialize(standard_rep(5), 3).gens]
    rho = Rep(5, gens, tol=1e-9)
    report = check_braid_relations(rho, 1e-9)
    assert report is check_braid_relations(rho, 1e-9)
    fresh = check_braid_relations(Rep(5, gens, check=False), 1e-9)
    assert json.dumps(report.to_json_dict()) == json.dumps(fresh.to_json_dict())
    other = check_braid_relations(rho, 1e-6)
    assert other is not report and other.tol == 1e-6


@pytest.mark.parametrize("family", [standard_rep, burau_rep])
@pytest.mark.parametrize("n", [2, 3, 12])
def test_block_family_hands_over_its_nonzero_index(family, n):
    for g in family(n).gens:
        assert g._nz is not None
        assert g._nz == Mat(n, n, Domain.LAURENT, g.entries)._nonzeros()


def _dense_relations(rho: Rep, tol: float) -> dict:
    """Every relation as the residual of dense products: the reference for
    the block split of check_braid_relations."""
    g, m = rho.gens, rho.strands
    rels = [("adjacent", i, i + 1, dense_product(dense_product(g[i], g[i + 1]), g[i]),
             dense_product(dense_product(g[i + 1], g[i]), g[i + 1])) for i in range(m - 2)]
    rels += [("far", i, j, dense_product(g[i], g[j]), dense_product(g[j], g[i]))
             for i in range(m - 1) for j in range(i + 2, m - 1)]
    entries = [{"kind": kind, "i": i + 1, "j": j + 1, "residual": relative_residual(a, b)}
               for kind, i, j, a, b in rels]
    worst = max((e["residual"] for e in entries), default=0.0)
    return {"domain": rho.domain.value, "tol": tol, "ok": worst == 0.0,
            "max_residual": worst, "relations": entries}


@st.composite
def split_reps(draw):
    """Exact reps of two kinds.

    Generators c_i*I with some rows replaced by sparse rows, c_i shared or
    not: supports overlap or not, a replaced row may be c*e_r again or reach
    columns of rows left alone, a diagonal entry may become zero, every row
    may be replaced, and the adjacent relations mostly fail.

    The block families, at u = -1 (eigenvalues +-i, ties of magnitude 1),
    u = 1 (an eigenvalue equal to c) or a generic u, twisted by y, with
    one generator sometimes doubled so that its c differs from its
    neighbours'."""
    domain = draw(st.sampled_from([Domain.RATIONAL, Domain.LAURENT]))
    strands = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    o = ops_for(domain)
    if draw(st.booleans()):
        family = draw(st.sampled_from([standard_rep, burau_rep]))
        rho = family(strands)
        if domain is Domain.RATIONAL:
            rho = specialize(rho, draw(st.sampled_from([-1, 1, 2, Fraction(23, 7)])))
        rho = character_twist(rho, draw(st.sampled_from([1, -1, 2, Fraction(1, 3)])))
        gens = list(rho.gens)
        if draw(st.booleans()):
            k = rng.randrange(len(gens))
            gens[k] = gens[k].scale(2)
        return Rep(strands, gens, check=False)
    n = draw(st.integers(1, 5))
    values = [1, -1, 2, Fraction(1, 2)]
    if domain is Domain.LAURENT:
        values += [T, 1 - T]
    shared = rng.choice([1, 2, Fraction(-1, 3)])
    gens = []
    for _ in range(strands - 1):
        c = o.coerce(shared if rng.random() < 0.6 else rng.choice([1, 2, Fraction(-1, 3)]))
        rows = [[c if r == k else o.zero for k in range(n)] for r in range(n)]
        for r in rng.sample(range(n), min(n, rng.choice([0, 1, 1, 2, n]))):
            rows[r] = [o.zero] * n
            for k in rng.sample(range(n), rng.randint(0, min(3, n))):
                rows[r][k] = o.coerce(rng.choice(values))
        gens.append(Mat.from_rows(rows, domain))
    return Rep(strands, gens, check=False)


def _dense_corank(rho: Rep) -> dict:
    """corank's report with every rank taken on the whole shifted matrix:
    the reference for the block ranks of corank."""
    def of_matrix(g: Mat):
        n = g.rows
        eye = Mat.identity(n, g.domain)
        ranks = {}

        def singular(f):
            ranks[f] = rank_exact(g - eye.scale(f))
            return ranks[f] < n

        table = []
        for c, _ in eigen_numeric(g):
            val = analysis._reconstruct_rational(c, singular)
            if val is not None:
                table.append((val, ranks[val], True))
            else:
                shifted = g.to_complex() - Mat.identity(n, Domain.COMPLEX).scale(c)
                table.append((c, rank_numeric(shifted), False))
        table.sort(key=lambda t: analysis._axis_key(complex(t[0])))
        best = min(table, key=lambda t: (t[1], abs(complex(t[0])), analysis._axis_key(complex(t[0]))))
        return best, tuple(table)

    g = rho.gen(1)
    if rho.domain is Domain.LAURENT:
        pts = analysis._sample_points()
        results = [of_matrix(g.eval_at(u)) for u in pts]
        if len({best[1] for best, _ in results}) != 1:
            return {"error": "GenericDisagreement"}
        (best, table), notes = results[0], analysis._generic_note(pts)
    else:
        (best, table), notes = of_matrix(g), ""
    return analysis.CorankReport(rho.degree, rho.domain, best[1], best[0], best[2],
                                 table, notes).to_json_dict()


def _report_or_error(f, *args) -> dict:
    try:
        return f(*args)
    except (GenericDisagreement, ClusterAmbiguous) as exc:
        return {"error": type(exc).__name__}


@settings(max_examples=300, deadline=None)
@given(split_reps())
def test_block_split_matches_dense_relations_and_corank(rho):
    assert check_braid_relations(rho).to_json_dict() == _dense_relations(rho, DEFAULT_TOL)
    got = _report_or_error(lambda r: analysis.corank(r).to_json_dict(), rho)
    assert got == _report_or_error(_dense_corank, rho)


def _bareiss_det(g: Mat):
    """The determinant by fraction-free elimination of the whole matrix:
    the reference for det on a split matrix."""
    o = ops_for(g.domain)
    if g.rows == 0:
        return o.one
    pivots, last, sign = _fraction_free(g._row_maps(), g.cols, o, False)
    if len(pivots) < g.rows:
        return o.zero
    return last if sign > 0 else -last


@settings(max_examples=200, deadline=None)
@given(split_reps())
def test_split_det_matches_bareiss(rho):
    for g in rho.gens:
        assert g.det() == _bareiss_det(g)
