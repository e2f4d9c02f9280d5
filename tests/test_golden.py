"""Byte-for-byte replay of recorded CLI reports.

Each case runs one CLI command in a subprocess and compares its exit code
and stdout with the report recorded in tests/golden/<name>.json.  The
subprocess runs BLAS and OpenMP with one thread: LAPACK's rounding depends
on the thread count, so an intertwiner's entries and condition number can
move in the last bits between one and two threads.  The two
hidden-basis inputs are twisted families conjugated by a random basis drawn
from a fixed numpy seed (hidden_n9.rep.json, hidden_n12.rep.json).  The
command set leaves out real u < 0 with real y and |u| near 3e-3, where
classify gave wrong verdicts when the goldens were recorded, so every golden
is a right report.  Four cases pin typed errors, whose envelope exits with
code 1: u = 1 is reducible over the complex numbers and over the rationals,
u = 1.0005 recovers a degenerate u, and an exact 4-strand input fails its
far relation.  A cap of three generations bounds the span closure only, so
Norton's test certifies irreducible_n7_37_9_cap3 with its six-generation
spins.  Norton's test over Q takes its eigenvalue lam of rho(s1) = c*I
beside a 2x2 block at two edges: irreducible_n3_1_4 has lam = c = 1 at the
one index the block leaves out, and irreducible_n6_9_4_y3_2 a rational
lam = 9/4 beside c = y = 3/2.  The two jordan_* cases divide the minimal
polynomial by x - lam over the Laurent ring (no --u) and over the complex
numbers.
That input, far_fails_n4.rep.json, is a fixed file: the unreduced Burau
images of B_3 at t = 5/3 for s1 and s2, and s2 s1 s2^-1 for s3.  Its
adjacent relations hold, so the reported residual is the far one.

Reports too large to keep as files are pinned by the sha256 of their
stdout instead (PINS): the 0.95 MB Laurent generator dump at n = 40, and
the relation and corank reports of both families at n = 40.

A deliberate report change is recorded again with

    PYTHONPATH=src python tests/test_golden.py

and named in CHANGES.md.  The recording run rewrites only the goldens whose
bytes changed, prints each one's field-level diff (JSON path: old -> new)
for CHANGES.md, and prints each pin's current sha256, to be copied into
PINS by hand.
"""

import cmath
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidrep

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(braidrep.__file__).resolve().parents[1]
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# name -> argv; "{golden}" stands for the golden directory
CASES = {
    "irreducible_n5_23_7": ["irreducible", "--family", "standard", "--n", "5", "--u", "23/7"],
    "irreducible_n6_neg5_3": ["irreducible", "--family", "standard", "--n", "6", "--u=-5/3"],
    "irreducible_n7_one": ["irreducible", "--family", "standard", "--n", "7", "--u", "1"],
    "irreducible_n7_37_9": ["irreducible", "--family", "standard", "--n", "7", "--u", "37/9"],
    "irreducible_n7_37_9_cap3": ["irreducible", "--family", "standard", "--n", "7",
                                 "--u", "37/9", "--max-generations", "3"],
    "irreducible_n5_laurent": ["irreducible", "--family", "standard", "--n", "5"],
    "irreducible_n6_complex": ["irreducible", "--family", "standard", "--n", "6",
                               "--u", "2.5+0.5j"],
    "irreducible_n3_1_4": ["irreducible", "--family", "standard", "--n", "3", "--u", "1/4"],
    "irreducible_n6_9_4_y3_2": ["irreducible", "--family", "standard", "--n", "6",
                                "--u", "9/4", "--y", "3/2"],
    "irreducible_burau_n4": ["irreducible", "--family", "burau", "--n", "4", "--u", "3"],
    "irreducible_burau_n6_neg7_2": ["irreducible", "--family", "burau", "--n", "6",
                                    "--u=-7/2"],
    "corank_n9": ["corank", "--family", "standard", "--n", "9", "--u", "4"],
    "jordan_readme": ["jordan", "--family", "standard", "--n", "9", "--u", "3", "--y", "2",
                      "--word", "s8", "--eigenvalue", "2",
                      "--invariant-under", "1,2,3,4,5,6,8"],
    "jordan_laurent_n8": ["jordan", "--family", "standard", "--n", "8", "--word", "s1 s2",
                          "--eigenvalue", "1", "--invariant-under", "4,5,6,7"],
    "jordan_complex_n6": ["jordan", "--family", "standard", "--n", "6", "--u=2.5+0.5j",
                          "--word", "s1 s2", "--eigenvalue=1", "--invariant-under", "4,5"],
    "theta_cycle_n9": ["theta-cycle", "--family", "standard", "--n", "9", "--u", "4"],
    "classify_family_n9": ["classify", "--family", "standard", "--n", "9",
                           "--u=2.5+0j", "--y=2+0j"],
    "audit_n9": ["audit", "--n", "9", "--trials", "6", "--seed", "7"],
    "classify_hidden_n9": ["classify", "--rep", "{golden}/hidden_n9.rep.json"],
    "classify_hidden_n12": ["classify", "--rep", "{golden}/hidden_n12.rep.json"],
    "classify_n9_u1_complex": ["classify", "--family", "standard", "--n", "9",
                               "--u", "1+0j", "--y", "2+0j"],
    "classify_n9_u1_exact": ["classify", "--family", "standard", "--n", "9", "--u", "1"],
    "classify_n9_23_7_exact": ["classify", "--family", "standard", "--n", "9",
                               "--u", "23/7", "--y", "2"],
    "classify_n9_near_one": ["classify", "--family", "standard", "--n", "9",
                             "--u=1.0005+0j", "--y", "1+0j"],
    "relations_far_fails_n4": ["relations", "--rep", "{golden}/far_fails_n4.rep.json"],
}

# name -> (argv, sha256 of stdout)
PINS = {
    "gen_standard_n40": (["gen", "--family", "standard", "--n", "40"],
                         "2ac0d9c000428a6a2c8388b6f36e174ff82677ec0fcc315305aa79f299d97bbe"),
    "relations_standard_n40": (["relations", "--family", "standard", "--n", "40"],
                               "6aaa6137f2ad85725f3b3ee2223f75a1ce8f34a4f4a6abc19d199bf946650e60"),
    "relations_burau_n40": (["relations", "--family", "burau", "--n", "40"],
                            "6aaa6137f2ad85725f3b3ee2223f75a1ce8f34a4f4a6abc19d199bf946650e60"),
    "corank_standard_n40": (["corank", "--family", "standard", "--n", "40"],
                            "cb307304695aa70fb0602dbe3a72a0a23b0b1960f200aaf753643fe1dd19ded1"),
    "corank_burau_n40": (["corank", "--family", "burau", "--n", "40"],
                         "bcd1036c803cbd110afc4743834637ff2909451479b3f6dff87e8a70aaae1261"),
}

# hidden-basis inputs: file stem -> (n, y, u, numpy seed), generic (y, u)
HIDDEN = {
    "hidden_n9": (9, cmath.rect(1.3, 0.7), 2.2 + 0.9j, 9),
    "hidden_n12": (12, cmath.rect(0.8, 2.1), -1.4 + 1.1j, 12),
}


def run(argv: list[str]) -> tuple[int, str]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "braidrep"] + argv, env=env,
                          capture_output=True, encoding="utf-8", timeout=600)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, out = run(CASES[name])
    golden = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert code == (0 if json.loads(golden)["ok"] else 1)
    assert out == golden


_ABSENT = object()


def field_diff(old, new, path: str = "$"):
    """(JSON path, old, new) for each leaf where two parsed reports differ;
    a key that one side lacks reads as absent there."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from field_diff(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                  "%s.%s" % (path, key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from field_diff(a, b, "%s[%d]" % (path, i))
    elif old != new:
        yield path, old, new


def _show(x) -> str:
    return "absent" if x is _ABSENT else json.dumps(x, sort_keys=True)


def test_field_diff_names_each_changed_leaf():
    old = {"a": {"b": 1, "c": [1, 2]}, "d": "x", "gone": None}
    new = {"a": {"b": 2, "c": [1, 3]}, "d": "x", "added": True}
    got = [(p, _show(a), _show(b)) for p, a, b in field_diff(old, new)]
    assert got == [("$.a.b", "1", "2"), ("$.a.c[1]", "2", "3"),
                   ("$.added", "absent", "true"), ("$.gone", "null", "absent")]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_report(name):
    argv, digest = PINS[name]
    code, out = run(argv)
    assert code == 0
    assert sha256(out) == digest


if __name__ == "__main__":
    from test_classify import hidden_model

    GOLDEN.mkdir(exist_ok=True)
    for stem, (n, y, u, seed) in HIDDEN.items():
        rep = hidden_model(n, y, u, seed).to_json_dict()
        (GOLDEN / (stem + ".rep.json")).write_text(
            json.dumps(rep, sort_keys=True) + "\n", encoding="utf-8")
    for name in sorted(CASES):
        code, out = run(CASES[name])
        if code != (0 if json.loads(out)["ok"] else 1):
            raise SystemExit("%s exited %d" % (name, code))
        path = GOLDEN / (name + ".json")
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if out == old:
            continue
        path.write_text(out, encoding="utf-8")
        print("recorded", name)
        if old is not None:
            for where, a, b in field_diff(json.loads(old), json.loads(out)):
                print("  %s: %s -> %s" % (where, _show(a), _show(b)))
    for name, (argv, _) in sorted(PINS.items()):
        print("pin", name, sha256(run(argv)[1]))
