"""Verdict benchmark for braidrep: goodput and wrong-verdict ratios.

Run from the root of a source checkout:

    python3 verdictbench/run.py --workload classify-hidden --seed 1 --seconds 25 --trace 0

Each operation is one in-process ``braidrep.cli.main(argv)`` call with stdout
captured, the path users run.  Every report is parsed strictly, validated
against src/braidrep/schema/report.schema.json, checked against the
construction behind its input and hashed; checking happens outside the
timed region.  Lines starting with "# " are for people; the last line is
one JSON object with the keys correct, attempted, failed and metrics;
"correct" is false when any operation failed.

--trace 0 repeats the workload's round until --seconds of operation time
have passed and reports the end-to-end metrics.  The host's speed drifts by
up to 1.5x within seconds, so every timing metric is scaled to a fixed host
speed: a reference kernel runs between operations and around each set-up
probe, and a time is multiplied by REF_NOMINAL_S over the reference's time
measured next to it.  The raw wall times are printed on the "# " lines.

--trace 1 runs the round once untraced, then again with spans and counters
installed, and reports the per-layer metrics, the tracing overhead and
whether the traced reports are byte-identical to the untraced ones.  On
classify-hidden it also replays the points where braidrep is known to give
a wrong verdict and prints what they return; those operations are not
scored.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread keeps timings steady on a small shared machine and keeps
# the thread count at or below nproc; it must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BRAIDREP_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "braidrep" / "schema" / "report.schema.json"
STATE = ROOT / ".verdictbench"
SETUP_PROBES = 3    # fresh processes timed for setup_s; the median is reported
WALL_CAP_S = 110.0  # stop the timed phase early if the code gets very slow
PROBE_TIMEOUT_S = 40.0
# The nominal host speed: the one at which reference() takes this long.  It
# is the kernel's median on the machine described in NOTES.md.
REF_NOMINAL_S = 0.005


def _fail(message: str) -> None:
    print("verdictbench: " + message, file=sys.stderr)
    sys.exit(2)


if not (SRC / "braidrep" / "__init__.py").is_file() or not SCHEMA.is_file():
    _fail("no braidrep sources under %s; run from the root of a checkout" % SRC)

sys.path.insert(0, str(SRC))

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402

import braidrep  # noqa: E402
from braidrep import analysis, classification, cli, laurent, matrix, reps  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if SRC not in Path(braidrep.__file__).resolve().parents:
    _fail("imported braidrep from %s, not from %s" % (braidrep.__file__, SRC))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when unknown."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _fingerprint() -> str:
    """sha256 over the package sources and this benchmark's code."""
    h = hashlib.sha256()
    files = sorted(p for base in (SRC / "braidrep", BENCH) for p in base.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts
                   and p.suffix in (".py", ".json"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(fingerprint: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads()
    if blas is not None and blas > nproc:
        _fail("BLAS uses %d threads on %d cores" % (blas, nproc))
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": fingerprint,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (config.get("name"), config.get("version")),
        "blas_threads": blas,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# host speed reference
# ---------------------------------------------------------------------------

def reference() -> float:
    """Seconds a fixed pure-Python kernel of Fraction and dict work takes.

    Interleaved with the operations it tracks the host's speed better than a
    numpy kernel does, on the numpy-heavy classify ops too.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, 1000):
        acc += Fraction(k, k + 1)
        table[k % 37] = table.get(k % 37, 0) + k * k
    return time.perf_counter() - start


def scale(seconds: float, ref: float) -> float:
    """seconds at the nominal host speed, given the reference time near them."""
    return seconds * REF_NOMINAL_S / ref


# ---------------------------------------------------------------------------
# running and checking operations
# ---------------------------------------------------------------------------


class Runner:
    """Runs operations, judges their reports and keeps the tallies."""

    def __init__(self, validator, hashes: dict, call=None):
        self.validator = validator
        self.hashes = hashes  # op id -> sha256 of the first report seen
        self.call_main = call or cli.main
        self.durations: list[float] = []  # wall seconds per operation
        self.refs: list[float] = []  # reference times, before and after each op
        self.failures: Counter = Counter()
        self.wrong = 0
        self.report_bytes = 0

    def call(self, op: workloads.Op) -> tuple:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.call_main(list(op.argv))
        except Exception as exc:  # an uncaught error fails the op, not the run
            code = "Uncaught." + type(exc).__name__
        return code, buf.getvalue(), time.perf_counter() - start

    def warm(self, op: workloads.Op) -> None:
        """Run op untimed; its bytes become the reference for later runs of it."""
        _, text, _ = self.call(op)
        self.hashes.setdefault(op.id, hashlib.sha256(text.encode()).hexdigest())

    def run(self, op: workloads.Op) -> float:
        code, text, seconds = self.call(op)
        if not self.refs:
            self.refs.append(reference())
        self.refs.append(reference())
        self.durations.append(seconds)
        self.report_bytes += len(text.encode())
        if isinstance(code, str):
            outcome = workloads.Outcome(code, False)
        else:
            outcome = workloads.check(op, code, text, self.validator)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.hashes.setdefault(op.id, digest) != digest and outcome.failure is None:
            outcome = workloads.Outcome("BytesChanged", False)
        if outcome.failure is not None:
            self.failures[outcome.failure] += 1
            self.wrong += outcome.wrong
        return seconds

    def scaled(self) -> list[float]:
        """Operation times at the nominal host speed.  Each is scaled by the
        median of the four reference times nearest to it, so one reading
        taken in a brief burst does not skew it."""
        return [scale(d, statistics.median(self.refs[max(0, i - 1):i + 3]))
                for i, d in enumerate(self.durations)]

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _hash_store(workload: str, seed: int, fingerprint: str) -> Path:
    return STATE / "hashes" / fingerprint[:16] / ("%s-seed%d.json" % (workload, seed))


def _load_hashes(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _save_hashes(path: Path, hashes: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".%d.tmp" % os.getpid())
    tmp.write_text(json.dumps(hashes, sort_keys=True, indent=0), encoding="utf-8")
    os.replace(tmp, path)


def _probe_setup(args) -> list[tuple]:
    """Time SETUP_PROBES fresh processes from spawn until their warm-up op is
    done: (wall seconds, seconds at the nominal host speed) for each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    samples = []
    before = reference()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            ready = time.perf_counter() - start
            line = proc.stdout.readline() if readable else ""
            if line.strip() != "ready":
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            _fail("setup probe failed (exit %s)" % proc.returncode)
        after = reference()
        samples.append((ready, scale(ready, (before + after) / 2.0)))
        before = after
    return samples


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _late() -> bool:
    return time.perf_counter() - _T0 > WALL_CAP_S


def timed_run(args, ops, runner) -> tuple:
    # Whole rounds only, until at least --seconds of operation time, so every
    # stratum keeps its share whatever the speed of the code.
    timed = 0.0
    rounds = 0
    while timed < args.seconds and not _late():
        for op in ops:
            timed += runner.run(op)
            if _late():
                break
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = _probe_setup(args)
    attempted, failed = runner.attempted, runner.failed
    good = attempted - failed
    scaled = runner.scaled()
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "verdicts_per_s": (good / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "pass_ratio": (good / attempted, "ratio"),
        "right_verdict_ratio": (1.0 - runner.wrong / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    d = sorted(runner.durations)
    notes = [
        "%d ops in %d rounds, %.3f s of operation time (%.3f s at nominal speed)"
        % (attempted, rounds, timed, sum(scaled)),
        "wall clock: %.4f right reports/s, op_s p50 %.4f max %.4f over %d samples"
        % (good / timed, statistics.median(d), d[-1], len(d)),
        "fail_ratio %.4f (%d/%d)  wrong_verdict_ratio %.4f (%d/%d)"
        % (failed / attempted, failed, attempted, runner.wrong / attempted,
           runner.wrong, attempted),
        "setup_s samples, wall %s, at nominal speed %s"
        % (json.dumps([round(w, 4) for w, _ in setup]),
           json.dumps([round(s, 4) for _, s in setup])),
    ]
    return metrics, notes, runner


def traced_run(args, ops, runner) -> tuple:
    untraced = sum(runner.run(op) for op in ops)
    tracer = tracing.Tracer()
    traced_runner = Runner(runner.validator, runner.hashes,
                           call=tracer.timed("cli.main", cli.main))
    tracing.install(tracer, cli, reps, analysis, classification, matrix, laurent)
    try:
        traced = 0.0
        for op in ops:
            tracer.op_id = op.id
            traced += traced_runner.run(op)
    finally:
        tracer.restore()
    tracer.counts["cli.report_bytes"] = traced_runner.report_bytes
    tracer.write(STATE / "trace" / ("%s-seed%d.jsonl" % (args.workload, args.seed)))
    # The overhead compares the two passes at the nominal host speed.
    before, after = sum(runner.scaled()), sum(traced_runner.scaled())
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (after - before, "s")
    metrics["trace.overhead_ratio"] = ((after - before) / before, "ratio")
    notes = [
        "%d ops traced: %.3f s untraced, %.3f s traced, wall clock overhead %.1f%%"
        % (len(ops), untraced, traced, 100.0 * (traced - untraced) / untraced),
        "at nominal speed: %.3f s untraced, %.3f s traced, overhead %.1f%%"
        % (before, after, 100.0 * (after - before) / before),
        "untraced failures %s" % json.dumps(dict(sorted(runner.failures.items()))),
        "%d spans written under %s" % (len(tracer.spans), STATE.relative_to(ROOT) / "trace"),
    ]
    if args.workload == "classify-hidden":
        notes += _defect_notes(args, runner)
    return metrics, notes, traced_runner


def _defect_notes(args, runner) -> list[str]:
    """Replay the known wrong-verdict points; report them, score nothing."""
    lines = []
    for op in workloads.defect_ops(args.seed, STATE / ("work-%d" % os.getpid())):
        code, text, seconds = runner.call(op)
        outcome = workloads.check(op, code, text, runner.validator)
        lines.append("known defect %s: %s in %.3f s (not scored)"
                     % (op.id, outcome.failure or "right verdict", seconds))
    return lines


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    validator = jsonschema.Draft202012Validator(
        json.loads(SCHEMA.read_text(encoding="utf-8")))
    workdir = STATE / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        fingerprint = _fingerprint()
        store = _hash_store(args.workload, args.seed, fingerprint)
        runner = Runner(validator, _load_hashes(store))
        runner.warm(ops[0])
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_here = time.perf_counter() - _T0
        env = environment(fingerprint)
        metrics, notes, judged = (traced_run if args.trace else timed_run)(args, ops, runner)
        _save_hashes(store, runner.hashes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# verdictbench %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("# env %s" % json.dumps(env, sort_keys=True))
    print("# setup in this process %.4f s (from interpreter start of run.py)" % setup_here)
    for line in notes:
        print("# " + line)
    print("# failures by name %s" % json.dumps(dict(sorted(judged.failures.items()))))
    for name, (value, unit) in metrics.items():
        print("# %-48s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": judged.failed == 0,
        "attempted": judged.attempted,
        "failed": judged.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
