"""The benchmark's tracer patches names in every braidrep module.

verdictbench/tracing.py wraps the calls each module makes into the next
layer, and raises when a name it patches is gone.  Installing it here makes
a refactor that drops or renames one of those names fail the tests, not
only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from braidrep import analysis, classification, cli, laurent, matrix, reps

TRACING = Path(__file__).resolve().parents[1] / "verdictbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("verdictbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_module_and_restores():
    tracing = _load_tracing()
    before = {(owner, name): getattr(owner, name)
              for owner, name in ((cli, "burnside_dimension"),
                                  (classification, "burnside_dimension"),
                                  (cli, "classify"), (matrix.Mat, "__matmul__"))}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, cli, reps, analysis, classification, matrix, laurent)
        assert all(getattr(owner, name) is not fn for (owner, name), fn in before.items())
    finally:
        tracer.restore()
    assert all(getattr(owner, name) is fn for (owner, name), fn in before.items())
