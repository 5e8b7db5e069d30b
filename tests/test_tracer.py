"""The benchmark's outside-in tracer still finds every function it wraps.

perfbench/tracer.py wraps package functions by module and name, so
deleting or renaming one of them breaks the traced benchmark run.  The
tracer is imported by path because perfbench is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import cmwitness.cli  # noqa: F401  (the tracer wraps cli.cmd_regress/cmd_sweep)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracer = load_tracer()
    for modname, fname in tracer.SPAN_TARGETS:
        module = importlib.import_module("cmwitness." + modname)
        assert callable(getattr(module, fname, None)), (modname, fname)


def test_install_uninstall_round_trip():
    tracer_mod = load_tracer()
    modules = {
        name: importlib.import_module("cmwitness." + name)
        for name in {m for m, _ in tracer_mod.SPAN_TARGETS}
    }
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    # Take the classes from the modules as imported now: the benchmark
    # harness purges and re-imports cmwitness, and the tracer patches the
    # re-imported PolyFraction.
    PolyFraction = modules["linalg"].PolyFraction
    BaseRing = importlib.import_module("cmwitness.poly").BaseRing
    init = PolyFraction.__dict__["__init__"]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert modules["linalg"].bareiss_rank is not before["linalg"]["bareiss_rank"]
        ring = BaseRing(("X",))
        assert modules["linalg"].bareiss_rank([[ring.var("X")]]) == 1
        assert any(span[0] == "linalg.bareiss_rank" for span in tracer.spans)
        PolyFraction(ring.one())
        assert sum(tracer.counters.values()) >= 1
    finally:
        tracer.uninstall()

    for name, mod in modules.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, (name, attr)
    assert PolyFraction.__dict__["__init__"] is init
