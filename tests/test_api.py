import importlib
import pkgutil
import sys
import types
from dataclasses import fields
from pathlib import Path

import galaxyid

MODULES = [importlib.import_module(f"galaxyid.{m.name}")
           for m in pkgutil.iter_modules(galaxyid.__path__)]


def test_every_all_name_exists():
    for module in (m for m in MODULES if hasattr(m, "__all__")):  # cli has none
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"


def test_package_reexports_are_in_their_modules_all():
    exported = {name: obj for name, obj in vars(galaxyid).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported
    for name, obj in exported.items():
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"galaxyid.{name} is not in {module.__name__}.__all__"
        assert getattr(module, name) is obj


def test_per_node_builder_is_retired():
    # build_code grows every galaxy a level at a time; the recursive
    # per-node builder lives on only as the tests' reference.
    galaxy = importlib.import_module("galaxyid.galaxy")
    for owner in (galaxy, galaxyid):
        assert not hasattr(owner, "build_galaxy")
    assert "build_galaxy" not in galaxy.__all__


def test_node_code_wrapper_is_retired():
    # A node's code is greedy_tail(greedy_prefix(...)): an array of directions.
    spherical = importlib.import_module("galaxyid.spherical")
    for name in ("generate", "SphericalCode"):
        for owner in (spherical, galaxyid):
            assert not hasattr(owner, name)
        assert name not in spherical.__all__
    galaxy = importlib.import_module("galaxyid.galaxy")
    assert not hasattr(galaxy.GalaxyCode, "__len__")


def test_parents_table_is_retired():
    # A node's parent follows from the counts; only the tests' reference derives it.
    galaxy = importlib.import_module("galaxyid.galaxy")
    assert "parents" not in {f.name for f in fields(galaxy.GalaxyCode)}
    assert not hasattr(galaxy.GalaxyCode, "parents")


# Trace targets of benchmarks/layers.py that name retired code: the harness
# warns about them and reports their metrics as absent.
STALE_TRACE_TARGETS = [
    "galaxy.build_galaxy", "galaxy.flatten_codewords", "spherical.generate",
    "experiments.cdist", "experiments.decide", "experiments.meet_depth",
]


def test_benchmark_trace_targets_exist():
    # A rename in src that the harness's trace list still names would zero
    # a live per-layer metric (codefile.serialize_s, galaxy.build_code_s, ...)
    # without failing the benchmark; only the known stale names may be missing.
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    before = set(sys.modules)
    sys.path.insert(0, bench)
    try:
        layers = importlib.import_module("layers")
        tracer = layers.Tracer()
        try:
            layers.install(tracer)
        finally:
            tracer.restore()
    finally:
        sys.path.remove(bench)
        for name in ("layers", "run"):
            if name not in before:
                sys.modules.pop(name, None)
    assert tracer.missing == STALE_TRACE_TARGETS
