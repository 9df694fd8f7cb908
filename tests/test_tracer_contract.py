"""The benchmark's tracer finds the calls it times by name.

``perfbench/workloads.py`` lists them in ``LAYERS`` as (module or class,
attribute) pairs and looks each one up with ``vars(owner)[attr]``, so a
rename or a deletion in groupgen breaks every traced benchmark pass.  Its
items also call groupgen with fixed argument shapes, so a removed or
renamed parameter breaks them too.  These checks catch both in the unit
suite.
"""

import functools
import importlib.util
import inspect
from pathlib import Path

from groupgen import builder, crowns, report, structure

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_looks():
    layers = _workloads().LAYERS
    assert layers
    for name, (owner, attr) in layers.items():
        assert attr in vars(owner), name


def test_frattini_flag_stays_a_cached_property():
    flag = vars(structure.ChiefFactor)["is_frattini"]
    assert isinstance(flag, functools.cached_property)


def test_every_workload_call_shape_binds():
    # (function, args, kwargs) as perfbench/workloads.py calls them
    shapes = [
        (report.compute_report, ("S4",), {"seed": 0, "cache": None}),
        (builder.build, ("S4",), {}),
        (crowns.factor_invariants, ("G",), {}),
        (crowns.eulerian, ("G", 2), {}),
        (crowns.aut_order, ("S",), {}),
        (crowns.GfpModule, ("G", 3, []), {}),
        (crowns.h1_dimension, ("G", "M"), {}),
        (crowns.crown_power, ("L", "A", 2), {}),
        (crowns.crown_generation_check, ("A", "A", 2, 19), {}),
        (structure.unique_minimal_normal, ("L",), {}),
    ]
    for fn, args, kwargs in shapes:
        inspect.signature(fn).bind(*args, **kwargs)
