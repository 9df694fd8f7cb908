"""The benchmark's tracer finds the calls it times by name.

``perfbench/workloads.py`` lists them in ``LAYERS`` as (module or class,
attribute) pairs and looks each one up with ``vars(owner)[attr]``, so a
rename or a deletion in groupgen breaks every traced benchmark pass.  These
checks catch that in the unit suite.
"""

import functools
import importlib.util
from pathlib import Path

from groupgen import structure

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
