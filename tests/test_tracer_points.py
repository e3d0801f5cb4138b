"""The benchmark tracer still finds every layer it times.

``perfbench/tracer.py`` wraps sddlab functions by module and name.  A
rename or a move in ``src/`` would leave a trace point with nothing to
wrap, and a ``--trace 1`` run would fail or read zeros; these tests catch
that without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sddlab.cli  # noqa: F401  (loads every module the trace points name)

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def resolve(point):
    target = importlib.import_module(point.module)
    for part in point.attr.split("."):
        target = getattr(target, part)
    return target


def test_every_point_resolves_to_a_callable(tracer):
    assert tracer.POINTS
    for point in tracer.POINTS:
        assert callable(resolve(point)), point


def test_install_wraps_every_point_and_uninstall_leaves_no_wrapper(tracer):
    originals = [resolve(point) for point in tracer.POINTS]
    t = tracer.Tracer()
    t.install()
    try:
        for point in tracer.POINTS:
            assert getattr(resolve(point), tracer.MARK, False), point
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    assert [resolve(point) for point in tracer.POINTS] == originals
