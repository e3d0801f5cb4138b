"""The benchmark's generated configs still load.

``perfbench/workloads.py`` edits the shipped configs by a seed and hands
sddlab the result.  A schema or validation change that refuses those
configs would fail every benchmark run; this test fails first.  The
generator is loaded by path and only called.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sddlab.config import load_config

ROOT = Path(__file__).parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["certify-integral", "certify-constant", "simulate-wide"])
def test_a_generated_config_loads(workloads, tmp_path, name, seed):
    work = workloads.generate(name, seed, ROOT)
    path = tmp_path / f"{name}.ini"
    path.write_text(work.config_text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.grid.nx == work.nx
