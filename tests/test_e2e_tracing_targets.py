"""Tier-1 guard for the end-to-end benchmark's per-layer timers.

``benchmarks/e2e/tracing.py`` times a layer by replacing the entry point
its owner defines itself (``vars(owner)[attr]``), for every entry of its
``LAYERS`` table.  A target the owner only inherits — say, after a base
class is folded into its subclass — breaks just ``run.py --traced``,
which no other test runs.  The script is stdlib-only and not part of
the installed package, so it is loaded here by file path.
"""

import importlib
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_is_defined_by_its_owner(tracing):
    missing = []
    for name, module_name, class_name, attr in tracing.LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        if attr not in vars(owner):
            missing.append(f"{name}: {module_name}.{class_name}.{attr}")
    assert missing == []

