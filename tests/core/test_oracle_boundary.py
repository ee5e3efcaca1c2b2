"""The loop oracles stay in ``repro.oracle``, out of production classes.

No production constructor or factory takes a ``reference`` or
``simulate_cells`` switch, no capability descriptor advertises a cell
mode, no production module reads ``self.reference``, and nothing in the
library imports :mod:`repro.oracle`: the property suites and perf
benches build the oracle classes directly.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.hardware.controller import PIMController
from repro.hardware.crossbar import Crossbar
from repro.hardware.pim_array import PIMArray
from repro.serving import ShardManager
from repro.substrate import (
    SubstrateCapabilities,
    available_substrates,
    create_substrate,
    substrate_capabilities,
)
from repro.substrate.crossbar import build_crossbar
from repro.substrate.hbm_pim import HBMPIMArray, build_hbm_pim

SRC = Path(repro.__file__).parent


@pytest.mark.parametrize(
    "target",
    [
        PIMArray,
        Crossbar.dot_product,
        PIMController,
        create_substrate,
        build_crossbar,
        build_hbm_pim,
        HBMPIMArray,
        ShardManager,
    ],
    ids=lambda t: t.__qualname__,
)
def test_no_reference_parameter(target):
    assert "reference" not in inspect.signature(target).parameters


def test_hbm_pim_array_has_no_simulate_cells_alias():
    assert "simulate_cells" not in inspect.signature(HBMPIMArray).parameters


@pytest.mark.parametrize(
    "target",
    [PIMArray, PIMController, create_substrate, build_crossbar, build_hbm_pim],
    ids=lambda t: t.__qualname__,
)
def test_no_simulate_cells_parameter(target):
    assert "simulate_cells" not in inspect.signature(target).parameters


def test_no_capability_advertises_a_cell_mode():
    assert not hasattr(SubstrateCapabilities, "supports_cell_simulation")
    for name in available_substrates():
        caps = substrate_capabilities(name)
        assert not hasattr(caps, "supports_cell_simulation")
        assert "supports_cell_simulation" not in caps.describe()


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_production_module_reads_self_reference():
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "reference"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    assert hits == []


def test_only_the_oracle_module_knows_the_oracles():
    hits = []
    for path, tree in _modules():
        if path == SRC / "oracle.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [
                    f"{base}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(n == "repro.oracle" for n in names):
                hits.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert hits == []
