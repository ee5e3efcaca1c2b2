"""Substrate registry: name → (device factory, capability descriptor).

The registry is the single seam between substrate-agnostic layers and
concrete backends: serving, the CLI and the benchmarks create devices
with :func:`create_substrate` and price workloads with
:func:`substrate_capabilities`, never importing a backend module
directly. Third-party backends register with
:func:`register_substrate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, ProgrammingError
from repro.hardware.pim_array import Substrate
from repro.substrate.protocol import SubstrateCapabilities


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered backend.

    ``factory(hardware, spare_units)`` builds a live device;
    ``capabilities(hardware)`` builds the planner-facing descriptor
    without touching a device.
    """

    name: str
    factory: Callable[..., Substrate]
    capabilities: Callable[..., SubstrateCapabilities]


_REGISTRY: dict[str, SubstrateSpec] = {}


def register_substrate(spec: SubstrateSpec, replace: bool = False) -> None:
    """Register a backend under its spec name.

    Raises :class:`ProgrammingError` on a duplicate name unless
    ``replace=True`` (tests swapping in instrumented backends).
    """
    if spec.name in _REGISTRY and not replace:
        raise ProgrammingError(
            f"substrate {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec


def available_substrates() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def _spec(name: str) -> SubstrateSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown substrate {name!r}; registered: "
            f"{', '.join(available_substrates())}"
        )
    return spec


def create_substrate(
    name: str, hardware=None, spare_units: int = 0
) -> Substrate:
    """Build a live device of the named backend."""
    return _spec(name).factory(hardware=hardware, spare_units=spare_units)


def substrate_capabilities(name: str, hardware=None) -> SubstrateCapabilities:
    """The capability descriptor of the named backend."""
    return _spec(name).capabilities(hardware)


def _register_builtins() -> None:
    from repro.substrate.crossbar import CrossbarCapabilities, build_crossbar
    from repro.substrate.hbm_pim import HBMPIMCapabilities, build_hbm_pim

    register_substrate(
        SubstrateSpec(
            name="crossbar",
            factory=build_crossbar,
            capabilities=CrossbarCapabilities,
        ),
        replace=True,
    )
    register_substrate(
        SubstrateSpec(
            name="hbm_pim",
            factory=build_hbm_pim,
            capabilities=HBMPIMCapabilities,
        ),
        replace=True,
    )


_register_builtins()
