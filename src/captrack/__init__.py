"""Energy-neutral wildlife tracker simulator.

A trace-driven model of a GPS collar powered by a supercapacitor charged
from solar and kinetic harvesters: closed-form capacitor dynamics, an
energy-aware task scheduler with GPS start-mode selection and power
hysteresis, harvest-trace generators, an exact energy ledger, and a CLI
for runs and parameter sweeps.
"""

import importlib

from .configfile import GeneratorSpec, SweepSpec, load_config, load_sweep_spec
from .energy_model import (
    ACTIVITIES,
    LEAKAGE_BY_CAPACITANCE,
    TASKS,
    ActivitySpec,
    CapacitorSpec,
    ConfigError,
    SystemConfig,
    TaskSpec,
    VoltageThresholds,
    compose_task_current,
    safe_voltage_threshold,
    task_energy,
    validate_config,
)
from .harvest import (
    ActivityProfile,
    HarvestTrace,
    IrradianceTrace,
    SolarChain,
    SolarProfile,
    TraceError,
    combine_sources,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    load_harvest_csv,
    load_irradiance_csv,
    save_harvest_csv,
    save_irradiance_csv,
    solar_current_from_irradiance,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityProfile", "ActivitySpec", "CapacitorSpec", "ConfigError",
    "EnergyLedger", "EventLog", "FixRecord", "GeneratorSpec",
    "HarvestTrace", "IrradianceTrace", "SimMetrics",
    "SimResult", "SolarChain", "SolarProfile", "SweepSpec", "SystemConfig", "TaskSpec",
    "TraceError", "VoltageThresholds",
    "ACTIVITIES", "EVENT_KINDS", "LEAKAGE_BY_CAPACITANCE", "TASKS",
    "combine_sources", "compose_task_current", "compute_metrics",
    "equivalent_resistance", "export_timeseries", "fix_record", "generate_kinetic_trace",
    "generate_synthetic_irradiance", "integrate_segment", "load_config",
    "load_harvest_csv", "load_irradiance_csv", "load_sweep_spec",
    "payload_bytes", "run_simulation",
    "safe_voltage_threshold", "save_harvest_csv", "save_irradiance_csv", "select_gps_mode",
    "solar_current_from_irradiance", "task_energy",
    "time_to_voltage", "validate_config",
]

# Names of the simulation modules, imported on first access (PEP 562), so that
# commands that only write traces never load the engine.
_LAZY = {
    "capacitor": ("equivalent_resistance", "integrate_segment", "time_to_voltage"),
    "device": ("payload_bytes", "select_gps_mode"),
    "engine": (
        "EVENT_KINDS", "EnergyLedger", "EventLog", "FixRecord", "SimMetrics", "SimResult",
        "compute_metrics", "export_timeseries", "fix_record", "run_simulation",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULE})
