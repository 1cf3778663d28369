"""Energy-neutral wildlife tracker simulator.

A trace-driven model of a GPS collar powered by a supercapacitor charged
from solar and kinetic harvesters: closed-form capacitor dynamics, an
energy-aware task scheduler with GPS start-mode selection and power
hysteresis, harvest-trace generators, an exact energy ledger, and a CLI
for runs and parameter sweeps.

Every name below is imported from its module on first use (PEP 562), so
`import captrack` loads no submodule and no numpy. The trace generators
(`harvest`) do not depend on the device model (`energy_model`) or on the
engine, so a command that only writes traces loads neither.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "capacitor": ("equivalent_resistance", "integrate_segment", "time_to_voltage"),
    "configfile": ("GeneratorSpec", "SweepSpec", "load_config", "load_sweep_spec"),
    "device": ("payload_bytes", "select_gps_mode"),
    "energy_model": (
        "ACTIVITIES", "LEAKAGE_BY_CAPACITANCE", "TASKS", "ActivitySpec", "CapacitorSpec", "SystemConfig",
        "TaskSpec", "VoltageThresholds", "compose_task_current", "safe_voltage_threshold", "task_energy",
        "validate_config",
    ),
    "engine": (
        "EVENT_KINDS", "EnergyLedger", "EventLog", "FixRecord", "SimMetrics", "SimResult",
        "compute_metrics", "export_timeseries", "fix_record", "run_simulation",
    ),
    "errors": ("ConfigError",),
    "harvest": (
        "ActivityProfile", "HarvestTrace", "IrradianceTrace", "SolarChain", "SolarProfile", "TraceError",
        "combine_sources", "generate_kinetic_trace", "generate_synthetic_irradiance", "load_harvest_csv",
        "load_irradiance_csv", "save_harvest_csv", "save_irradiance_csv", "solar_current_from_irradiance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
