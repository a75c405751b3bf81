"""Rack power-draw analysis and peak-shaving simulation.

The package models an AI-accelerator rack as a power trace, detects the
short spikes such workloads ride on top of their base draw, and
simulates how storage devices of different speeds and capacities keep
the grid feed flat: what gets curtailed, what burns off as dummy load,
and how many accelerators a given device spares from shutdown.
"""

from .trace import (
    CorruptTraceError,
    DEFAULT_SYNTH_CONFIG,
    PowerTrace,
    SynthConfig,
    TraceFormatError,
    load_synth_config,
    load_trace,
    resample,
    synthesize_trace,
    write_synth_config,
    write_trace,
)
from .spikes import (
    DEFAULT_ENERGY_BIN_EDGES,
    Spike,
    SpikeStats,
    ThresholdSpec,
    detect_spikes,
    spike_statistics,
    stats_to_dict,
    threshold_sweep,
    write_spikes_csv,
    write_stats_json,
)
from .devices import (
    BUILTIN_DEVICE_NAMES,
    DeviceSpec,
    DeviceState,
    builtin_device_spec,
    capacitor_energy,
    device_step,
    init_state,
    load_device_spec,
    write_device_spec,
)
from .shaving import (
    ShavingResult,
    SimConfig,
    computational_gain,
    derate_factor,
    gpus_saved,
    load_sim_config,
    result_summary_dict,
    simulate_shaving,
    thermal_step,
    useful_compute_j,
    write_result_csv,
    write_result_summary_json,
    write_sim_config,
)
from .sweep import (
    ComparisonRow,
    DEFAULT_BURST_LENGTHS_S,
    DEFAULT_THRESHOLD_FRACS,
    SweepGrid,
    compare_strategies,
    load_grid_csv,
    load_grid_json,
    sweep_gpus_saved,
    write_comparison_csv,
    write_grid_csv,
    write_grid_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CorruptTraceError", "DEFAULT_SYNTH_CONFIG", "PowerTrace", "SynthConfig",
    "TraceFormatError", "load_synth_config", "load_trace", "resample",
    "synthesize_trace", "write_synth_config", "write_trace",
    "DEFAULT_ENERGY_BIN_EDGES", "Spike", "SpikeStats", "ThresholdSpec",
    "detect_spikes", "spike_statistics", "stats_to_dict", "threshold_sweep",
    "write_spikes_csv", "write_stats_json",
    "BUILTIN_DEVICE_NAMES", "DeviceSpec", "DeviceState", "builtin_device_spec",
    "capacitor_energy", "device_step", "init_state", "load_device_spec",
    "write_device_spec",
    "ShavingResult", "SimConfig", "computational_gain", "derate_factor",
    "gpus_saved", "load_sim_config", "result_summary_dict", "simulate_shaving",
    "thermal_step", "useful_compute_j", "write_result_csv",
    "write_result_summary_json", "write_sim_config",
    "ComparisonRow", "DEFAULT_BURST_LENGTHS_S", "DEFAULT_THRESHOLD_FRACS",
    "SweepGrid", "compare_strategies", "load_grid_csv", "load_grid_json",
    "sweep_gpus_saved", "write_comparison_csv", "write_grid_csv",
    "write_grid_json",
]
