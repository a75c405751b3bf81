"""Sweep the avoided-shutdown count over threshold and burst-length axes.

Each cell answers: if spikes longer than the burst length that cross the
given fraction of rack max could be absorbed by storage, how many
accelerators would escape a protective shutdown?  The count is sized by
the worst instantaneous excess, in whole 700 W units.
"""

import sys

from powershave import DEFAULT_SYNTH_CONFIG, sweep_gpus_saved, synthesize_trace, write_grid_csv

trace = synthesize_trace(DEFAULT_SYNTH_CONFIG)
grid = sweep_gpus_saved(trace)

print("GPUs saved from shutdown (rows: threshold fraction; cols: burst length s)")
header = "".join(f"{b:>6.2f}" for b in grid.burst_lengths_s)
print(f"{'':>5}{header}")
for frac, row in zip(grid.threshold_fracs, grid.values):
    cells = "".join(f"{int(v):>6}" for v in row)
    print(f"{frac:>4.0%} {cells}")

print()
print("the grid is nonincreasing along both axes: tightening the threshold")
print("or requiring longer bursts can only shrink the qualifying spike set")

print()
print("CSV form (paste into a spreadsheet):")
write_grid_csv(grid, sys.stdout)
