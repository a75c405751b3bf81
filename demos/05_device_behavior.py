"""Step the storage devices directly to see their response dynamics.

Passive devices follow a first-order lag toward the requested output and
recharge opportunistically.  The battery adds a mode state machine with a
switching dead time and a round-trip efficiency on stored energy.
"""

import math

from powershave import builtin_device_spec, device_step, init_state

# 1. Passive lag: a supercap asked for a 2 kW step from rest.
spec = builtin_device_spec("supercap")
state = init_state(spec)
dt = 0.001
request = 2000.0
print(f"supercap step response (tau = {spec.response_tau_s * 1e3:.0f} ms)")
print(f"  {'t ms':>6} {'delivered W':>12} {'analytic W':>11}")
for k in range(1, 13):
    delivered, _, state = device_step(spec, state, request, 0.0, dt)
    if k % 2 == 1:
        analytic = request * (1.0 - math.exp(-k * dt / spec.response_tau_s))
        print(f"  {k * dt * 1e3:>6.1f} {delivered:>12.1f} {analytic:>11.1f}")

# 2. Battery mode machine: discharge, then an offer to charge.
spec = builtin_device_spec("battery")
state = init_state(spec)
dt = 0.005
print()
print(f"battery mode transitions (switch latency = {spec.switch_latency_s * 1e3:.0f} ms)")
sequence = [(5000.0, 0.0)] * 3 + [(0.0, 8000.0)] * 4 + [(5000.0, 0.0)] * 3
for k, (req, offer) in enumerate(sequence):
    delivered, absorbed, state = device_step(spec, state, req, offer, dt)
    print(f"  step {k}: request {req:>6.0f} offer {offer:>6.0f} -> "
          f"delivered {delivered:>6.0f} absorbed {absorbed:>6.0f}  [{state.mode}]")
print("  note the dead steps on each direction change: while the switch")
print("  latency elapses the battery is silent (inverter commutation)")
print("  the battery starts full, so when charging it can only re-absorb")
print(f"  what it just discharged, and only {spec.round_trip_efficiency:.0%} "
      f"of absorbed energy is stored (round-trip efficiency)")
