"""KL-optimal opposition control of a noisy linear plant.

The plant is a scalar AR(1) process with a delayed, noisy sensor. The
controller applies A = -beta * S and is tuned by the three-step search:
ascend sensor information, descend the KL distance between the achieved
target distribution and its moment-matched auxiliary, tighten the
relaxation. The demo reports loop classification, sensor-channel
capacity, observability, and the variance before and after control.
"""

from infodyn.control import (
    ControllerParams,
    ControlTarget,
    bootstrap_mi_floor,
    channel_capacity,
    classify_loop,
    observability,
    optimize_controller,
    rollout,
)
from infodyn.discretization import PartitionSpec, discretize, estimate_joint_pmf
from infodyn.pmf import marginalize
from infodyn.systems import LinearPlant

plant = LinearPlant(a=0.9, noise_std=0.5, sensor_noise_std=0.1, max_delay=4.0)
target = ControlTarget(mu=[0.0], sigma=[[0.25]])
init = ControllerParams(theta_s=[0.0], theta_aa=[0.1],
                        bounds_s=[[0.0, 4.0]], bounds_aa=[[0.0, 1.0]])

print("searching controller parameters...")
best, trace = optimize_controller(plant, target, init)
print(f"sensing delay theta_s = {best.theta_s[0]:.3f}, gain beta = {best.theta_aa[0]:.3f}")
for r in trace.records:
    print(f"  outer {r['iteration']}: KL = {r['value']:.6f}  relax = {r['relax'][0]:.3f}"
          f"  {'accepted' if r['accepted'] else 'rejected'}")

uncontrolled = rollout(plant, ControllerParams(), 8000, 1000, seed=0)
controlled = rollout(plant, best, 8000, 1000, seed=0)
print(f"\nvariance of J: uncontrolled {uncontrolled.column('J').var():.3f}"
      f" -> controlled {controlled.column('J').var():.3f} (target {target.sigma[0, 0]})")

# loop diagnosis: pair the state with the sensing and actuation that react
# to it one step later
sym = discretize(controlled, PartitionSpec(bins_per_variable=8))
joint = estimate_joint_pmf(sym, [(0, 0), (1, 1), (2, 1)])
floor = bootstrap_mi_floor(sym.codes[:, :2], sym.alphabet[:2], seed=1)
report = classify_loop(joint, threshold=3 * floor)
print(f"\nloop classification: {report.label}"
      f" (I(A;J) = {report.mi_actuator_state:.3f} bits, threshold {report.threshold:.4f})")
print(f"observability I(J;S)/H(J) = {observability(marginalize(joint, [0, 1])):.3f}")

# capacity of the empirical sensor -> actuation channel
js = marginalize(joint, [1, 2]).to_dense()
channel = js / js.sum(axis=1, keepdims=True)
print(f"sensor-to-actuator channel capacity: {channel_capacity(channel):.3f} bits")
