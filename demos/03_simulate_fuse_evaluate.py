"""Full pipeline on a synthetic run: simulate, fuse, evaluate.

Scenario: a car approaches at 0.7 m/s, accelerates gently for 2.5 s,
brakes hard and comes to a stop about 0.6 m short of the crossing line.
The range unit sees everything (5 % noise); the two cameras only detect
the car within 2.5 m and measure distance through the apparent width of
its bounding box, so they drop out early in the run.

The three fusion architectures answer the same question differently:
average the distances first, average the danger scores, or vote on the
per-sensor decisions.

Run:  python demos/03_simulate_fuse_evaluate.py
"""

import numpy as np

from crossrisk import (
    TRACKER,
    Decision,
    ScenarioConfig,
    evaluate_run,
    fuse_all,
    sensor_set_from_streams,
    simulate_recording,
)
from crossrisk.fusion import DANGER_FUSION, DISTANCE_FUSION, VOTING_FUSION
from crossrisk.io import reports_to_table

DECISIONS = list(Decision)  # a trace's decision codes: 0 Safe, 1 Dangerous, 2 Unknown

scenario = ScenarioConfig(
    duration=6.0,
    initial_distance=4.0,
    initial_speed=0.7,
    segments=((2.5, 0.2), (2.0, -0.6), (1.5, 0.0)),
    seed=20240517,
)
# what `crossrisk simulate` writes, ingested as `crossrisk ingest` reads it
sensors = sensor_set_from_streams(simulate_recording(scenario))
grid = sensors.grid
print(f"simulated {scenario.duration} s -> {grid.count} grid points at {grid.rate_hz:g} Hz")

print()
print("=== per-sensor availability (camera dropout at long range) ===")
# one row per sensor of the sensors x time frame, the tracker's last
present = np.count_nonzero(~np.isnan(sensors.distance), axis=1)
for sensor_id, count in zip(sensors.ids, present):
    print(f"  {sensor_id:13s} {count:4d}/{grid.count} points with a distance")

print()
print("=== ground-truth decisions over the run (the motion tracker) ===")
trace = fuse_all(sensors)
# one row per source of the sources x time frames: the sensors, then the three fusions
row = {source: i for i, source in enumerate(trace.sources)}
truth, vote = trace.codes[row[TRACKER]], trace.codes[row[VOTING_FUSION]]
for i in [0, *np.flatnonzero(np.diff(truth)) + 1]:
    t = grid.times()[i]
    print(f"  t = {t:5.2f} s -> {DECISIONS[truth[i]].value}")
print("  (danger rises while the car closes in, then falls to zero once it stops;")
print("   the first instant is Unknown, as speed and acceleration need earlier readings,")
print("   and the stop shows a few hundredths of a second late: the tracker's speed is a")
print("   backward difference of its 30 Hz samples, not the car's exact speed)")

print()
print("=== fusion traces ===")
times = grid.times()
for t_probe in (1.0, 2.5, 3.5, 5.5):
    i = int(np.argmin(np.abs(times - t_probe)))
    fused_d = trace.distance_fused.values[i]
    g_dist = trace.scores[row[DISTANCE_FUSION], i]
    g_avg = trace.scores[row[DANGER_FUSION], i]
    print(
        f"  t = {times[i]:4.2f} s: {trace.available_count[i]} sensors, "
        f"fused d = {fused_d:5.2f} m, g(distance fusion) = {g_dist:6.3f}, "
        f"g(danger fusion) = {g_avg:6.3f}, vote = {DECISIONS[vote[i]].value}"
    )

print()
print("=== evaluation against the motion tracker ===")
reports = evaluate_run(trace)
print(reports_to_table(reports))
print("(voting fusion returns a binary stream, so it has no RMSE;")
print(" a source that never overlaps the truth would show as 'insufficient')")

n_unknown = np.count_nonzero(vote == DECISIONS.index(Decision.UNKNOWN))
print(f"voting fusion abstained entirely on {n_unknown} grid points (no sensor voting)")
