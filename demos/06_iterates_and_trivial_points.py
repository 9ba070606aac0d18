"""Iterate composition and trivial marked points.

The m-fold composed run (with the chained branch datum) subsamples the base
orbit: positions at step n match the base run at step m*n. A strictly
preperiodic marked point stabilizes at its chosen preimage after one step
and never perturbs the other coordinates.
"""

import math

from pullbacklab import (BranchDatum, RationalMap, TrivialMarkedSpec,
                         compose_iterate_run, init_run)

g = RationalMap([-2, 0, 1])
datum = BranchDatum(0.0, math.sqrt(2))

base = init_run(g, [datum])
for _ in range(12):
    base.pullback_step()
comp = compose_iterate_run(g, 2, datum)
for _ in range(6):
    comp.pullback_step()


def mat(run, n):
    track = run.marked[0]
    mode, v = track.history[n]
    return v if mode == "free" else track.anchor.chart.materialize(v)


print("composed m=2 run vs base run at even steps:")
for j in range(1, 7):
    print("   step %d: composed %-22s base %s"
          % (j, format(mat(comp, j), ".12g"), format(mat(base, 2 * j), ".12g")))

print("\ntrivial marked point (image -2, preimage 0, start 0.5):")
run = init_run(g, [BranchDatum(0.0, -math.sqrt(2))],
               trivial=[TrivialMarkedSpec(-2.0, 0.0, start=0.5)])
for _ in range(5):
    run.pullback_step()
positions = [v for _, v in run.trivial[0].history]
print("   positions:", positions)
print("   constant from step 1:", all(v == 0j for v in positions[1:]))
