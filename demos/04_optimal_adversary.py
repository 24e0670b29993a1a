"""The budget-optimal adversary, computed by dynamic programming.

Builds the worst-case value table for sequential elimination, plays the
induced strategy in the protocol simulation, and replays it in the lockstep
engine from a table that keeps one boundary row and one sparse
abort-decision record per remaining-sample count.
"""

import numpy as np

from shapsim import (
    Budget,
    DPAdversary,
    StoppingRule,
    dp_build,
    make_lb_game,
    make_pair_game,
    parallel_runs,
    run_allocation,
)

# Three players, two of whom share the reward: one P-sample, budget 2.
game = make_pair_game(3)
table = dp_build(game, 0, R=1, C=2)
print("pair game, n=3, single sample:")
print(f"  worst-case honest value with budget 0: {table.rows[0, 0]:.6f}")
print(f"  with budget >= 1: {table.rows[0, 1]:.6f}  (drops 1 -> 2/3)")

# Monte Carlo with the strategy wired into the real protocol.
vals = []
t = dp_build(game, 0, R=1, C=2, decisions=True)
for m in range(2000):
    adv = DPAdversary(t, Budget.known(2))
    rec = run_allocation(game, "seq", adv, StoppingRule.fixed(1), honest=0,
                         seed=9, stream_labels=("run", m))
    vals.append(rec.x_honest)
print(f"  protocol simulation mean over 2000 runs: {np.mean(vals):.4f}")

# Longer horizon on the core-half game: the zero-budget column is exactly
# the Shapley value per sample, and budget damage is bounded linearly.
game = make_lb_game(8)
R, C = 40, 3
table = dp_build(game, 0, R, C)
print(f"\ncore-half game n=8, R={R}, C={C}:")
print(f"  boundary row at T={R - 1}: {np.round(table.rows[-1], 3)}")
print(f"  zero-budget column is (T+1)*phi; full-budget per-sample value "
      f"{table.worst_value() / R:.4f}")

# The table keeps R*(C+1) reals and one abort-decision record per sample
# index; the lockstep engine plays all repetitions together from the records.
lean = dp_build(game, 0, R, C, decisions=True)
stats = parallel_runs(game, 0, R, C, M=400, seed=10, table=lean)
print(f"\ntwo-pass replay, M=400: mean {stats.mean:.4f} +- {stats.stderr:.4f} "
      f"(table value {lean.worst_value() / R:.4f})")
distinct = len({id(record) for record in lean.decisions})
print(f"  stored table shape: {lean.rows.shape}  (plus {distinct} distinct abort records)")

# Fast path for big repetition counts.
stats = parallel_runs(game, 0, R, C, M=5000, seed=11,
                      table=dp_build(game, 0, R, C, decisions=True))
print(f"  lockstep engine, M=5000: mean {stats.mean:.4f} +- {stats.stderr:.4f}")
