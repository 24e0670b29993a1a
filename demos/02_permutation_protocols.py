"""Commit-reveal permutation generation and what a rushing attacker can do.

Shows the two permutation protocols, the uniformity of their output under
passive play, and the single-abort shift attack that pins an honest player
to the least preferable rank.
"""

from collections import Counter

from shapsim import (
    Budget,
    CyclicShiftAdversary,
    PassiveAdversary,
    naive_perm,
    rand_elim,
    seq_perm,
    substream,
)

TRIALS = 20_000

# One-round protocol: everyone commits a permutation, the opened ones are
# composed.  With a passive adversary the output is uniform.
n = 3
adv = PassiveAdversary()
adv.reset(n=n, honest=n - 1, rng=substream(1, "adversary"))
rng = substream(1, "honest")
counts = Counter()
for _ in range(TRIALS):
    counts[naive_perm(range(n), n - 1, adv, rng).order] += 1
print(f"one-round protocol, n={n}, passive adversary over {TRIALS} samples:")
for order, c in sorted(counts.items()):
    print(f"  {order}: {c / TRIALS:.4f}  (uniform would be {1 / 6:.4f})")

# The same protocol against the cyclic-shift strategy: the committed shift
# powers let one abort move the honest player anywhere, so it lands on the
# least preferable rank every time.
n = 4
cyc = CyclicShiftAdversary(Budget.unlimited())
cyc.reset(n=n, honest=n - 1, rng=substream(2, "adversary"))
rng = substream(2, "honest")
ranks = Counter()
violations = Counter()
for _ in range(TRIALS):
    out = naive_perm(range(n), n - 1, cyc, rng)
    ranks[out.rank_of(n - 1)] += 1
    violations[out.violations_used] += 1
print(f"\nshift attack, n={n}: honest rank distribution {dict(ranks)}")
print(f"  violations per sample: {dict(violations)} (0 = shift already right)")

# Sequential generation eliminates one player per round into the least
# preferable open rank; the honest player's rank stays uniform under
# passive play and its elimination chance per round is at most 1/|pool|.
n = 5
adv = PassiveAdversary()
adv.reset(n=n, honest=0, rng=substream(3, "adversary"))
rng = substream(3, "honest")
ranks = Counter()
for _ in range(TRIALS):
    ranks[seq_perm(range(n), 0, adv, rng).rank_of(0)] += 1
print(f"\nsequential protocol, n={n}: honest rank frequencies "
      f"{ {r: round(c / TRIALS, 3) for r, c in sorted(ranks.items())} }")

adv.reset(n=4, honest=0, rng=substream(7, "adversary"))
rng = substream(7, "honest")
elim_trials = 5 * TRIALS
eliminated_honest = sum(
    rand_elim(range(4), 0, adv, rng)[0] == 0 for _ in range(elim_trials)
)
print(f"single elimination round, |pool|=4: honest eliminated "
      f"{eliminated_honest / elim_trials:.4f} of the time (bound 0.25)")
