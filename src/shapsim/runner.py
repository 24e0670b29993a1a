"""The allocation loop: repeated P-samples, stopping rules, punishment
policies, and reward bookkeeping.

Each P-sample yields a permutation; every player banks the marginal
contribution of joining its predecessors, and the run returns the average
allocation vector.  Since the per-sample contributions telescope to the
grand-coalition value, the averaged vector is always an allocation.

Per-sample honest rewards are decomposed as ``X = Y - Z``: ``X`` is the
realized reward, ``Z`` charges each detected violation in the sample at the
honest player's maximum marginal contribution (the worst damage one
violation can cause), and ``Y = X + Z``.  Total charged damage therefore
never exceeds ``violations * u_max``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .adversaries import Adversary
from .csvio import format_number, render_csv
from .games import Game, shapley_exact
from .protocols import PSampleOutcome, naive_perm, seq_perm
from .streams import substream

PROTOCOLS = {"naive": naive_perm, "seq": seq_perm}
PUNISHMENTS = ("count_only", "perpetual")


class SampleCapExceeded(RuntimeError):
    """The stopping rule was not satisfied within its sample cap."""


def _check_accuracy(eps: float, delta: float, gamma: float) -> None:
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError(f"eps and delta must lie strictly between 0 and 1, "
                         f"got eps={eps!r}, delta={delta!r}")
    # each phi_i averages marginal contributions of at most u_max_i
    if not 1 <= gamma < math.inf:
        raise ValueError(f"gamma (u_max/phi) must be finite and at least 1, got {gamma!r}")


@dataclass(frozen=True)
class StoppingRule:
    """When the allocation loop terminates.

    ``fixed(R)`` stops after exactly ``R`` P-samples.

    ``known_budget(eps, delta, C, gamma)`` resolves, at construction, to the
    fixed count ``max(ceil(8*gamma/eps^2 * ln(1/delta)), ceil(2*C*gamma/eps))``.

    ``unknown_budget(eps, delta, gamma, cap=None)`` stops at the first
    sample count ``R >= R0`` whose observed violating-sample fraction is at
    most ``eps / (2*gamma)``, with
    ``R0 = ceil(8*gamma/eps^2 * (ln(16*gamma/eps^2) + ln(1/delta)))``.

    A run gives up at ``cap`` samples: ``R`` for the two count rules, which
    are always satisfied there, and ``10 * R0`` by default for the unknown
    one.  Both real-valued formula results and the integers used are kept.
    """

    kind: str
    eps: float = math.nan
    delta: float = math.nan
    C: int = 0
    gamma: float = math.nan
    R: int = 0
    cap: int = 0
    formula_values: tuple[float, ...] = ()

    @classmethod
    def fixed(cls, R: int) -> "StoppingRule":
        if R < 1:
            raise ValueError("need R >= 1")
        return cls(kind="fixed", R=R, cap=R)

    @classmethod
    def known_budget(cls, eps: float, delta: float, C: int, gamma: float) -> "StoppingRule":
        _check_accuracy(eps, delta, gamma)
        a = 8.0 * gamma / eps**2 * math.log(1.0 / delta)
        b = 2.0 * C * gamma / eps
        R = max(math.ceil(a), math.ceil(b))
        return cls(kind="known_budget", eps=eps, delta=delta, C=C, gamma=gamma, R=R, cap=R,
                   formula_values=(a, b))

    @classmethod
    def unknown_budget(cls, eps: float, delta: float, gamma: float,
                       cap: int | None = None) -> "StoppingRule":
        _check_accuracy(eps, delta, gamma)
        if cap is not None and cap < 1:
            raise ValueError(f"need cap >= 1, got {cap!r}")
        r0 = 8.0 * gamma / eps**2 * (math.log(16.0 * gamma / eps**2) + math.log(1.0 / delta))
        R = math.ceil(r0)
        return cls(kind="unknown_budget", eps=eps, delta=delta, gamma=gamma, R=R,
                   cap=10 * R if cap is None else cap, formula_values=(r0,))

    @property
    def planned_R(self) -> int | None:
        return self.R if self.kind in ("fixed", "known_budget") else None

    def satisfied(self, samples: int, violating_samples: int) -> bool:
        if self.kind in ("fixed", "known_budget"):
            return samples >= self.R
        return samples >= self.R and violating_samples <= self.eps / (2.0 * self.gamma) * samples


@dataclass
class RunRecord:
    """Everything observable from one completed allocation run."""

    x: np.ndarray
    epsilon_hat: float
    per_sample: list  # (Y, Z, dev frozenset) per P-sample for the honest player
    samples_used: int
    violations: int
    seed: int
    honest: int

    @property
    def x_honest(self) -> float:
        return float(self.x[self.honest])

    def to_csv(self) -> str:
        # render_csv's rows; the text after "j," is made once per run for each (Y, Z, dev
        # count), keyed by the floats' bits so that 0.0 and -0.0 differ, or per non-float row
        memo, rows = {}, []
        for j, (y, z, dev) in enumerate(self.per_sample, start=1):
            key = struct.pack("ddn", y, z, len(dev)) if type(y) is type(z) is float else j
            if (text := memo.get(key)) is None:
                text = memo[key] = f"{format_number(y)},{format_number(z)},{len(dev)}\n"
            rows.append(f"{j},{text}")
        trailer = [str(self.samples_used), str(self.violations), format_number(self.x_honest),
                   format_number(self.epsilon_hat), str(self.seed)]
        return (render_csv(["j", "Y", "Z", "dev"], ()) + "".join(rows)
                + "# trailer: R,V,x_honest,eps_hat,seed\n" + ",".join(trailer) + "\n")


def _check_runnable(game: Game, honest: int, punish: str, protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; pick one of {sorted(PROTOCOLS)}")
    if punish not in PUNISHMENTS:
        raise ValueError(f"unknown punishment policy {punish!r}; pick one of {PUNISHMENTS}")
    if not 0 <= honest < game.n:
        raise ValueError("honest player out of range")
    if game.declared_monotone is False:
        raise ValueError("allocation runs need a non-negative monotone game")


@dataclass(slots=True)
class _Bank:
    """Running totals of one allocation run."""

    z: list[float]  # every player's summed marginal contributions
    per_sample: list = field(default_factory=list)
    samples: int = 0
    violations: int = 0
    violating_samples: int = 0


def _p_samples(game: Game, protocol: str, adversary: Adversary, *, honest: int, seed: int,
               stream_labels: tuple, planned_samples: int | None, punish: str):
    """The one reward-accounting loop shared by every stopping rule.

    Yields the run's totals before each P-sample; the caller stops the run
    by leaving the loop.  Every P-sample banks each player's marginal
    contribution of joining its predecessors and the honest player's
    ``(Y, Z, dev)``.
    """
    _check_runnable(game, honest, punish, protocol)
    sample_fn = PROTOCOLS[protocol]
    honest_rng = substream(seed, *stream_labels, "honest")
    adversary.reset(n=game.n, honest=honest, rng=substream(seed, *stream_labels, "adversary"),
                    game=game, planned_samples=planned_samples)
    u_max_star = float(shapley_exact(game).u_max[honest])
    v = game.utility
    v_empty = v(0)
    bank = _Bank(z=[0.0] * game.n)
    z = bank.z
    bank_sample = bank.per_sample.append
    players = tuple(range(game.n))
    pinned: list[int] = []

    while True:
        yield bank
        active = [p for p in players if p not in pinned] if pinned else players
        adversary.begin_sample(bank.samples)
        outcome: PSampleOutcome = sample_fn(active, honest, adversary, honest_rng)
        order = tuple(pinned) + outcome.order if pinned else outcome.order
        mask = 0
        prev = v_empty
        x_honest_j = 0.0
        for p in order:
            mask |= 1 << p
            cur = v(mask)
            gain = cur - prev
            z[p] += gain
            if p == honest:
                x_honest_j = gain
            prev = cur
        dev = outcome.dev
        used = len(dev)  # one violation per detected player
        zj = used * u_max_star
        bank_sample((x_honest_j + zj, zj, dev))
        if used:
            bank.violations += used
            bank.violating_samples += 1
            if punish == "perpetual":
                pinned.extend(p for p in outcome.order if p in dev)
        bank.samples += 1


def run_allocation(
    game: Game,
    protocol: str,
    adversary: Adversary,
    stopping: StoppingRule,
    *,
    honest: int,
    seed: int,
    punish: str = "count_only",
    stream_labels: tuple = (),
) -> RunRecord:
    """Loop P-samples until the stopping rule fires; return the allocation.

    Under ``count_only`` punishment, detected violators only feed the
    violation counters.  Under ``perpetual``, once detected they are pinned
    to the least preferable ranks of every later P-sample (in detection
    order), which makes the remaining players effectively play the game with
    the violators always counted as predecessors.

    Reaching the rule's ``cap`` unsatisfied (possible only for the
    violating-fraction rule, against high-rate adversaries) raises
    :class:`SampleCapExceeded` with a diagnostic.  The record's
    ``epsilon_hat`` is the rule's ``eps`` (NaN for a fixed count).
    """
    R, cap = stopping.R, stopping.cap  # no rule is satisfied before its R samples
    for bank in _p_samples(game, protocol, adversary, honest=honest, seed=seed,
                           stream_labels=stream_labels, planned_samples=stopping.planned_R,
                           punish=punish):
        if bank.samples >= R and stopping.satisfied(bank.samples, bank.violating_samples):
            break
        if bank.samples >= cap:
            raise SampleCapExceeded(
                f"stopping rule {stopping.kind!r} unsatisfied after {bank.samples} P-samples "
                f"({bank.violating_samples} violating); the adversary's violation rate may "
                f"exceed eps/(2*gamma)"
            )

    return RunRecord(x=np.array(bank.z) / bank.samples, epsilon_hat=stopping.eps,
                     per_sample=bank.per_sample, samples_used=bank.samples,
                     violations=bank.violations, seed=seed, honest=honest)


def run_adaptive(
    game: Game,
    adversary: Adversary,
    eps: float,
    delta: float,
    gamma: float,
    *,
    honest: int,
    seed: int,
    protocol: str = "naive",
    stream_labels: tuple = (),
) -> RunRecord:
    """Adaptive allocation with halving error levels.

    Runs P-samples while the current level ``eps_k = 2**-k`` exceeds the
    target.  Whenever the sample count reaches
    ``8*gamma/eps_{k+1}^2 * ln(2^(k+1)/delta)``, the observed violation
    fraction is compared against ``eps_{k+1}/(2*gamma)``: exceeding it ends
    the run immediately, otherwise the current average is snapshotted and
    the level halves.  Returns the last snapshot and its level; against an
    adversary with violation rate ``f`` the reported level never exceeds
    ``max(eps, 4*f*gamma)``.
    """
    _check_accuracy(eps, delta, gamma)
    x = np.zeros(game.n)
    k = 0
    for bank in _p_samples(game, protocol, adversary, honest=honest, seed=seed,
                           stream_labels=stream_labels, planned_samples=None,
                           punish="count_only"):
        R = bank.samples
        if R:
            eps_next = 2.0 ** -(k + 1)
            if R >= 8.0 * gamma / eps_next**2 * math.log(2.0 ** (k + 1) / delta):
                if bank.violations / R > eps_next / (2.0 * gamma):
                    break
                x = np.array(bank.z) / R
                k += 1
        if 2.0 ** -k <= eps:
            break

    return RunRecord(x=x, epsilon_hat=2.0 ** -k, per_sample=bank.per_sample,
                     samples_used=bank.samples, violations=bank.violations, seed=seed,
                     honest=honest)


def run_many(
    game: Game,
    protocol: str,
    adversary_factory: Callable[[], Adversary],
    stopping: StoppingRule,
    runs: Iterable[int],
    *,
    honest: int,
    seed: int,
    punish: str = "count_only",
) -> np.ndarray:
    """The honest allocation of each run index in ``runs``.

    Run ``m`` owns a fresh adversary from ``adversary_factory`` and the
    substreams labeled ``("run", m)``, so its result does not depend on
    which other runs share the call or on their order.
    """
    return np.array([
        run_allocation(game, protocol, adversary_factory(), stopping, honest=honest,
                       seed=seed, punish=punish, stream_labels=("run", m)).x_honest
        for m in runs
    ], dtype=np.float64)
