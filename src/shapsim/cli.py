"""Command-line drivers: exact values, simulations, and sampling experiments.

Subcommands: ``shapley``, ``simulate``, ``min-samples``, ``cdf``,
``dp-table``.  Every run is configured by a flat ``key = value`` text file
plus command-line overrides (flags win), and all randomness flows from one
64-bit master seed.  Output is CSV with a ``# schema-version: 1`` comment and
12-significant-digit numbers; identical configuration and seed produce
byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 compute-cap abort.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .adversaries import (Adversary, BlockAttackAdversary, Budget,
                          CyclicShiftAdversary, EagerAbortAdversary, PassiveAdversary)
from .builtin_games import (make_collab_game, make_lb_game, make_max_gamma_game,
                            make_pair_game, make_synergy_game)
from .csvio import format_number, render_csv, write_text
from . import dp
from .dp import DPAdversary, DPTable, StateCapExceeded, dp_build, parallel_runs, state_count
from .games import Game, shapley_exact
from .hypergraph import HypergraphFormatError, load_hypergraph
from .runner import SampleCapExceeded, StoppingRule, run_adaptive, run_allocation, run_many

OUTPUT_DIR_ENV = "SHAPSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3


class ConfigError(ValueError):
    pass


# Work ceilings for runs without --full-scale.  Published-scale experiments
# (hundreds of players, 8e5 samples, 1000 repetitions) far exceed these and
# take hours on one core; see the README for expectations.
DESK_SAMPLE_BUDGET = 20_000_000   # P-samples times repetitions
DESK_SCAN_BUDGET = 100_000        # boundary rows in a table scan
DESK_STATE_BUDGET = 5_000_000     # adversary-table slice entries


def _gate_full_scale(cfg: "ExperimentConfig", units: int, budget: int, what: str) -> None:
    if units > budget and not cfg._bool("full_scale"):
        raise ConfigError(
            f"{what} needs ~{units} work units (desk budget {budget}); "
            "pass --full-scale to run it anyway"
        )


# Every config key, with its default and the options of its flag ``--key``
# ("-" for "_").  A subcommand registers only the flags it reads (see
# build_parser), so argparse rejects any other with exit code 2.
_KEYS = {
    "game": (None, {"choices": ["pair", "max-gamma", "lb", "collab"]}),
    "n": (None, {"type": int}),
    "i_star": ("0", {"type": int}),
    "j_star": ("1", {"type": int}),
    "hypergraph": (None, {}),
    "honest": (None, {"type": int}),
    "padding": ("0", {"type": int}),
    "protocol": ("seq", {"choices": ["naive", "seq"]}),
    "adversary": ("passive", {"choices": ["passive", "cyclic", "eager", "block", "dp"]}),
    "budget_kind": ("known", {"choices": ["known", "unknown", "rate"]}),
    "budget": ("0", {"type": float}),
    "eps": (None, {"type": float}),
    "delta": (None, {"type": float}),
    "gamma": (None, {"type": float}),
    "stopping": (None, {"choices": ["fixed", "known", "unknown", "adaptive"]}),
    "R": (None, {"type": int}),
    "M": ("1", {"type": int}),
    "punish": ("count_only", {"choices": ["count_only", "perpetual"]}),
    "seed": ("0", {"type": int}),
    "block_len": (None, {"type": int}),
    "block_greedy": ("false", {"action": "store_const", "const": "true"}),
    "sweep": (None, {"help": "param=v1,v2,... with param in n, C, eps"}),
    "r_max": (None, {"type": int}),
    "max_samples": (None, {"type": int}),
    "jobs": ("1", {"type": int}),
    "full_scale": ("false", {"action": "store_const", "const": "true"}),
    "out": (None, {"help": "output CSV path ('-' for stdout)"}),
}
_DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


@dataclass
class ExperimentConfig:
    """Validated settings for one driver invocation."""

    raw: dict[str, str]

    def _get(self, key: str) -> str | None:
        return self.raw.get(key, _DEFAULTS[key])

    def _int(self, key: str) -> int | None:
        value = self._get(key)
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"field {key}: expected integer, got {value!r}") from None

    def _float(self, key: str) -> float | None:
        value = self._get(key)
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"field {key}: expected number, got {value!r}") from None

    def _bool(self, key: str) -> bool:
        value = str(self._get(key)).lower()
        if value not in _BOOLS:
            raise ConfigError(f"field {key}: expected boolean, got {value!r}")
        return _BOOLS[value]

    # Game -----------------------------------------------------------------
    def build_game(self) -> tuple[Game, int]:
        named = self._get("game")
        hg_path = self._get("hypergraph")
        if (named is None) == (hg_path is None):
            raise ConfigError("exactly one game spec: either 'game' or 'hypergraph'")
        padding = self._int("padding") or 0
        if hg_path is not None:
            try:
                h = load_hypergraph(hg_path)
            except (OSError, HypergraphFormatError) as exc:
                raise ConfigError(f"field hypergraph: {exc}") from exc
            honest = self._int("honest")
            if honest is None:
                raise ConfigError("hypergraph games need an explicit 'honest' player")
            core = h.n
            classes = tuple((p,) for p in range(core))
            if padding:
                h = h.padded(core + padding)
                classes = classes + (tuple(range(core, core + padding)),)
            game = make_synergy_game(h, symmetry_classes=classes)
            return game, honest
        n = self._int("n")
        if named == "pair":
            if n is None:
                raise ConfigError("game 'pair' needs n")
            game = make_pair_game(n, self._int("i_star"), self._int("j_star"))
        elif named == "max-gamma":
            if n is None:
                raise ConfigError("game 'max-gamma' needs n")
            game = make_max_gamma_game(n)
        elif named == "lb":
            if n is None:
                raise ConfigError("game 'lb' needs n")
            game = make_lb_game(n)
        elif named == "collab":
            game = make_collab_game(n if n is not None else 14)
        else:
            raise ConfigError(f"unknown game {named!r}")
        honest = self._int("honest")
        if honest is None:
            honest = game.extras.get("i_star", 0)
        if not 0 <= honest < game.n:
            raise ConfigError(f"honest player {honest} out of range for n={game.n}")
        return game, honest

    def gamma_for(self, game: Game, honest: int) -> float:
        override = self._float("gamma")
        if override is not None:
            return override
        if game.protocol_gamma is not None:
            return game.protocol_gamma
        return float(shapley_exact(game).gamma)

    # Run pieces -----------------------------------------------------------
    def budget(self) -> Budget:
        kind = self._get("budget_kind")
        value = self._float("budget") or 0.0
        if kind == "known":
            return Budget.known(int(value))
        if kind == "unknown":
            return Budget.unknown(int(value))
        if kind == "rate":
            return Budget.rate(value)
        raise ConfigError(f"unknown budget_kind {kind!r}")

    def adversary_factory(self, game: Game, honest: int,
                          planned_R: int | None) -> Callable[[], Adversary]:
        """A maker of fresh adversaries, one per run; a DP table is built here, once."""
        kind = self._get("adversary")
        budget = self.budget  # called per adversary: each run spends its own budget
        if kind == "passive":
            return PassiveAdversary
        if kind == "cyclic":
            return lambda: CyclicShiftAdversary(budget())
        if kind == "eager":
            return lambda: EagerAbortAdversary(budget())
        if kind == "block":
            block_len = self._int("block_len")
            if block_len is None:
                eps = self._float("eps")
                if eps is None:
                    raise ConfigError("block adversary needs block_len or eps")
                block_len = max(1, math.ceil(game.n / (10.0 * eps)))
            greedy = self._bool("block_greedy")
            return lambda: BlockAttackAdversary(budget(), block_len, greedy=greedy)
        if kind == "dp":
            if planned_R is None:
                raise ConfigError("dp adversary needs a predetermined sample count")
            table = self.dp_table(game, honest, planned_R)
            return lambda: DPAdversary(table, budget())
        raise ConfigError(f"unknown adversary {kind!r}")

    def dp_table(self, game: Game, honest: int, R: int) -> DPTable:
        """The optimal adversary's table for ``R`` samples and the configured budget.

        Inner slices are kept when all ``R`` fit in ``dp.SLICE_STORE_BYTES``;
        otherwise each is rebuilt from its boundary row when a run reaches it.
        """
        if self._get("budget_kind") == "rate":
            raise ConfigError("the dp adversary needs a violation count (budget_kind "
                              "known or unknown), not a rate")
        C = int(self._float("budget") or 0)
        slice_entries = state_count(game, honest) * (C + 1)
        _gate_full_scale(self, slice_entries, DESK_STATE_BUDGET, "the adversary table")
        store = R * slice_entries * 8 <= dp.SLICE_STORE_BYTES
        return dp_build(game, honest, R, C, store_slices=store)

    def stopping(self, game: Game, honest: int) -> StoppingRule:
        kind = self._get("stopping")
        R = self._int("R")
        if kind in (None, "fixed"):
            if R is None:
                raise ConfigError("fixed stopping needs R")
            return StoppingRule.fixed(R)
        eps, delta = self._float("eps"), self._float("delta")
        if eps is None or delta is None:
            raise ConfigError(f"stopping {kind!r} needs eps and delta")
        g = self.gamma_for(game, honest)
        if kind == "known":
            C = int(self._float("budget") or 0)
            return StoppingRule.known_budget(eps, delta, C, g)
        if kind == "unknown":
            return StoppingRule.unknown_budget(eps, delta, g)
        raise ConfigError(f"unknown stopping rule {kind!r}")

    @property
    def seed(self) -> int:
        return self._int("seed") or 0

    @property
    def M(self) -> int:
        return self._int("M") or 1

    @property
    def jobs(self) -> int:
        return max(1, self._int("jobs") or 1)

    def out_path(self, default_name: str) -> str | None:
        out = self._get("out")
        if out == "-":
            return None
        base = os.environ.get(OUTPUT_DIR_ENV)
        if out is None:
            return str(Path(base) / default_name) if base else None
        p = Path(out)
        if base and not p.is_absolute():
            p = Path(base) / p
        return str(p)


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return ExperimentConfig(raw=values)


def cmd_shapley(cfg: ExperimentConfig) -> int:
    game, honest = cfg.build_game()
    report = shapley_exact(game)
    rows = [(p, report.phi[p], report.u_max[p], report.gamma_per_player[p])
            for p in range(game.n)]
    comments = [f"game = {game.name}", f"honest = {honest}",
                f"gamma = {format_number(report.gamma)}"]
    if game.protocol_gamma is not None:
        comments.append(f"protocol_gamma = {format_number(game.protocol_gamma)}")
    text = render_csv(["player", "phi", "u_max", "gamma_i"], rows, comments=comments)
    write_text(cfg.out_path("shapley.csv"), text)
    return EXIT_OK


def cmd_dp_table(cfg: ExperimentConfig) -> int:
    game, honest = cfg.build_game()
    R = cfg._int("R")
    if R is None:
        raise ConfigError("dp-table needs R")
    C = int(cfg._float("budget") or 0)
    _gate_full_scale(cfg, R, DESK_SCAN_BUDGET, "this table build")
    table = dp_build(game, honest, R, C)
    rows = [(T, c, row[c]) for T, row in enumerate(table.rows) for c in range(C + 1)]
    text = render_csv(["T", "c", "E_worst"], rows,
                      comments=[f"game = {game.name}", f"honest = {honest}", f"C = {C}"])
    write_text(cfg.out_path("dp_table.csv"), text)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    game, honest = cfg.build_game()
    if cfg._get("stopping") == "adaptive":
        eps, delta = cfg._float("eps"), cfg._float("delta")
        if eps is None or delta is None:
            raise ConfigError("adaptive stopping needs eps and delta")
        if cfg._get("punish") != "count_only":
            raise ConfigError("adaptive stopping supports only count_only punishment")
        if cfg._get("max_samples") is not None:
            raise ConfigError("adaptive stopping takes no max_samples cap")
        adversary = cfg.adversary_factory(game, honest, None)()
        record = run_adaptive(game, adversary, eps, delta, cfg.gamma_for(game, honest),
                              honest=honest, seed=cfg.seed, protocol=cfg._get("protocol"))
    else:
        stopping = cfg.stopping(game, honest)
        _gate_full_scale(cfg, stopping.R, DESK_SAMPLE_BUDGET, "this simulation")
        adversary = cfg.adversary_factory(game, honest, stopping.planned_R)()
        record = run_allocation(game, cfg._get("protocol"), adversary, stopping,
                                honest=honest, seed=cfg.seed,
                                punish=cfg._get("punish"),
                                hard_cap=cfg._int("max_samples"))
    write_text(cfg.out_path("simulate.csv"), record.to_csv())
    return EXIT_OK


def min_samples_scan(game: Game, honest: int, C: int, eps: float, *,
                     r_max: int, verify_margin: float = 0.1) -> tuple[int, "object"]:
    """Smallest sample count whose worst-case mean reward is within ``eps``.

    Extends the boundary pass one sample at a time and returns the first
    ``R`` with ``value[R-1][N][C] / R >= (1 - eps) * phi``; then keeps
    scanning ``verify_margin`` further to confirm the criterion stays
    satisfied.  Exhausting ``r_max`` without crossing raises
    :class:`SampleCapExceeded` carrying the scanned ratios.
    """
    phi = float(shapley_exact(game).phi[honest])
    threshold = (1.0 - eps) * phi
    table = dp_build(game, honest, 1, C)
    crossover = None
    for R in range(1, r_max + 1):
        table.extend_to(R)
        if table.rows[R - 1][C] / R >= threshold:
            crossover = R
            break
    if crossover is None:
        ratios = [(R, table.rows[R - 1][C] / R) for R in range(1, r_max + 1)]
        exc = SampleCapExceeded(
            f"no crossover within r_max={r_max}: best ratio "
            f"{max(r for _, r in ratios):.6g} vs threshold {threshold:.6g}"
        )
        exc.scanned = ratios
        raise exc
    verify_to = min(r_max, math.ceil(crossover * (1.0 + verify_margin)))
    table.extend_to(max(verify_to, crossover))
    for R in range(crossover, verify_to + 1):
        if table.rows[R - 1][C] / R < threshold:
            raise AssertionError(
                f"worst-case ratio dipped back below threshold at R={R}; "
                "crossover is not stable"
            )
    return crossover, table


def cmd_min_samples(cfg: ExperimentConfig) -> int:
    C = int(cfg._float("budget") or 0)
    sweep = cfg._get("sweep")
    points: list[tuple[str, float]] = [("-", math.nan)]
    if sweep is not None:
        try:
            param, values = sweep.split("=", 1)
            param = param.strip()
            points = [(param, float(v)) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"bad sweep spec {sweep!r}; expected 'param=v1,v2,...'") from None
        if param not in ("n", "C", "eps"):
            raise ConfigError(f"sweep parameter must be n, C, or eps, not {param!r}")
    eps = cfg._float("eps")
    if eps is None:
        if points[0][0] == "eps":
            eps = points[0][1]  # swept values supply it
        else:
            raise ConfigError("min-samples needs eps")
    if points[0][0] == "n":
        cfg = ExperimentConfig(raw={**cfg.raw, "n": str(int(points[0][1]))})
    game, honest = cfg.build_game()

    rows = []
    for param, value in points:
        g, h, c_run, eps_run = game, honest, C, eps
        if param == "n":
            sub = ExperimentConfig(raw={**cfg.raw, "n": str(int(value))})
            g, h = sub.build_game()
        elif param == "C":
            c_run = int(value)
        elif param == "eps":
            eps_run = value
        report = shapley_exact(g)
        gamma_h = report.u_max[h] / report.phi[h] if report.phi[h] > 0 else 1.0
        default_r_max = math.ceil(2.0 * gamma_h * max(c_run, 1) / eps_run) + 8
        r_max = cfg._int("r_max") or default_r_max
        _gate_full_scale(cfg, r_max, DESK_SCAN_BUDGET, f"the scan at {param}={value}")
        min_r, _ = min_samples_scan(g, h, c_run, eps_run, r_max=r_max)
        rows.append((param, value if param != "-" else "", min_r))

    text = render_csv(["parameter", "value", "min_R"], rows,
                      comments=[f"game = {game.name}", f"honest = {honest}",
                                f"eps = {format_number(eps)}", f"C = {C}"])
    write_text(cfg.out_path("min_samples.csv"), text)
    return EXIT_OK


def _cdf_runs(cfg_raw: dict[str, str], runs) -> np.ndarray:
    """Honest allocations of the given run indices; also the ``--jobs`` worker."""
    cfg = ExperimentConfig(raw=cfg_raw)
    game, honest = cfg.build_game()
    stopping = cfg.stopping(game, honest)
    return run_many(game, cfg._get("protocol"),
                    cfg.adversary_factory(game, honest, stopping.planned_R), stopping, runs,
                    honest=honest, seed=cfg.seed, punish=cfg._get("punish"))


def cmd_cdf(cfg: ExperimentConfig) -> int:
    game, honest = cfg.build_game()
    eps, delta = cfg._float("eps"), cfg._float("delta")
    M = cfg.M
    stopping = cfg.stopping(game, honest)
    _gate_full_scale(cfg, stopping.R * M, DESK_SAMPLE_BUDGET, "this experiment")
    phi = float(shapley_exact(game).phi[honest])
    adversary_kind = cfg._get("adversary")

    fast = (adversary_kind in ("passive", "dp") and cfg._get("protocol") == "seq"
            and cfg._get("punish") == "count_only" and stopping.planned_R is not None)
    if fast:
        R = stopping.planned_R
        table = cfg.dp_table(game, honest, R) if adversary_kind == "dp" else None
        C = table.C if table is not None else 0
        stats = parallel_runs(game, honest, R, C, M, cfg.seed,
                              table=table, adversary=adversary_kind)
        x = stats.x_honest
    elif cfg.jobs > 1:
        chunks = np.array_split(np.arange(M), cfg.jobs)
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            x = np.concatenate(list(pool.map(_cdf_runs, [cfg.raw] * len(chunks), chunks)))
    else:
        x = _cdf_runs(cfg.raw, range(M))

    eps_hat = np.maximum(0.0, 1.0 - x / phi)
    order = np.sort(eps_hat)
    rows = [(format_number(order[i]), format_number((i + 1) / M)) for i in range(M)]
    comments = [f"game = {game.name}", f"honest = {honest}", f"M = {M}",
                f"R = {stopping.R}", f"phi = {format_number(phi)}"]
    if eps is not None and delta is not None:
        fraction_within = float(np.mean(eps_hat <= eps))
        right = fraction_within >= 1.0 - delta
        comments.append(f"theory_point = {format_number(eps)},{format_number(1.0 - delta)}")
        comments.append(f"theory_point_right_of_curve = {'true' if right else 'false'}")
    text = render_csv(["eps_hat", "cum_fraction"], rows, comments=comments)
    write_text(cfg.out_path("cdf.csv"), text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapsim",
        description="Secure distributed Shapley-allocation protocol experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = ("out", "game", "n", "i_star", "j_star", "hypergraph", "honest", "padding")
    run = ("seed", "gamma", "protocol", "adversary", "budget_kind", "budget", "eps", "delta",
           "stopping", "R", "punish", "block_len", "block_greedy", "full_scale")
    for name, fn, keys in [
        ("shapley", cmd_shapley, common),
        ("simulate", cmd_simulate, common + run + ("max_samples",)),
        ("min-samples", cmd_min_samples,
         common + ("eps", "budget", "full_scale", "sweep", "r_max")),
        ("cdf", cmd_cdf, common + run + ("M", "jobs")),
        ("dp-table", cmd_dp_table, common + ("R", "budget", "full_scale")),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_KEYS[key][1])
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except (SampleCapExceeded, StateCapExceeded) as exc:
        print(f"compute cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # ConfigError and library-level validation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
