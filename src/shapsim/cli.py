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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .adversaries import (Adversary, BlockAttackAdversary, Budget,
                          CyclicShiftAdversary, EagerAbortAdversary, PassiveAdversary)
from .builtin_games import (make_collab_game, make_lb_game, make_max_gamma_game,
                            make_pair_game, make_synergy_game)
from .csvio import format_number, render_csv, write_text
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
    if units > budget and not cfg["full_scale"]:
        raise ConfigError(
            f"{what} needs ~{units} work units (desk budget {budget}); "
            "pass --full-scale to run it anyway"
        )


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"expected a number strictly between 0 and 1, got {text!r}")
    return value


def _ratio(text: str) -> float:
    value = float(text)
    if not 1 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 1, got {text!r}")
    return value


def _count(value: float, field: str = "budget") -> int:
    """A budget read as a violation count, which must be a non-negative integer."""
    if not (value >= 0 and value.is_integer()):
        raise ConfigError(f"field {field}: expected a non-negative integer count, got {value!r}")
    return int(value)


# The strategy class behind each --adversary choice.  A strategy plays the
# protocols whose open hook it overrides; one that overrides none never
# aborts, so it plays every protocol.
_STRATEGIES = {"passive": PassiveAdversary, "cyclic": CyclicShiftAdversary,
               "eager": EagerAbortAdversary, "block": BlockAttackAdversary, "dp": DPAdversary}
_OPEN_HOOKS = {"naive": "open_permutations", "seq": "open_draws"}


def _plays(strategy: type[Adversary]) -> list[str]:
    """The protocols that ``strategy`` plays, by the open hooks it defines."""
    own = [protocol for protocol, hook in _OPEN_HOOKS.items()
           if getattr(strategy, hook) is not getattr(Adversary, hook)]
    return own or list(_OPEN_HOOKS)


# Every config key, with its typed default and the options of its flag
# ``--key`` ("-" for "_").  A subcommand registers only the flags it reads
# (see build_parser), so argparse rejects any other with exit code 2; a
# config-file value goes through the same type, choices or boolean parse.
_KEYS = {
    "game": (None, {"choices": ["pair", "max-gamma", "lb", "collab"]}),
    "n": (None, {"type": int}),
    "i_star": (0, {"type": int}),
    "j_star": (1, {"type": int}),
    "hypergraph": (None, {}),
    "honest": (None, {"type": int}),
    "padding": (0, {"type": int}),
    "protocol": ("seq", {"choices": list(_OPEN_HOOKS)}),
    "adversary": ("passive", {"choices": list(_STRATEGIES)}),
    "budget_kind": ("known", {"choices": ["known", "rate"]}),
    "budget": (0.0, {"type": float}),
    "eps": (None, {"type": _fraction}),
    "delta": (None, {"type": _fraction}),
    "gamma": (None, {"type": _ratio}),
    "stopping": (None, {"choices": ["fixed", "known", "unknown", "adaptive"]}),
    "R": (None, {"type": int}),
    "M": (1, {"type": _positive}),
    "punish": ("count_only", {"choices": ["count_only", "perpetual"]}),
    "seed": (0, {"type": int}),
    "block_len": (None, {"type": int}),
    "block_greedy": (False, {"action": "store_true"}),
    "sweep": (None, {"help": "param=v1,v2,... with param in n, C, eps"}),
    "r_max": (None, {"type": _positive}),
    "max_samples": (None, {"type": _positive}),
    "jobs": (1, {"type": _positive}),
    "full_scale": (False, {"action": "store_true"}),
    "out": (None, {"help": "output CSV path ('-' for stdout)"}),
}

# The stopping keys each rule needs, and the others it may read; any other
# that is set exits 2 (ExperimentConfig.stopping).
_STOPPING_KEYS = {"fixed": (("R",), ()), "known": (("eps", "delta"), ("gamma",)),
                  "unknown": (("eps", "delta"), ("gamma", "max_samples")),
                  "adaptive": (("eps", "delta"), ("gamma",))}
# The adversary keys each strategy reads; a value other than the default of
# any other exits 2 (ExperimentConfig.stopping).
_BUDGET_KEYS, _BLOCK_KEYS = ("budget_kind", "budget"), ("block_len", "block_greedy")
_ADVERSARY_KEYS = {"passive": (), "cyclic": _BUDGET_KEYS, "eager": _BUDGET_KEYS, "dp": _BUDGET_KEYS,
                   "block": _BUDGET_KEYS + _BLOCK_KEYS}

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
        if key not in _KEYS:
            raise ConfigError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_value(key: str, text: str):
    """A config-file value, parsed as the flag ``--key`` parses it."""
    options = _KEYS[key][1]
    if "choices" in options:
        if text not in options["choices"]:
            raise ConfigError(f"field {key}: expected one of {options['choices']}, got {text!r}")
        return text
    if "type" in options:
        try:
            return options["type"](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"field {key}: {exc}") from None
    if "action" in options:
        if text.lower() not in _BOOLS:
            raise ConfigError(f"field {key}: expected boolean, got {text!r}")
        return _BOOLS[text.lower()]
    return text


@dataclass
class ExperimentConfig:
    """Validated settings for one driver invocation: every key of ``_KEYS``, typed."""

    values: dict[str, object]

    def __post_init__(self) -> None:
        # refused before any adversary or table is made: a strategy without
        # the protocol's hooks would play it passively
        kind, protocol = self["adversary"], self["protocol"]
        plays = _plays(_STRATEGIES[kind])
        if protocol not in plays:
            raise ConfigError(f"adversary {kind!r} plays only the {' and '.join(plays)} "
                              f"protocol, not {protocol!r}")

    def __getitem__(self, key: str):
        return self.values[key]

    # Game -----------------------------------------------------------------
    def build_game(self) -> tuple[Game, int]:
        named, hg_path, n = self["game"], self["hypergraph"], self["n"]
        if (named is None) == (hg_path is None):
            raise ConfigError("exactly one game spec: either 'game' or 'hypergraph'")
        for key, read in (("n", hg_path is None), ("padding", hg_path is not None),
                          ("i_star", named == "pair"), ("j_star", named == "pair")):
            if not read and self[key] != _KEYS[key][0]:  # a default value passes
                raise ConfigError(f"field {key}: the {named or 'hypergraph'} game does not read it")
        if hg_path is not None:
            try:
                h = load_hypergraph(hg_path)
            except (OSError, HypergraphFormatError) as exc:
                raise ConfigError(f"field hypergraph: {exc}") from exc
            if self["honest"] is None:
                raise ConfigError("hypergraph games need an explicit 'honest' player")
            core, padding = h.n, self["padding"]
            classes = tuple((p,) for p in range(core))
            if padding:
                h = h.padded(core + padding)
                classes = classes + (tuple(range(core, core + padding)),)
            game = make_synergy_game(h, symmetry_classes=classes)
        elif named == "collab":
            game = make_collab_game(n if n is not None else 14)
        elif n is None:
            raise ConfigError(f"game {named!r} needs n")
        elif named == "pair":
            game = make_pair_game(n, self["i_star"], self["j_star"])
        elif named == "max-gamma":
            game = make_max_gamma_game(n)
        else:
            game = make_lb_game(n)
        honest = self["honest"]
        if honest is None:
            honest = game.extras.get("i_star", 0)
        if not 0 <= honest < game.n:
            raise ConfigError(f"honest player {honest} out of range for n={game.n}")
        return game, honest

    def gamma_for(self, game: Game, honest: int) -> float:
        if self["gamma"] is not None:
            return self["gamma"]
        if game.protocol_gamma is not None:
            return game.protocol_gamma
        return float(shapley_exact(game).gamma)

    # Run pieces -----------------------------------------------------------
    def budget(self) -> Budget:
        if self["budget_kind"] == "rate":
            return Budget.rate(self["budget"])
        return Budget.known(_count(self["budget"]))

    def adversary_factory(self, game: Game, honest: int,
                          planned_R: int | None) -> Callable[[], Adversary]:
        """A maker of fresh adversaries, one per run; a DP table is built here, once."""
        kind = self["adversary"]
        budget = self.budget  # called per adversary: each run spends its own budget
        if kind == "passive":
            return PassiveAdversary
        if kind in ("cyclic", "eager"):
            return lambda: _STRATEGIES[kind](budget())
        if kind == "block":
            block_len = self["block_len"]
            if block_len is None:
                if self["eps"] is None:
                    raise ConfigError("block adversary needs block_len or eps")
                block_len = max(1, math.ceil(game.n / (10.0 * self["eps"])))
            greedy = self["block_greedy"]
            return lambda: BlockAttackAdversary(budget(), block_len, greedy=greedy)
        if planned_R is None:
            raise ConfigError("dp adversary needs a predetermined sample count")
        table = self.dp_table(game, honest, planned_R)
        return lambda: DPAdversary(table, budget())

    def dp_table(self, game: Game, honest: int, R: int) -> DPTable:
        """The optimal adversary's table, with decisions, for ``R`` samples and the budget."""
        if self["budget_kind"] == "rate":
            raise ConfigError("the dp adversary needs a violation count (budget_kind "
                              "known), not a rate")
        C = _count(self["budget"])
        _gate_full_scale(self, state_count(game, honest) * (C + 1), DESK_STATE_BUDGET,
                         "the adversary table")
        return dp_build(game, honest, R, C, decisions=True)

    def stopping(self, game: Game, honest: int, *,
                 theory_point: bool = False) -> StoppingRule | None:
        """The run's stopping rule (``None`` for adaptive) once the run's keys are checked.

        Each rule needs and may read the keys ``_STOPPING_KEYS`` lists; fixed
        stopping also reads ``eps`` where a block adversary sizes its blocks
        from it, and ``eps`` with ``delta`` as a ``theory_point``.  The
        adversary reads its ``_ADVERSARY_KEYS``, and known stopping ``budget``.
        """
        kind, adversary = self["stopping"] or "fixed", self["adversary"]
        needs, reads = _STOPPING_KEYS[kind]
        if kind == "fixed":
            pair = theory_point and self["eps"] is not None and self["delta"] is not None
            sized = adversary == "block" and self["block_len"] is None
            reads = ("eps", "delta") if pair else ("eps",) if sized else ()
        reads += _ADVERSARY_KEYS[adversary] + (("budget",) if kind == "known" else ())
        for key in ("R", "eps", "delta", "gamma", "max_samples", *_BUDGET_KEYS, *_BLOCK_KEYS):
            if key in needs and self[key] is None:
                raise ConfigError(f"stopping {kind!r} needs {key}")
            if self[key] != _KEYS[key][0] and key not in needs + reads:  # a default value passes
                raise ConfigError(f"field {key}: neither stopping {kind!r} nor the {adversary} "
                                  "adversary reads it")
        if kind in ("fixed", "adaptive"):  # run_adaptive takes its keys itself
            return StoppingRule.fixed(self["R"]) if kind == "fixed" else None
        eps, delta, g = self["eps"], self["delta"], self.gamma_for(game, honest)
        if kind == "known":
            return StoppingRule.known_budget(eps, delta, _count(self["budget"]), g)
        return StoppingRule.unknown_budget(eps, delta, g, cap=self["max_samples"])

    def out_path(self, default_name: str) -> str | None:
        out = self["out"]
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
    """Defaults, then the file's values of the keys the subcommand registers, then flags."""
    values = {key: default for key, (default, _) in _KEYS.items()}
    if args.config:
        values.update((key, _parse_value(key, text))
                      for key, text in parse_config_file(args.config).items()
                      if key in args.keys)
    values.update((key, flag) for key, flag in vars(args).items() if key in _KEYS)
    return ExperimentConfig(values)


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
    R = cfg["R"]
    if R is None:
        raise ConfigError("dp-table needs R")
    C = _count(cfg["budget"])
    _gate_full_scale(cfg, R, DESK_SCAN_BUDGET, "this table build")
    table = dp_build(game, honest, R, C)
    rows = [(T, c, row[c]) for T, row in enumerate(table.rows) for c in range(C + 1)]
    text = render_csv(["T", "c", "E_worst"], rows,
                      comments=[f"game = {game.name}", f"honest = {honest}", f"C = {C}"])
    write_text(cfg.out_path("dp_table.csv"), text)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    game, honest = cfg.build_game()
    stopping = cfg.stopping(game, honest)
    if stopping is None:  # adaptive
        if cfg["punish"] != "count_only":
            raise ConfigError("adaptive stopping supports only count_only punishment")
        adversary = cfg.adversary_factory(game, honest, None)()
        record = run_adaptive(game, adversary, cfg["eps"], cfg["delta"],
                              cfg.gamma_for(game, honest), honest=honest, seed=cfg["seed"],
                              protocol=cfg["protocol"])
    else:
        _gate_full_scale(cfg, stopping.R, DESK_SAMPLE_BUDGET, "this simulation")
        adversary = cfg.adversary_factory(game, honest, stopping.planned_R)()
        record = run_allocation(game, cfg["protocol"], adversary, stopping,
                                honest=honest, seed=cfg["seed"], punish=cfg["punish"])
    write_text(cfg.out_path("simulate.csv"), record.to_csv())
    return EXIT_OK


VERIFY_MARGIN = 0.1  # fraction past the crossover that min_samples_scan re-checks


def min_samples_scan(game: Game, honest: int, C: int, eps: float, *, r_max: int,
                     table: DPTable | None = None) -> int:
    """Smallest sample count whose worst-case mean reward is within ``eps``.

    Extends the boundary pass one sample at a time and returns the first
    ``R`` with ``value[R-1][N][C] / R >= (1 - eps) * phi``; then keeps
    scanning ``VERIFY_MARGIN`` further to confirm the criterion stays
    satisfied.  Exhausting ``r_max`` without crossing raises
    :class:`SampleCapExceeded` naming the best ratio scanned.  A ``table``
    of ``game`` and ``honest`` with a budget of at least ``C`` is extended
    and scanned in column ``C``, which is the same at every larger budget.
    """
    phi = float(shapley_exact(game).phi[honest])
    threshold = (1.0 - eps) * phi
    table = dp_build(game, honest, 1, C) if table is None else table
    crossover = None
    for R in range(1, r_max + 1):
        table.extend_to(R)
        if table.rows[R - 1][C] / R >= threshold:
            crossover = R
            break
    if crossover is None:
        best = (table.rows[:r_max, C] / np.arange(1, r_max + 1)).max()
        raise SampleCapExceeded(f"no crossover within r_max={r_max}: best ratio "
                                f"{best:.6g} vs threshold {threshold:.6g}")
    verify_to = min(r_max, math.ceil(crossover * (1.0 + VERIFY_MARGIN)))
    table.extend_to(verify_to)
    for R in range(crossover, verify_to + 1):
        if table.rows[R - 1][C] / R < threshold:
            raise AssertionError(
                f"worst-case ratio dipped back below threshold at R={R}; "
                "crossover is not stable"
            )
    return crossover


def cmd_min_samples(cfg: ExperimentConfig) -> int:
    sweep = cfg["sweep"]
    param, runs = "-", [("", cfg)]  # (value, config) per row
    if sweep is not None:
        param, eq, listed = (part.strip() for part in sweep.partition("="))
        if not eq:
            raise ConfigError(f"bad sweep spec {sweep!r}; expected 'param=v1,v2,...'")
        key = {"n": "n", "C": "budget", "eps": "eps"}.get(param)  # whose parse the values take
        if key is None:
            raise ConfigError(f"sweep parameter must be n, C, or eps, not {param!r}")
        values = [_parse_value(key, text) for text in listed.split(",")]
        runs = [(value, ExperimentConfig({**cfg.values, key: value})) for value in values]

    scans, headers = [], []  # every run is checked before any scan starts
    for value, run in runs:
        eps = run["eps"]
        if eps is None:
            raise ConfigError("min-samples needs eps")
        C = _count(run["budget"])
        game, honest = run.build_game()
        report = shapley_exact(game)
        gamma_h = report.u_max[honest] / report.phi[honest] if report.phi[honest] > 0 else 1.0
        r_max = run["r_max"] or math.ceil(2.0 * gamma_h * max(C, 1) / eps) + 8
        _gate_full_scale(run, r_max, DESK_SCAN_BUDGET,
                         f"the scan at {param}={format_number(value)}" if sweep else "the scan")
        scans.append((value, game, honest, C, eps, r_max))
        headers.append((f"game = {game.name}", f"honest = {honest}",
                        f"eps = {format_number(eps)}", f"C = {C}"))

    table = None
    if param != "n":  # every row has one game: scan them all over one table at the largest C
        _, game, honest, *_ = scans[0]
        table = dp_build(game, honest, 1, max(C for _, _, _, C, _, _ in scans))
    rows = [(param, value, min_samples_scan(game, honest, C, eps, r_max=r_max, table=table))
            for value, game, honest, C, eps, r_max in scans]
    shared = [lines[0] for lines in zip(*headers) if len(set(lines)) == 1]  # true of every row
    write_text(cfg.out_path("min_samples.csv"),
               render_csv(["parameter", "value", "min_R"], rows, comments=shared))
    return EXIT_OK


def _forked_allocations(runs: range) -> np.ndarray:
    return _allocations(runs)  # cmd_cdf's, set before the workers fork: nothing is pickled


def cmd_cdf(cfg: ExperimentConfig) -> int:
    global _allocations
    game, honest = cfg.build_game()
    eps, delta, M, jobs, seed = cfg["eps"], cfg["delta"], cfg["M"], cfg["jobs"], cfg["seed"]
    if cfg["stopping"] == "adaptive":
        raise ConfigError("cdf needs a fixed, known or unknown stopping rule, not 'adaptive'")
    stopping = cfg.stopping(game, honest, theory_point=True)
    _gate_full_scale(cfg, stopping.R * M, DESK_SAMPLE_BUDGET, "this experiment")
    phi = float(shapley_exact(game).phi[honest])
    if phi == 0:
        raise ConfigError(f"honest player {honest} has phi = 0: eps_hat = 1 - x/phi is undefined")

    # everything a run reads is built here, once, before any worker forks
    R, kind, protocol, punish = stopping.planned_R, cfg["adversary"], cfg["protocol"], cfg["punish"]
    if kind in ("passive", "dp") and protocol == "seq" and punish == "count_only" and R is not None:
        table = cfg.dp_table(game, honest, R) if kind == "dp" else None  # the lockstep engine

        def allocations(runs: range) -> np.ndarray:
            return parallel_runs(game, honest, R, table.C if table is not None else 0, len(runs),
                                 seed, table=table, first=runs.start).x_honest
    else:
        factory = cfg.adversary_factory(game, honest, R)

        def allocations(runs: range) -> np.ndarray:
            return run_many(game, protocol, factory, stopping, runs, honest=honest, seed=seed,
                            punish=punish)
    if jobs == 1:
        x = allocations(range(M))
    else:  # multiprocessing loads only here; "fork" is named, as Python 3.14 changes the default
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        _allocations, parts = allocations, min(jobs, M)
        bounds = [M * i // parts for i in range(parts + 1)]
        with ProcessPoolExecutor(parts, mp_context=get_context("fork")) as pool:
            x = np.concatenate(list(pool.map(_forked_allocations, map(range, bounds, bounds[1:]))))

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
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                           **_KEYS[key][1])
        p.set_defaults(func=fn, keys=keys)
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
