import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapsim import cli
from shapsim.cli import (EXIT_CAP, EXIT_CONFIG, EXIT_OK, _count, _merge_config, build_parser,
                         main)
from shapsim.csvio import format_number

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "collab_reconstruction.hg"
# the environment of a child interpreter that imports shapsim from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run(args):
    return main([str(a) for a in args])


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# --- determinism -------------------------------------------------------------------

def test_same_seed_same_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--game", "pair", "--n", "4", "--protocol", "seq",
            "--adversary", "passive", "--R", "25", "--seed", "99"]
    assert run(args + ["--out", out1]) == EXIT_OK
    assert run(args + ["--out", out2]) == EXIT_OK
    assert read(out1) == read(out2)


def test_different_seed_different_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--game", "pair", "--n", "4", "--R", "25"]
    run(base + ["--seed", "1", "--out", out1])
    run(base + ["--seed", "2", "--out", out2])
    assert read(out1) != read(out2)


# --- shapley ------------------------------------------------------------------------

def test_shapley_lb_protocol_gamma(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["shapley", "--game", "lb", "--n", "100", "--out", out]) == EXIT_OK
    text = read(out)
    assert "# schema-version: 1" in text
    assert "# protocol_gamma = 100" in text
    first_row = [l for l in text.splitlines() if not l.startswith("#")][1]
    assert first_row.split(",")[1] == "1"  # honest Shapley value exactly 1


def test_shapley_from_hypergraph_file(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["shapley", "--hypergraph", DATA, "--honest", "0", "--padding", "6",
                "--out", out]) == EXIT_OK
    text = read(out)
    assert "# gamma = 3.15789473684" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 20  # header + 14 core + 6 padding


def test_hypergraph_honest_player_out_of_range_rejected(tmp_path):
    for honest in ("20", "-1"):  # 14 core players and 6 padding ones
        assert run(["shapley", "--hypergraph", DATA, "--honest", honest, "--padding", "6",
                    "--out", tmp_path / "s.csv"]) == EXIT_CONFIG
    assert not (tmp_path / "s.csv").exists()


def test_shapley_triangle_file(tmp_path):
    hg = tmp_path / "tri.hg"
    hg.write_text("n 3\n1 0 1\n1 1 2\n1 0 2\n")
    out = tmp_path / "t.csv"
    assert run(["shapley", "--hypergraph", hg, "--honest", "0", "--out", out]) == EXIT_OK
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    assert [r[1] for r in rows] == ["1", "1", "1"]


def test_shapley_empty_hypergraph(tmp_path):
    hg = tmp_path / "empty.hg"
    hg.write_text("n 3\n")
    out = tmp_path / "e.csv"
    assert run(["shapley", "--hypergraph", hg, "--honest", "0", "--out", out]) == EXIT_OK
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    assert all(r[1] == "0" for r in rows)


# --- config handling ----------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("game = pair\nn = 4\nR = 10\nseed = 5\nprotocol = seq\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--config", cfg, "--out", out1]) == EXIT_OK
    # flags win over the file
    assert run(["simulate", "--config", cfg, "--R", "3", "--out", out2]) == EXIT_OK
    assert read(out2).splitlines()[-1].split(",")[0] == "3"


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("game = pair\nwibble = 3\n")
    assert run(["simulate", "--config", cfg]) == EXIT_CONFIG


def test_missing_game_spec_rejected():
    assert run(["simulate", "--R", "5"]) == EXIT_CONFIG


def test_both_game_specs_rejected(tmp_path):
    assert run(["shapley", "--game", "pair", "--n", "3",
                "--hypergraph", DATA, "--honest", "0"]) == EXIT_CONFIG


def test_bad_field_type_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("game = pair\nn = three\n")
    assert run(["shapley", "--config", cfg]) == EXIT_CONFIG


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SHAPSIM_OUTPUT_DIR", str(tmp_path))
    assert run(["shapley", "--game", "pair", "--n", "3", "--out", "rel.csv"]) == EXIT_OK
    assert (tmp_path / "rel.csv").exists()


# --- compute caps -----------------------------------------------------------------------

def test_rate_adversary_hits_cap_exit_3():
    # violation rate above eps/(2 gamma): the violating-fraction rule can
    # never be satisfied, so the run aborts at the hard cap
    rc = run(["simulate", "--game", "pair", "--n", "3", "--i-star", "2", "--j-star", "0",
              "--honest", "2", "--protocol", "naive", "--adversary", "cyclic",
              "--budget-kind", "rate", "--budget", "0.9",
              "--stopping", "unknown", "--eps", "0.1", "--delta", "0.5",
              "--gamma", "2.0", "--max-samples", "150", "--out", "-"])
    assert rc == EXIT_CAP


# --- dp-table ------------------------------------------------------------------------------

def test_dp_table_zero_budget_column(tmp_path):
    out = tmp_path / "dp.csv"
    assert run(["dp-table", "--game", "lb", "--n", "6", "--R", "12",
                "--budget", "2", "--out", out]) == EXIT_OK
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    for t, c, val in rows:
        if c == "0":
            assert float(val) == pytest.approx(int(t) + 1.0, rel=1e-9)


# --- min-samples -------------------------------------------------------------------------

def test_min_samples_zero_budget_is_one(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["min-samples", "--game", "lb", "--n", "6", "--budget", "0",
                "--eps", "0.05", "--out", out]) == EXIT_OK
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    assert rows[0][2] == "1"


def test_min_samples_sweep_budget(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["min-samples", "--game", "lb", "--n", "6", "--eps", "0.1",
                "--sweep", "C=1,2,4", "--out", out]) == EXIT_OK
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    rs = [int(r[2]) for r in rows]
    assert rs == sorted(rs)  # non-decreasing in the budget


def test_min_samples_exhausted_range_exit_3(tmp_path):
    rc = run(["min-samples", "--game", "lb", "--n", "6", "--budget", "4",
              "--eps", "0.01", "--r-max", "5", "--out", tmp_path / "m.csv"])
    assert rc == EXIT_CAP


SWEPT_FLAG = {"n": "--n", "C": "--budget", "eps": "--eps"}


@pytest.mark.parametrize("args", [
    ["--hypergraph", DATA, "--honest", "0", "--padding", "6", "--eps", "0.1", "--budget", "2"],
    ["--game", "lb", "--n", "10", "--eps", "0.05", "--sweep", "C=1,2,4"],
    ["--game", "lb", "--n", "10", "--budget", "2", "--sweep", "eps=0.1,0.05,0.025"],
    ["--game", "lb", "--eps", "0.05", "--budget", "2", "--sweep", "n=8,12,16"],
], ids=["no-sweep", "sweep-C", "sweep-eps", "sweep-n"])
def test_min_samples_header_states_what_every_row_shares(tmp_path, args):
    # the demo 05 runs: a row's setting is the run's flags with the row's
    # swept value given as the plain flag; the header states a setting
    # exactly when every row has the same one
    out = tmp_path / "m.csv"
    assert run(["min-samples", *args, "--out", out]) == EXIT_OK
    lines = read(out).splitlines()
    header = dict(l[2:].split(" = ") for l in lines if l.startswith("# ") and " = " in l)
    settings = []
    for param, value, _ in [l.split(",") for l in lines if not l.startswith("#")][1:]:
        flag = [SWEPT_FLAG[param], value] if param != "-" else []
        cfg = _merge_config(build_parser().parse_args(["min-samples", *map(str, args), *flag]))
        game, honest = cfg.build_game()
        settings.append({"game": game.name, "honest": str(honest),
                         "eps": format_number(cfg["eps"]), "C": str(_count(cfg["budget"]))})
    shared = {key: settings[0][key] for key in settings[0]
              if all(row[key] == settings[0][key] for row in settings)}
    assert header == shared


def test_min_samples_checks_every_run_before_scanning(tmp_path, capsys, monkeypatch):
    # the third value's scan needs more rows than the desk budget allows, so
    # the run exits 2 before the first value is scanned
    scanned = []
    monkeypatch.setattr(cli, "min_samples_scan", lambda *args, **kw: scanned.append(args))
    out = tmp_path / "m.csv"
    assert run(["min-samples", "--game", "lb", "--n", "10", "--eps", "0.01",
                "--sweep", "C=1,2,400", "--out", out]) == EXIT_CONFIG
    assert "the scan at C=400" in capsys.readouterr().err
    assert scanned == []
    assert not out.exists()


# --- cdf ------------------------------------------------------------------------------------

def test_cdf_passive_mass_near_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["cdf", "--game", "pair", "--n", "3", "--protocol", "seq",
                "--adversary", "passive", "--R", "4000", "--M", "200",
                "--eps", "0.1", "--delta", "0.1", "--seed", "7", "--out", out]) == EXIT_OK
    text = read(out)
    assert "theory_point_right_of_curve = true" in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    eps_hat = np.array([float(r[0]) for r in rows])
    assert float(np.median(eps_hat)) < 0.05


def test_cdf_sequential_path_matches_schema(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["cdf", "--game", "pair", "--n", "3", "--protocol", "naive",
                "--adversary", "passive", "--R", "50", "--M", "40",
                "--eps", "0.5", "--delta", "0.5", "--out", out]) == EXIT_OK
    rows = [l for l in read(out).splitlines() if not l.startswith("#")]
    assert rows[0] == "eps_hat,cum_fraction"
    assert len(rows) == 41


def test_adaptive_simulate_passive_trailer(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["simulate", "--game", "pair", "--n", "4", "--protocol", "naive",
                "--adversary", "passive", "--stopping", "adaptive",
                "--eps", "0.25", "--delta", "0.5", "--gamma", "2.0",
                "--seed", "11", "--out", out]) == EXIT_OK
    trailer = read(out).strip().splitlines()[-1].split(",")
    assert float(trailer[3]) <= 0.25  # reported error level within target


def test_library_validation_maps_to_config_error():
    assert run(["shapley", "--game", "lb", "--n", "7"]) == EXIT_CONFIG  # odd n


def test_full_scale_gate(tmp_path):
    base = ["cdf", "--game", "lb", "--n", "10", "--protocol", "seq",
            "--adversary", "passive", "--stopping", "known",
            "--budget", "200", "--eps", "0.05", "--delta", "0.082",
            "--M", "1000", "--out", tmp_path / "c.csv"]
    # published-scale sample counts are rejected without the flag
    assert run(base) == EXIT_CONFIG


def test_min_samples_synergy_flat_in_n(tmp_path):
    # a fixed honest neighborhood keeps the honest ratio constant, so the
    # required sample count is flat as padding grows
    from shapsim.cli import min_samples_scan
    from shapsim import make_synergy_game
    from shapsim.hypergraph import Hypergraph

    results = []
    for n in (8, 12, 16):
        core = Hypergraph(n=3, edges=((frozenset({0, 1, 2}), 3.0),)).padded(n)
        classes = ((0,), (1,), (2,), tuple(range(3, n)))
        game = make_synergy_game(core, symmetry_classes=classes)
        results.append(min_samples_scan(game, 0, C=1, eps=0.1, r_max=300))
    assert max(results) <= 1.15 * min(results), results


def test_min_samples_third_constant_at_reduced_scale():
    # the scan lands near one third of C * gamma / eps on the synthetic
    # game, using its conventional gamma = n
    from shapsim.cli import min_samples_scan
    from shapsim import make_lb_game

    n, C, eps = 20, 2, 0.05
    min_r = min_samples_scan(make_lb_game(n), 0, C=C, eps=eps, r_max=2000)
    target = (1 / 3) * C * n / eps
    assert abs(min_r - target) <= 0.25 * target, (min_r, target)


@pytest.mark.parametrize("protocol, adversary, budget", [
    ("naive", "cyclic", ["--budget", "5"]), ("seq", "passive", []),  # passive reads no budget
], ids=["naive-cyclic", "seq-passive"])
def test_cdf_rejects_a_zero_value_honest_player(tmp_path, capsys, monkeypatch,
                                                protocol, adversary, budget):
    # pair n=4 pays only players 0 and 1, so phi of player 3 is 0 and the
    # relative error 1 - x/phi is undefined; neither engine may start
    import shapsim.cli

    def not_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(shapsim.cli, "run_many", not_run)
    monkeypatch.setattr(shapsim.cli, "parallel_runs", not_run)
    out = tmp_path / "c.csv"
    assert run(["cdf", "--game", "pair", "--n", "4", "--honest", "3", "--protocol", protocol,
                "--adversary", adversary, *budget, "--R", "50", "--M", "20",
                "--out", out]) == EXIT_CONFIG
    assert "phi = 0" in capsys.readouterr().err
    assert not out.exists()


# cdf runs of both engines, passive and with a budget; M = 7 runs split
# into at most M contiguous ranges, so --jobs 9 plays one run per worker
CDF_ENGINES = {
    "lockstep-passive": ["--game", "lb", "--n", "8", "--protocol", "seq",
                         "--adversary", "passive", "--R", "40"],
    "lockstep-dp": ["--game", "lb", "--n", "8", "--protocol", "seq", "--adversary", "dp",
                    "--budget", "2", "--R", "60"],
    "callback-naive-cyclic": ["--game", "pair", "--n", "4", "--i-star", "3", "--j-star", "2",
                              "--protocol", "naive", "--adversary", "cyclic", "--budget", "3",
                              "--R", "30"],
    "callback-seq-dp-perpetual": ["--game", "lb", "--n", "6", "--protocol", "seq",
                                  "--adversary", "dp", "--budget", "2", "--R", "20",
                                  "--punish", "perpetual"],
}


@pytest.mark.parametrize("engine", list(CDF_ENGINES))
def test_cdf_bytes_are_the_same_for_every_jobs(tmp_path, engine):
    # run m reads only substream(seed, "run", m), so no split of the runs
    # over workers changes a byte
    outs = []
    for jobs in (1, 2, 3, 9):
        outs.append(tmp_path / f"j{jobs}.csv")
        assert run(["cdf", *CDF_ENGINES[engine], "--M", "7", "--seed", "5", "--jobs", jobs,
                    "--out", outs[-1]]) == EXIT_OK
    assert len({read(out) for out in outs}) == 1
    assert read(outs[0]).count("\n") == 6 + 1 + 7  # six comment lines, the header, 7 runs


@pytest.mark.parametrize("engine", ["lockstep-dp", "callback-seq-dp-perpetual"])
def test_cdf_workers_build_no_table(tmp_path, monkeypatch, engine):
    # the parent builds the table before the workers fork, and they share it
    parent, build = os.getpid(), cli.dp_build

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a worker built a table")
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "dp_build", parent_only)
    out, alone = tmp_path / "j2.csv", tmp_path / "j1.csv"
    assert run(["cdf", *CDF_ENGINES[engine], "--M", "4", "--jobs", "2", "--out", out]) == EXIT_OK
    assert run(["cdf", *CDF_ENGINES[engine], "--M", "4", "--out", alone]) == EXIT_OK
    assert read(out) == read(alone)


def test_cdf_jobs_fanout_deterministic(tmp_path):
    out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    base = ["cdf", "--game", "pair", "--n", "3", "--protocol", "naive",
            "--adversary", "passive", "--R", "30", "--M", "20",
            "--eps", "0.5", "--delta", "0.5", "--seed", "3"]
    assert run(base + ["--jobs", "1", "--out", out1]) == EXIT_OK
    assert run(base + ["--jobs", "2", "--out", out2]) == EXIT_OK
    assert read(out1) == read(out2)


def test_importing_the_cli_loads_no_process_pool():
    # only cdf --jobs N > 1 needs one, so no other command pays for the import
    probe = ("import sys, shapsim.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- flags that must take effect or be rejected ---------------------------------------------

ADAPTIVE = ["simulate", "--game", "pair", "--n", "4", "--adversary", "passive",
            "--stopping", "adaptive", "--eps", "0.25", "--delta", "0.5", "--gamma", "2.0",
            "--seed", "11"]


def test_adaptive_simulate_honours_protocol(tmp_path):
    naive, seq = tmp_path / "naive.csv", tmp_path / "seq.csv"
    assert run(ADAPTIVE + ["--protocol", "naive", "--out", naive]) == EXIT_OK
    assert run(ADAPTIVE + ["--protocol", "seq", "--out", seq]) == EXIT_OK
    assert read(naive) != read(seq)


@pytest.mark.parametrize("flag", [["--punish", "perpetual"], ["--max-samples", "100"]])
def test_adaptive_simulate_rejects_unused_flags(tmp_path, flag):
    assert run(ADAPTIVE + flag + ["--out", tmp_path / "a.csv"]) == EXIT_CONFIG
    assert not (tmp_path / "a.csv").exists()


PAIRING = ["--game", "lb", "--n", "8", "--honest", "7"]
PAIRING_SIZES = {"simulate": ["--R", "5"], "cdf": ["--R", "5", "--M", "2"]}


@pytest.mark.parametrize("command", ["simulate", "cdf"])
@pytest.mark.parametrize("protocol, adversary", [
    ("seq", "cyclic"), ("naive", "eager"), ("naive", "block"), ("naive", "dp"),
])
def test_an_adversary_without_the_protocols_hooks_exits_2(tmp_path, capsys, monkeypatch,
                                                          command, protocol, adversary):
    # such a strategy would play the protocol passively (or, for dp, fail at
    # the first commit), so the pairing is refused before any table or run
    def not_run(*args, **kwargs):
        raise AssertionError("a table or a run started")

    for name in ("dp_build", "run_allocation", "run_adaptive", "run_many", "parallel_runs"):
        monkeypatch.setattr(cli, name, not_run)
    out = tmp_path / "o.csv"
    args = [command, *PAIRING, "--budget", "2", *PAIRING_SIZES[command], "--out", out]
    assert run(args + ["--protocol", protocol, "--adversary", adversary]) == EXIT_CONFIG
    assert f"adversary {adversary!r} plays only" in capsys.readouterr().err
    cfg = _config(tmp_path, {"protocol": protocol, "adversary": adversary})
    assert run(args + ["--config", cfg]) == EXIT_CONFIG
    assert f"not {protocol!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("protocol, adversary", [
    ("naive", "passive"), ("seq", "passive"), ("naive", "cyclic"), ("seq", "eager"),
    ("seq", "block"), ("seq", "dp"),
])
def test_each_adversary_plays_the_protocols_whose_open_hook_it_defines(tmp_path, protocol,
                                                                       adversary):
    out = tmp_path / "o.csv"
    sizes_blocks = ["--eps", "0.5"] if adversary == "block" else []  # read by nothing else
    budget = [] if adversary == "passive" else ["--budget", "2"]  # read by every other
    assert run(["simulate", *PAIRING, *budget, *PAIRING_SIZES["simulate"], *sizes_blocks,
                "--protocol", protocol, "--adversary", adversary, "--out", out]) == EXIT_OK
    assert out.exists()


# sha256 of simulate CSVs that run the callback engine's banking loop, pinned
# so that a faster loop is seen to write the same bytes
PAIR4_CYCLIC = ["--game", "pair", "--n", "4", "--i-star", "3", "--j-star", "2",
                "--protocol", "naive", "--adversary", "cyclic"]


@pytest.mark.parametrize("args, digest", [
    (PAIR4_CYCLIC + ["--budget", "150", "--R", "400", "--seed", "7"],
     "f6dddc7907e62c49f580da96c98167392861f49a557a3a3452a98b5cc7b1dbba"),
    (PAIR4_CYCLIC + ["--budget", "150", "--R", "400", "--seed", "7", "--punish", "perpetual"],
     "8a1ee2a435ddd473a9b141185c7f7ec6d7fac4854ce1e62bbe2e67629681ce6e"),
    (["--game", "lb", "--n", "8", "--protocol", "naive", "--adversary", "passive",
      "--R", "300", "--seed", "5"],
     "b391fdf4d20070ab7383b15fe84f5af18db855658b2fe82963ba2a74943b70f3"),
    (["--game", "lb", "--n", "8", "--protocol", "seq", "--adversary", "eager",
      "--budget-kind", "rate", "--budget", "0.1", "--R", "300", "--seed", "6"],
     "7a242d4fda4a778b30a3bc3663ec6abed69a1bd06dbb922d3e9551ea893bc49f"),
    (PAIR4_CYCLIC + ["--stopping", "adaptive", "--eps", "0.25", "--delta", "0.1",
                     "--budget", "20", "--seed", "8"],
     "973cd90bfe14e898d55100243633098d49982f1e26ff9effcd5e8f896937f5d2"),
], ids=["pair4-naive-cyclic", "pair4-naive-cyclic-perpetual", "lb8-naive-passive",
        "lb8-seq-eager-rate", "pair4-naive-cyclic-adaptive"])
def test_simulate_bytes_match_pinned_digests(tmp_path, args, digest):
    out = tmp_path / "s.csv"
    assert run(["simulate", *args, "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", [
    ["simulate", "--R", "5"],
    ["cdf", "--R", "5", "--M", "2"],
    ["cdf", "--R", "5", "--M", "2", "--punish", "perpetual"],
])
def test_dp_adversary_rejects_rate_budget(tmp_path, command):
    args = command + ["--game", "lb", "--n", "6", "--protocol", "seq", "--adversary", "dp",
                      "--budget-kind", "rate", "--budget", "0.5", "--out", tmp_path / "o.csv"]
    assert run(args) == EXIT_CONFIG
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("adversary", ["passive", "eager", "dp"])
def test_budget_kind_unknown_is_rejected(tmp_path, capsys, adversary):
    # a violation count has one kind; whether the stopping rule is told the
    # count is --stopping's choice
    args = ["simulate", "--game", "lb", "--n", "6", "--protocol", "seq", "--adversary", adversary,
            "--budget", "2", "--R", "5", "--out", tmp_path / "o.csv"]
    with pytest.raises(SystemExit) as exc:
        run(args + ["--budget-kind", "unknown"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget_kind = unknown\n")
    assert run(args + ["--config", cfg]) == EXIT_CONFIG
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", [
    ["cdf", "--game", "pair", "--n", "3", "--R", "5", "--max-samples", "1"],
    ["simulate", "--game", "pair", "--n", "3", "--R", "5", "--M", "7", "--jobs", "3"],
    ["dp-table", "--game", "pair", "--n", "3", "--R", "5", "--protocol", "naive",
     "--adversary", "cyclic"],
    ["shapley", "--game", "pair", "--n", "3", "--seed", "1"],
    ["min-samples", "--game", "lb", "--n", "6", "--eps", "0.1", "--gamma", "2"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", tmp_path / "o.csv"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# --- one parse for flags and config files ---------------------------------------------------

def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = _subcommands()
REGISTERED = [(name, key) for name, p in SUBCOMMANDS.items() for key in p.get_default("keys")]

# key: (a valid value, what it parses to, a value its flag refuses or None);
# a valid value of None is a boolean flag, given bare or as "true" in a file
VALUES = {
    "game": ("lb", "lb", "hex"),
    "n": ("6", 6, "six"),
    "i_star": ("2", 2, "1.5"),
    "j_star": ("0", 0, "x"),
    "hypergraph": ("g.hg", "g.hg", None),
    "honest": ("1", 1, "one"),
    "padding": ("3", 3, "2.5"),
    "protocol": ("naive", "naive", "fast"),
    "adversary": ("eager", "eager", "lazy"),
    "budget_kind": ("rate", "rate", "unknown"),
    "budget": ("0.5", 0.5, "half"),
    "eps": ("0.1", 0.1, "small"),
    "delta": ("0.2", 0.2, "x"),
    "gamma": ("3", 3.0, "x"),
    "stopping": ("unknown", "unknown", "never"),
    "R": ("12", 12, "1e3"),
    "M": ("7", 7, "0"),
    "punish": ("perpetual", "perpetual", "never"),
    "seed": ("42", 42, "x"),
    "block_len": ("3", 3, "x"),
    "block_greedy": (None, True, "maybe"),
    "sweep": ("C=1,2", "C=1,2", None),
    "r_max": ("50", 50, "0"),
    "max_samples": ("100", 100, "lots"),
    "jobs": ("2", 2, "-3"),
    "full_scale": (None, True, "maybe"),
    "out": ("o.csv", "o.csv", None),
}

# a quick run of each subcommand that exits 0
BASE = {
    "shapley": ["--game", "pair", "--n", "3"],
    "simulate": ["--game", "pair", "--n", "3", "--R", "2"],
    "min-samples": ["--game", "lb", "--n", "4", "--eps", "0.5"],
    "cdf": ["--game", "pair", "--n", "3", "--R", "2", "--M", "2"],
    "dp-table": ["--game", "pair", "--n", "3", "--R", "2"],
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config(tmp_path, lines: dict) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    return cfg


def test_registered_keys_are_the_keys_with_a_test_value():
    assert {key for _, key in REGISTERED} == set(VALUES)
    assert set(BASE) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command, key", REGISTERED)
def test_flag_and_file_merge_to_the_same_typed_value(tmp_path, command, key):
    text, value, _ = VALUES[key]
    flag = [_flag(key)] if text is None else [_flag(key), text]
    from_flag = _merge_config(build_parser().parse_args([command, *flag]))[key]
    cfg = _config(tmp_path, {key: "true" if text is None else text})
    from_file = _merge_config(build_parser().parse_args([command, "--config", str(cfg)]))[key]
    assert from_flag == from_file == value
    assert type(from_flag) is type(from_file) is type(value)


@pytest.mark.parametrize("command, key", [(c, k) for c, k in REGISTERED if VALUES[k][2] is not None])
def test_refused_value_exits_2_from_flag_and_file(tmp_path, capsys, command, key):
    # the file value is refused even where a flag overrides it or the run
    # would not read it (block_len = x under --adversary passive)
    bad = VALUES[key][2]
    out = tmp_path / "o.csv"
    flag = [f"{_flag(key)}={bad}"] if VALUES[key][0] is None else [_flag(key), bad]
    with pytest.raises(SystemExit) as exc:
        run([command, *BASE[command], *flag, "--out", out])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
    cfg = _config(tmp_path, {key: bad})
    assert run([command, *BASE[command], "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_file_keys_a_subcommand_does_not_register_are_ignored(tmp_path, command):
    # one shared file may configure every subcommand; each ignores the keys
    # it does not read, even values their flags would refuse
    registered = SUBCOMMANDS[command].get_default("keys")
    cfg = _config(tmp_path, {key: refused if refused is not None else text
                             for key, (text, _, refused) in VALUES.items()
                             if key not in registered})
    out = tmp_path / "o.csv"
    assert run([command, *BASE[command], "--out", out]) == EXIT_OK
    assert run([command, *BASE[command], "--config", cfg, "--out", tmp_path / "f.csv"]) == EXIT_OK
    assert read(tmp_path / "f.csv") == read(out)


# lb n=8 with its last player honest, whom every adversary may play against
LB8_RUN = {"simulate": ["--game", "lb", "--n", "8", "--honest", "7", "--R", "5"],
           "cdf": ["--game", "lb", "--n", "8", "--honest", "7", "--R", "5", "--M", "2"]}


def test_passive_run_refuses_file_values_it_would_not_read(tmp_path, capsys):
    args = ["simulate", *LB8_RUN["simulate"], "--out", tmp_path / "o.csv"]
    for line in ({"block_len": "x"}, {"block_greedy": "maybe"}):
        assert run(args + ["--config", _config(tmp_path, line)]) == EXIT_CONFIG
    valid = _config(tmp_path, {"block_len": "2", "block_greedy": "Yes"})
    assert run(args + ["--adversary", "passive", "--config", valid]) == EXIT_CONFIG
    assert "field block_len" in capsys.readouterr().err
    assert run(args + ["--adversary", "block", "--config", valid]) == EXIT_OK


@pytest.mark.parametrize("command, args, key, value", [
    ("simulate", ["--adversary", "passive"], "block_len", "3"),
    ("cdf", ["--protocol", "naive", "--adversary", "cyclic", "--budget", "1"], "block_len", "3"),
    ("simulate", ["--adversary", "eager", "--budget", "1"], "block_greedy", None),
    ("simulate", ["--adversary", "passive"], "budget_kind", "rate"),
    ("cdf", ["--adversary", "passive"], "budget_kind", "rate"),
    ("simulate", ["--adversary", "passive"], "budget", "2"),
    ("cdf", ["--adversary", "passive"], "budget", "2"),
], ids=["simulate-passive-block-len", "cdf-cyclic-block-len", "eager-block-greedy",
        "simulate-passive-budget-kind", "cdf-passive-budget-kind", "simulate-passive-budget",
        "cdf-passive-budget"])
def test_adversary_values_the_adversary_does_not_read_exit_2(tmp_path, capsys, command, args,
                                                              key, value):
    # a passive adversary reads no budget, and only block reads block_len and
    # block_greedy; a default value passes with the same bytes
    base = [command, *LB8_RUN[command], *args]
    out, same = tmp_path / "o.csv", tmp_path / "default.csv"
    assert run([*base, "--out", out]) == EXIT_OK
    default = cli._KEYS[key][0]
    if default is not None:
        assert run([*base, "--config", _config(tmp_path, {key: default}),
                    "--out", same]) == EXIT_OK
        assert read(same) == read(out)
    out.unlink()
    flag = [_flag(key)] if value is None else [_flag(key), value]
    assert run([*base, *flag, "--out", out]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert run([*base, "--config", _config(tmp_path, {key: value or "true"}),
                "--out", out]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", *LB8_RUN["simulate"], "--adversary", "block", "--block-len", "2",
     "--block-greedy", "--budget", "1"],
    ["cdf", *LB8_RUN["cdf"], "--protocol", "naive", "--adversary", "cyclic",
     "--budget-kind", "rate", "--budget", "0.5"],
    ["simulate", "--game", "lb", "--n", "8", "--stopping", "known", "--eps", "0.5",
     "--delta", "0.5", "--budget", "2"],
], ids=["block", "cyclic-rate", "known-stopping-passive"])
def test_adversary_values_are_taken_where_read(tmp_path, args):
    assert run([*args, "--out", tmp_path / "o.csv"]) == EXIT_OK


@pytest.mark.parametrize("command, key, value", [
    ("cdf", "M", "0"), ("cdf", "jobs", "0"), ("cdf", "jobs", "-3"), ("min-samples", "r_max", "0"),
])
def test_count_flags_below_one_exit_2(tmp_path, capsys, command, key, value):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        run([command, *BASE[command], _flag(key), value, "--out", out])
    assert exc.value.code == EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    cfg = _config(tmp_path, {key: value})
    assert run([command, *BASE[command], "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


CYCLIC = ["--game", "pair", "--n", "3", "--i-star", "2", "--j-star", "0", "--honest", "2",
          "--protocol", "naive", "--adversary", "cyclic", "--R", "5"]
KNOWN = ["--game", "pair", "--n", "3", "--stopping", "known", "--eps", "0.5", "--delta", "0.5"]


@pytest.mark.parametrize("args, key, bad", [
    (["simulate", "--game", "lb", "--n", "6", "--adversary", "eager", "--R", "5"], "budget", "1.5"),
    (["simulate", *CYCLIC], "budget", "-1"),
    (["cdf", *CYCLIC, "--M", "3"], "budget", "nan"),
    (["simulate", *KNOWN], "budget", "-3"),
    (["cdf", *KNOWN, "--M", "3"], "budget", "2.5"),
    (["dp-table", "--game", "lb", "--n", "6", "--R", "5"], "budget", "1.5"),
    (["min-samples", "--game", "lb", "--n", "6", "--eps", "0.5"], "budget", "-1"),
    (["min-samples", "--game", "lb", "--n", "6", "--eps", "0.5"], "sweep", "C=1,1.5"),
], ids=["eager", "cyclic", "cdf-cyclic", "stopping-known", "cdf-stopping-known", "dp-table",
        "min-samples", "min-samples-sweep"])
def test_a_budget_read_as_a_count_must_be_a_non_negative_integer(tmp_path, capsys, args, key, bad):
    out = tmp_path / "o.csv"
    good = "C=1,2" if key == "sweep" else "2"
    assert run(args + [_flag(key), good, "--out", out]) == EXIT_OK
    out.unlink()
    assert run(args + [_flag(key), bad, "--out", out]) == EXIT_CONFIG
    assert "non-negative integer count" in capsys.readouterr().err
    assert run(args + ["--config", _config(tmp_path, {key: bad}), "--out", out]) == EXIT_CONFIG
    assert not out.exists()


CDF_KNOWN = ["cdf", "--game", "lb", "--n", "6", "--stopping", "known", "--M", "2"]


@pytest.mark.parametrize("args, key, bad", [
    ([*CDF_KNOWN, "--delta", "0.1"], "eps", "0"),
    ([*CDF_KNOWN, "--eps", "0.4"], "delta", "0"),
    (["min-samples", "--game", "lb", "--n", "6"], "eps", "0"),
    (["simulate", "--game", "lb", "--n", "6", "--stopping", "adaptive", "--delta", "0.5"],
     "eps", "0"),
    (["simulate", "--game", "lb", "--n", "6", "--stopping", "known", "--eps", "0.5"],
     "delta", "1.5"),
    (["simulate", "--game", "lb", "--n", "6", "--stopping", "unknown", "--delta", "0.5"],
     "eps", "-0.5"),
    (["min-samples", "--game", "lb", "--budget", "1", "--eps", "0.1"], "sweep", "n=6.5,8"),
    (["min-samples", "--game", "lb", "--n", "6", "--budget", "1"], "sweep", "eps=0.1,-1"),
], ids=["cdf-eps-0", "cdf-delta-0", "min-samples-eps-0", "adaptive-eps-0", "delta-1.5",
        "unknown-eps-negative", "sweep-n-fraction", "sweep-eps-negative"])
def test_eps_and_delta_outside_the_open_unit_interval_exit_2(tmp_path, capsys, args, key, bad):
    # adaptive stopping with eps = 0 would never end, so that case runs in a
    # child interpreter with a time limit
    field = bad.split("=")[0] if key == "sweep" else key
    out = tmp_path / "o.csv"

    def exit_code(argv):
        argv = [str(a) for a in argv + ["--out", out]]
        if "adaptive" in argv:
            done = subprocess.run([sys.executable, "-m", "shapsim.cli", *argv], env=SRC_ENV,
                                  capture_output=True, text=True, timeout=60)
            return done.returncode, done.stderr
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flag
            code = exc.code
        return code, capsys.readouterr().err

    code, err = exit_code(args + [_flag(key), bad])
    assert code == EXIT_CONFIG
    assert f"field {field}" in err or f"argument {_flag(key)}" in err
    code, err = exit_code(args + ["--config", _config(tmp_path, {key: bad})])
    assert code == EXIT_CONFIG
    assert f"field {field}" in err
    assert not out.exists()


LB8 = ["--game", "lb", "--n", "8", "--protocol", "seq", "--adversary", "passive"]


def _rule(stopping: str) -> list[str]:
    return ["--stopping", stopping, "--eps", "0.2", "--delta", "0.1"]


_NO_EFFECT = [
    *[("known", "gamma", bad) for bad in ("0", "-2", "inf", "nan", "0.5")],
    ("unknown", "gamma", "0"),
    ("known", "R", "7"),
    ("unknown", "R", "7"),
]

# fixed stopping reads no gamma; it reads eps and delta only as cdf's theory
# point, which takes both, or eps where a block adversary sizes its blocks
BLOCK = ["--adversary", "block"]
_UNREAD_WHEN_FIXED = [
    ("simulate", [], "gamma", "2"),
    ("simulate", ["--stopping", "fixed"], "delta", "0.1"),
    ("simulate", [], "eps", "0.2"),
    ("simulate", [*BLOCK, "--block-len", "2"], "eps", "0.2"),
    ("simulate", [*BLOCK, "--eps", "0.2"], "delta", "0.1"),
    ("cdf", ["--eps", "0.2", "--delta", "0.1"], "gamma", "2"),
    ("cdf", [], "eps", "0.2"),
    ("cdf", [], "delta", "0.1"),
    ("cdf", [*BLOCK, "--block-len", "2"], "eps", "0.2"),
    ("cdf", BLOCK, "delta", "0.1"),
]


@pytest.mark.parametrize("command, args, key, bad", [
    *[pytest.param(command, _rule(rule), key, bad, id=f"{command}-{rule}-{key}-{bad}")
      for command in ("simulate", "cdf") for rule, key, bad in _NO_EFFECT],
    pytest.param("simulate", _rule("adaptive"), "R", "7", id="simulate-adaptive-R-7"),
    pytest.param("simulate", ["--R", "5"], "max_samples", "0", id="max-samples-0"),
    pytest.param("simulate", ["--R", "5"], "max_samples", "-3", id="max-samples--3"),
    *[pytest.param(command, ["--R", "5", *args], key, bad,
                   id="-".join([command, "fixed", *(a.strip("-") for a in args), key]))
      for command, args, key, bad in _UNREAD_WHEN_FIXED],
])
def test_run_values_that_cannot_take_effect_exit_2(tmp_path, capsys, command, args, key, bad):
    out = tmp_path / "o.csv"

    def exit_code(argv):
        try:
            return run([command, *LB8, *args, *argv, "--out", out])
        except SystemExit as exc:  # argparse refuses the flag
            return exc.code

    assert exit_code([_flag(key), bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"field {key}" in err or f"argument {_flag(key)}" in err
    assert exit_code(["--config", _config(tmp_path, {key: bad})]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("simulate", [*BLOCK, "--eps", "0.2"]),
    ("cdf", [*BLOCK, "--eps", "0.2"]),
    ("cdf", ["--eps", "0.2", "--delta", "0.1"]),
], ids=["simulate-block-eps", "cdf-block-eps", "cdf-theory-point"])
def test_fixed_stopping_takes_eps_that_sizes_blocks_and_a_theory_point(tmp_path, command, args):
    out = tmp_path / "o.csv"
    assert run([command, *LB8, "--R", "5", *args, "--out", out]) == EXIT_OK
    assert ("theory_point = 0.2,0.9" in read(out)) == ("--delta" in args)


@pytest.mark.parametrize("args", [
    pytest.param(["--R", "6"], id="fixed-cap-below-R"),
    pytest.param(["--R", "5"], id="fixed-cap-at-R"),
    pytest.param(["--stopping", "fixed", "--R", "4"], id="fixed-cap-above-R"),
    pytest.param(_rule("known"), id="known"),
])
def test_max_samples_under_a_count_rule_exits_2(tmp_path, capsys, args):
    # a count rule stops at its R, so a cap below R would only end the run
    # early and one at or above R would do nothing
    out = tmp_path / "o.csv"
    argv = ["simulate", *LB8, *args, "--out", out]
    assert run(argv) == EXIT_OK
    out.unlink()
    assert run(argv + ["--max-samples", "5"]) == EXIT_CONFIG
    assert "field max_samples" in capsys.readouterr().err
    assert run(argv + ["--config", _config(tmp_path, {"max_samples": "5"})]) == EXIT_CONFIG
    assert "field max_samples" in capsys.readouterr().err
    assert not out.exists()


def test_the_unknown_rule_gives_up_at_max_samples_with_exit_3(tmp_path, capsys):
    # a cyclic adversary with violation rate above eps/(2 gamma) keeps the
    # violating-fraction rule unsatisfied until its cap
    argv = ["simulate", *CYCLIC[:-2], "--budget-kind", "rate", "--budget", "0.9",
            "--stopping", "unknown", "--eps", "0.1", "--delta", "0.5", "--gamma", "2.0",
            "--out", tmp_path / "o.csv"]
    assert run(argv + ["--max-samples", "150"]) == EXIT_CAP
    assert "unsatisfied after 150 P-samples" in capsys.readouterr().err
    assert run(argv + ["--config", _config(tmp_path, {"max_samples": "90"})]) == EXIT_CAP
    assert "unsatisfied after 90 P-samples" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_readme_stopping_keys_match_the_rule_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Each stopping rule needs"):readme.index("Fixed stopping also")]

    def keys(text):
        return {flag.replace("-", "_") for flag in re.findall(r"`--([\w-]+)`", text)}

    documented = {}
    for item in section.split("\n- ")[1:]:
        needs, _, reads = item.partition("may read")
        documented[re.match(r"`(\w+)`", item).group(1)] = (keys(needs), keys(reads))
    assert documented == {kind: (set(needs), set(reads))
                          for kind, (needs, reads) in cli._STOPPING_KEYS.items()}
    assert list(documented) == cli._KEYS["stopping"][1]["choices"]


HG = ["--hypergraph", DATA, "--honest", "0"]


@pytest.mark.parametrize("command, args, key, value", [
    ("simulate", ["--game", "lb", "--n", "8", "--R", "5"], "i_star", "3"),
    ("simulate", ["--game", "lb", "--n", "8", "--R", "5"], "j_star", "3"),
    ("simulate", ["--game", "lb", "--n", "8", "--R", "5"], "padding", "3"),
    ("shapley", ["--game", "collab", "--n", "14"], "i_star", "1"),
    ("shapley", ["--game", "max-gamma", "--n", "4"], "padding", "2"),
    ("shapley", HG, "n", "20"),
    ("shapley", HG, "j_star", "0"),
    ("dp-table", [*HG, "--padding", "2", "--R", "3"], "i_star", "2"),
], ids=["lb-i-star", "lb-j-star", "lb-padding", "collab-i-star", "max-gamma-padding",
        "hypergraph-n", "hypergraph-j-star", "dp-table-hypergraph-i-star"])
def test_game_values_the_game_does_not_read_exit_2(tmp_path, capsys, command, args, key, value):
    out, same = tmp_path / "o.csv", tmp_path / "default.csv"
    assert run([command, *args, "--out", out]) == EXIT_OK
    default = cli._KEYS[key][0]
    if default is not None:  # the default value passes, with the same bytes
        assert run([command, *args, _flag(key), default, "--out", same]) == EXIT_OK
        assert read(same) == read(out)
    out.unlink()
    assert run([command, *args, _flag(key), value, "--out", out]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert run([command, *args, "--config", _config(tmp_path, {key: value}),
                "--out", out]) == EXIT_CONFIG
    assert f"field {key}" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_over_n_of_a_hypergraph_game_exits_2(tmp_path, capsys):
    # every row would scan one and the same game
    out = tmp_path / "o.csv"
    assert run(["min-samples", *HG, "--eps", "0.3", "--budget", "1", "--sweep", "n=20,30",
                "--out", out]) == EXIT_CONFIG
    assert "field n" in capsys.readouterr().err
    assert not out.exists()


def test_cdf_names_the_stopping_rules_it_takes(tmp_path, capsys):
    assert run(["cdf", *BASE["cdf"], "--stopping", "adaptive", "--eps", "0.5", "--delta", "0.5",
                "--out", tmp_path / "o.csv"]) == EXIT_CONFIG
    assert "cdf needs a fixed, known or unknown stopping rule" in capsys.readouterr().err


def test_merged_config_holds_typed_defaults():
    cfg = _merge_config(build_parser().parse_args(["simulate"]))
    assert (cfg["seed"], cfg["budget"], cfg["M"], cfg["block_greedy"], cfg["eps"]) == (
        0, 0.0, 1, False, None)


def test_readme_flag_lists_match_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Every subcommand takes"):readme.index("A config file may")]
    common, beyond = section.split("Beyond those:")
    flags = re.compile(r"`(--[\w-]+)`")
    documented = {}
    for item in beyond.split("\n- ")[1:]:
        name = re.match(r"`([\w-]+)`", item).group(1)
        documented[name] = set(flags.findall(common)) | set(flags.findall(item))
    registered = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
                  for name, p in SUBCOMMANDS.items()}
    assert documented == registered


def test_cdf_builds_dp_table_once_for_all_runs(tmp_path, monkeypatch):
    import shapsim.cli

    calls = []
    real = shapsim.cli.dp_build

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shapsim.cli, "dp_build", counting)
    assert run(["cdf", "--game", "lb", "--n", "6", "--protocol", "seq", "--adversary", "dp",
                "--budget", "1", "--punish", "perpetual", "--R", "8", "--M", "3",
                "--seed", "2", "--out", tmp_path / "c.csv"]) == EXIT_OK
    assert len(calls) == 1
    rows = [l for l in read(tmp_path / "c.csv").splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 3


CDF_DP = ["cdf", "--game", "lb", "--n", "6", "--protocol", "seq", "--adversary", "dp",
          "--budget", "2", "--R", "12", "--M", "40", "--seed", "4"]


def _count_slice_builds(monkeypatch) -> list:
    from shapsim.dp import DPTable

    calls = []
    real = DPTable._row

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(DPTable, "_row", counting)
    return calls


def test_cdf_dp_builds_each_slice_once(tmp_path, monkeypatch):
    calls = _count_slice_builds(monkeypatch)
    assert run(CDF_DP + ["--out", tmp_path / "c.csv"]) == EXIT_OK
    assert len(calls) == 12  # R rows; the lockstep runs read decision records only


@pytest.mark.parametrize("fixed, sweep, alone", [
    (["--eps", "0.05"], "C=1,2,4", ["--budget", "4"]),  # the README command
    (["--budget", "2"], "eps=0.1,0.05,0.025", ["--eps", "0.025"]),
], ids=["C", "eps"])
def test_min_samples_sweep_builds_one_table(tmp_path, monkeypatch, fixed, sweep, alone):
    # a sweep over one game scans every row over one table at the largest
    # budget, so it builds no more rows than its longest scan alone
    calls = _count_slice_builds(monkeypatch)
    base = ["min-samples", "--game", "lb", "--n", "10", *fixed]
    assert run(base + ["--sweep", sweep, "--out", tmp_path / "sweep.csv"]) == EXIT_OK
    swept = len(calls)
    calls.clear()
    assert run(base + alone + ["--out", tmp_path / "alone.csv"]) == EXIT_OK
    assert 0 < swept <= len(calls), (swept, len(calls))


def test_decision_records_write_the_value_rule_bytes(tmp_path, monkeypatch):
    # both engines play DPTable.abort_rule; swapping in the plain-loop rule
    # on value slices rebuilt from the boundary rows changes no output byte
    from oracles import _counts_of, abort_class
    from shapsim.dp import DPTable

    looked_up = []

    def value_rule(table, lo, hi):
        space, slices = table.space, {}

        def rule(T, sid, d, c):
            cells = np.broadcast_arrays(T, sid, d, c)
            out = []
            for tt, s, dd, cc in zip(*(a.ravel().tolist() for a in cells)):
                assert lo <= tt < hi and cc <= table.C
                if tt not in slices:
                    slices[tt] = table.slice_at(tt)
                    looked_up.append(tt)
                counts = _counts_of(space, s)
                out.append(abort_class(space, slices[tt], s, counts, dd, cc) if counts[dd] else -1)
            return np.array(out).reshape(cells[0].shape)
        return rule

    simulate = ["simulate", "--game", "lb", "--n", "6", "--protocol", "seq",
                "--adversary", "dp", "--budget", "2", "--R", "30", "--seed", "9"]
    for args in (CDF_DP, simulate):
        assert run(args + ["--out", tmp_path / "record.csv"]) == EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(DPTable, "abort_rule", value_rule)
            looked_up.clear()
            assert run(args + ["--out", tmp_path / "values.csv"]) == EXIT_OK
            assert looked_up
        assert read(tmp_path / "record.csv") == read(tmp_path / "values.csv")


@pytest.mark.parametrize("command", [
    ["simulate", "--protocol", "seq"],
    ["cdf", "--protocol", "seq", "--M", "5"],
], ids=["simulate", "cdf"])
def test_dp_runs_build_each_row_once_at_600_samples(tmp_path, monkeypatch, command):
    import shapsim.cli

    tables = []
    real = shapsim.cli.dp_build

    def keeping(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(shapsim.cli, "dp_build", keeping)
    calls = _count_slice_builds(monkeypatch)
    assert run(command + ["--game", "lb", "--n", "6", "--adversary", "dp", "--budget", "1",
                          "--R", "600", "--seed", "3", "--out", tmp_path / "s.csv"]) == EXIT_OK
    assert len(calls) == 600
    assert len(tables) == 1 and len(tables[0].decisions) == 600
    assert len({id(record) for record in tables[0].decisions}) < 600  # shared records


@pytest.mark.parametrize("args, expect", [
    (CDF_DP, lambda m: (m["dp.rows_built"] == 12  # R
                        and m["dp.slices_rebuilt"] == 0 and m["dp.lockstep_s"] > 0)),
    (["simulate", "--game", "lb", "--n", "10", "--protocol", "seq", "--adversary", "passive",
      "--R", "5", "--seed", "4"],
     lambda m: m["protocols.elim_rounds"] == 50),  # n rounds per P-sample, none aborted
    (["simulate", "--game", "pair", "--n", "4", "--i-star", "3", "--j-star", "2",
      "--protocol", "naive", "--adversary", "cyclic", "--budget", "100", "--R", "50",
      "--seed", "4"],
     lambda m: m["adversaries.aborts"] == m["protocols.violations"] > 0),
], ids=["cdf", "simulate-seq", "simulate-naive"])
def test_bench_tracer_wraps_the_names_it_traces(tmp_path, args, expect):
    # bench/tracing.py patches library names by string and reads the hook
    # contract; a renamed name or a changed contract would only show when
    # the benchmark runs
    assert run(args + ["--out", tmp_path / "plain.csv"]) == EXIT_OK
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "tracing.py"),
                           "--metrics-out", str(tmp_path / "m.json"), "--",
                           *args, "--out", str(tmp_path / "traced.csv")],
                          env=SRC_ENV, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    metrics = json.loads(read(tmp_path / "m.json"))
    assert expect(metrics), metrics


# --- committed demo outputs -----------------------------------------------------------------

DEMO_OUT = ROOT / "demos" / "out"


@pytest.mark.parametrize("name, args", [
    ("lb10_values.csv", ["shapley", "--game", "lb", "--n", "10"]),
    ("min_samples_vs_budget.csv", ["min-samples", "--game", "lb", "--n", "10", "--eps", "0.05",
                                   "--sweep", "C=1,2,4"]),
    ("min_samples_vs_eps.csv", ["min-samples", "--game", "lb", "--n", "10", "--budget", "2",
                                "--sweep", "eps=0.1,0.05,0.025"]),
    ("min_samples_vs_n_lb.csv", ["min-samples", "--game", "lb", "--eps", "0.05",
                                 "--budget", "2", "--sweep", "n=8,12,16"]),
    ("min_samples_collab.csv", ["min-samples", "--hypergraph", DATA, "--honest", "0",
                                "--padding", "6", "--eps", "0.1", "--budget", "2"]),
    ("run_record.csv", ["simulate", "--game", "lb", "--n", "8", "--protocol", "seq",
                        "--adversary", "dp", "--budget", "2", "--R", "200", "--seed", "13"]),
    ("cdf_lb8.csv", ["cdf", "--game", "lb", "--n", "8", "--protocol", "seq", "--adversary", "dp",
                     "--stopping", "known", "--budget", "2", "--eps", "0.2", "--delta", "0.1",
                     "--M", "300", "--seed", "12"]),
])
def test_demo_05_outputs_match_committed_goldens(tmp_path, name, args):
    # the same commands as demos/05_sampling_experiments.py
    assert run(args + ["--out", tmp_path / name]) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (DEMO_OUT / name).read_bytes()


@pytest.mark.parametrize("name", ["01_games_and_exact_values", "02_permutation_protocols",
                                  "03_budgets_attacks_and_stopping", "04_optimal_adversary"])
def test_demo_stdout_matches_committed_golden(name):
    done = subprocess.run([sys.executable, str(DEMO_OUT.parent / f"{name}.py")], env=SRC_ENV,
                          capture_output=True, check=True)
    assert done.stdout == (DEMO_OUT / f"{name}.txt").read_bytes()
