import os
from pathlib import Path

import numpy as np
import pytest

from shapsim.cli import EXIT_CAP, EXIT_CONFIG, EXIT_OK, main

DATA = Path(__file__).resolve().parent.parent / "data" / "collab_reconstruction.hg"


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
        min_r, _ = min_samples_scan(game, 0, C=1, eps=0.1, r_max=300)
        results.append(min_r)
    assert max(results) <= 1.15 * min(results), results


def test_min_samples_third_constant_at_reduced_scale():
    # the scan lands near one third of C * gamma / eps on the synthetic
    # game, using its conventional gamma = n
    from shapsim.cli import min_samples_scan
    from shapsim import make_lb_game

    n, C, eps = 20, 2, 0.05
    min_r, _ = min_samples_scan(make_lb_game(n), 0, C=C, eps=eps, r_max=2000)
    target = (1 / 3) * C * n / eps
    assert abs(min_r - target) <= 0.25 * target, (min_r, target)


def test_cdf_jobs_fanout_deterministic(tmp_path):
    out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    base = ["cdf", "--game", "pair", "--n", "3", "--protocol", "naive",
            "--adversary", "passive", "--R", "30", "--M", "20",
            "--eps", "0.5", "--delta", "0.5", "--seed", "3"]
    assert run(base + ["--jobs", "1", "--out", out1]) == EXIT_OK
    assert run(base + ["--jobs", "2", "--out", out2]) == EXIT_OK
    assert read(out1) == read(out2)


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
    import shapsim.dp

    calls = []
    real = shapsim.dp._build_slice

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shapsim.dp, "_build_slice", counting)
    return calls


def test_cdf_dp_builds_each_slice_once(tmp_path, monkeypatch):
    calls = _count_slice_builds(monkeypatch)
    assert run(CDF_DP + ["--out", tmp_path / "c.csv"]) == EXIT_OK
    assert len(calls) == 12  # R rows, each slice kept for the lockstep runs


def test_slice_rebuild_path_writes_same_bytes(tmp_path, monkeypatch):
    import shapsim.dp

    simulate = ["simulate", "--game", "lb", "--n", "6", "--protocol", "seq",
                "--adversary", "dp", "--budget", "2", "--R", "30", "--seed", "9"]
    for args in (CDF_DP, simulate):
        assert run(args + ["--out", tmp_path / "kept.csv"]) == EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(shapsim.dp, "SLICE_STORE_BYTES", 0)
            calls = _count_slice_builds(m)
            assert run(args + ["--out", tmp_path / "rebuilt.csv"]) == EXIT_OK
            assert len(calls) > int(args[args.index("--R") + 1])  # slices were rebuilt
        assert read(tmp_path / "kept.csv") == read(tmp_path / "rebuilt.csv")


def test_simulate_dp_keeps_slices_beyond_512_samples(tmp_path, monkeypatch):
    import shapsim.cli

    tables = []
    real = shapsim.cli.dp_build

    def keeping(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(shapsim.cli, "dp_build", keeping)
    assert run(["simulate", "--game", "lb", "--n", "6", "--protocol", "seq", "--adversary", "dp",
                "--budget", "1", "--R", "600", "--seed", "3", "--out", tmp_path / "s.csv"]) == EXIT_OK
    assert len(tables) == 1
    assert tables[0].slices is not None and len(tables[0].slices) == 600


# --- committed demo outputs -----------------------------------------------------------------

DEMO_OUT = Path(__file__).resolve().parent.parent / "demos" / "out"


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
