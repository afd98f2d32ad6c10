import importlib.util
import json
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from esdirkopt import bench, sqp
from esdirkopt.bench import (COLUMNS, RunConfig, RunStats, config_from,
                             emit_report, make_problem, parse_config_file,
                             run_low_tol_experiment, run_single, run_sweep,
                             sqp_settings, stats_from_json, stats_to_csv,
                             stats_to_json)
from esdirkopt.cli import RUN_FLAGS, main
from esdirkopt.errors import ConfigError
from esdirkopt.nlp import DecisionVector
from esdirkopt.sensitivity import SensitivityMode
from esdirkopt.sqp import solve_ocp


def quick_config(**kwargs):
    kwargs.setdefault("Nc", 6)
    kwargs.setdefault("N", 2)
    kwargs.setdefault("method", "esdirk23")
    return RunConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(method="rk4").validate()
    with pytest.raises(ConfigError):
        RunConfig(sens="adjoint").validate()
    with pytest.raises(ConfigError):
        RunConfig(N=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(Ts=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_sqp=-1.0).validate()
    for name in ("N", "Nc", "Ts", "init_value", "tau"):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: True}).validate()
    assert RunConfig().validate() is not None


def test_config_fields_are_what_a_run_varies():
    # a flag sets each field, or the benchmark perturbs it (x0, init_value)
    flagged = {name for _, name, _, _ in RUN_FLAGS}
    assert {f.name for f in fields(RunConfig)} \
        == flagged | {"x0", "init_value"}
    assert np.array_equal(RunConfig().x0, bench.X0)
    assert RunConfig().x0 is not bench.X0


def test_problems_do_not_share_the_experiment_constants():
    config = RunConfig(Nc=4)
    first = make_problem(config)
    constants = {"x0": bench.X0, "Qz": bench.QZ, "Qdu": bench.QDU,
                 "u_min": bench.U_MIN, "u_max": bench.U_MAX,
                 "u_prev": bench.U_PREV, "d": bench.D}
    for name in constants:
        getattr(first, name)[...] = -np.inf
    first.setpoint.first[...] = first.setpoint.second[...] = np.nan
    config.x0[...] = 0.0
    second = make_problem(RunConfig(Nc=4))
    for name, value in constants.items():
        assert np.array_equal(getattr(second, name), value), name
    assert np.array_equal(second.u_min, [0.0, 0.0])
    assert np.array_equal(second.setpoint.first, bench.SETPOINT_FIRST)
    assert np.array_equal(second.setpoint.second, bench.SETPOINT_SECOND)
    assert np.array_equal(second.setpoint([0.0, 30.0]), [[20.0, 30.0],
                                                         [30.0, 20.0]])


def test_mode_property():
    assert RunConfig(sens="iterated").mode is SensitivityMode.ITERATED
    assert RunConfig(sens="direct").mode is SensitivityMode.DIRECT
    assert RunConfig(sens="base").mode is SensitivityMode.BASE_DIRECT


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark setup\n"
        "method = esdirk34   # trailing comment\n"
        "N = 7\n"
        "Ts = 5.0\n"
        "\n"
        "x0 = [7000.0, 11000.0, 1000.0, 1000.0]\n"
        "sens = direct\n")
    values = parse_config_file(str(path))
    assert values["method"] == "esdirk34"
    assert values["N"] == 7 and isinstance(values["N"], int)
    assert values["Ts"] == 5.0
    assert np.array_equal(values["x0"], [7000.0, 11000.0, 1000.0, 1000.0])
    config = config_from(values)
    assert config.method == "esdirk34"
    assert config.sens == "direct"
    assert np.array_equal(config.x0, values["x0"])


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("method esdirk12\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config_file(str(bad))
    bad.write_text("steps = 5\n")          # the field is named N
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(str(bad))
    bad.write_text("x0 = [10.0, oops]\n")
    with pytest.raises(ConfigError, match="bad array"):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_config_from_type_checks():
    with pytest.raises(ConfigError, match="expected integer"):
        config_from({"N": 2.5})
    # a key must name a field, not a method or property
    for key in ("banana", "mode", "validate", "qz"):
        with pytest.raises(ConfigError, match="unknown config field"):
            config_from({key: 1})
    assert config_from({"N": 3}).N == 3


def test_run_single_returns_stats():
    stats = run_single(quick_config())
    assert stats.converged
    assert stats.method == "esdirk23"
    assert stats.N == 2
    assert stats.kkt <= 1e-3
    assert stats.f_evals > 0
    assert stats.wall_time > 0.0


def test_run_single_is_deterministic():
    a = run_single(quick_config())
    b = run_single(quick_config())
    assert a.as_dict(include_walltime=False) \
        == b.as_dict(include_walltime=False)


def test_run_single_writes_trajectory(tmp_path):
    config = quick_config()
    run_single(config, out_dir=str(tmp_path / "traj"))
    path = tmp_path / "traj" / "trajectory_esdirk23_iterated_N2.csv"
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,z1,z2,zbar1,zbar2,u1,u2"
    assert len(lines) == config.Nc + 1


def test_sweep_covers_grid_and_keeps_failures(monkeypatch):
    # a one-iteration budget cannot converge: rows must still come out
    monkeypatch.setattr(sqp, "MAX_SQP_ITER", 1)
    stats = run_sweep(quick_config(), n_list=(np.int64(1), 2))
    assert [(s.method, s.sens, s.N) for s in stats] == [
        (m, sens, n) for m in ("esdirk12", "esdirk23", "esdirk34")
        for sens in ("iterated", "direct", "base") for n in (1, 2)]
    assert all(type(s.N) is int for s in stats)        # for the JSON report
    assert not any(s.converged for s in stats)
    with pytest.raises(ValueError):
        run_sweep(quick_config(), n_list=())
    # an N that is no integer, or is a bool, is not truncated
    for n in (2.5, True):
        with pytest.raises(ConfigError, match="N"):
            run_sweep(quick_config(), n_list=(n,))


def test_sweep_streams_rows_as_solved(monkeypatch):
    events = []

    def solve(config):
        events.append(("solved", config.N))
        return RunStats(config.method, config.sens, config.N, True, 1, 1,
                        0.0, 1, 1, 1, 1, 0.0)

    monkeypatch.setattr(bench, "run_single", solve)
    rows = run_sweep(quick_config(), n_list=(1, 2, 3),
                     row_sink=lambda s: events.append(("sink", s.N)))
    assert [s.N for s in rows] == [1, 2, 3] * 9
    assert events == [(event, n) for n in [1, 2, 3] * 9
                      for event in ("solved", "sink")]


@pytest.mark.parametrize("command, runner", [
    ("sweep", run_sweep), ("lowtol", run_low_tol_experiment)])
def test_cli_streams_csv_rows_as_solved(monkeypatch, capsys, command,
                                        runner):
    # each solve starts after the row before it reached stdout
    seen = []

    def solve(config):
        seen.append(capsys.readouterr().out)
        return RunStats(config.method, config.sens, config.N, True, 1, 1,
                        0.5, 1, 1, 1, 1, 0.25)

    monkeypatch.setattr(bench, "run_single", solve)
    rows = runner(RunConfig(Nc=1))
    seen.clear()
    assert main([command, "--nc", "1"]) == 0
    seen.append(capsys.readouterr().out)
    lines = stats_to_csv(rows).splitlines(keepends=True)
    assert seen == ["", lines[0] + lines[1]] + lines[2:]
    # JSON is written once all rows are in
    seen.clear()
    assert main([command, "--nc", "1", "--format", "json"]) == 0
    assert seen == [""] * len(rows)
    assert capsys.readouterr().out == stats_to_json(rows)


def test_stats_csv_format():
    stats = [RunStats("esdirk12", "direct", 5, False, 3, 7, 0.25,
                      10, 11, 12, 13, 1.5)]
    text = stats_to_csv(stats)
    header, row = text.strip().split("\n")
    assert header == ",".join(COLUMNS)
    cells = row.split(",")
    assert cells[:4] == ["esdirk12", "direct", "5", "false"]
    assert cells[6] == format(0.25, ".17e")
    text2 = stats_to_csv(stats, include_walltime=False)
    assert "wall_time" not in text2


def test_stats_json_roundtrip():
    stats = [RunStats("esdirk34", "base", 10, True, 4, 9, 1e-4,
                      100, 101, 102, 103, 2.0)]
    back = stats_from_json(stats_to_json(stats))
    assert back[0] == stats[0]
    # without wall_time the field defaults to zero on the way back
    back2 = stats_from_json(stats_to_json(stats, include_walltime=False))
    assert back2[0].wall_time == 0.0
    assert back2[0].kkt == 1e-4


def test_emit_report_writes_grouped_files(tmp_path):
    stats = [RunStats("esdirk12", "iterated", 5, True, 1, 1, 0.0,
                      1, 1, 1, 1, 0.1),
             RunStats("esdirk23", "iterated", 5, True, 1, 1, 0.0,
                      1, 1, 1, 1, 0.1)]
    out = tmp_path / "report"
    paths = emit_report(stats, str(out), fmt="json")
    assert [os.path.basename(p) for p in paths] == [
        "stats.json", "stats_esdirk12.json", "stats_esdirk23.json"]
    table = json.loads((out / "stats.json").read_text())
    assert len(table) == 2
    group = json.loads((out / "stats_esdirk23.json").read_text())
    assert len(group) == 1 and group[0]["method"] == "esdirk23"
    with pytest.raises(ValueError):
        emit_report([], str(out))
    with pytest.raises(ValueError):
        emit_report(stats, str(out), fmt="xml")


def test_cli_solve_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--method", "esdirk23", "--nc", "6", "--steps", "2",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert len(table) == 1 and table[0]["converged"] is True
    # re-emit the saved table as CSV without the wall_time column
    code = main(["report", str(out / "stats.json"),
                 "--format", "csv", "--no-walltime"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith(",".join(COLUMNS[:-1]))
    assert len(text.strip().split("\n")) == 2


def test_cli_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = esdirk12\nNc = 6\nN = 4\n")
    code = main(["solve", "--config", str(cfg), "--steps", "2"])
    assert code == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[0] == "esdirk12"
    assert row[2] == "2"                   # the flag overrides the file


def test_cli_solves_unbounded_inputs():
    config = RunConfig(Nc=6, N=2)
    problem = replace(make_problem(config), u_min=np.full(2, -np.inf))
    result = solve_ocp(problem, sqp_settings(config),
                       DecisionVector.filled(config.init_value, 4, 2, 6))
    assert result.converged


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("N = 0\n")
    assert main(["solve", "--config", str(bad)]) == 2
    assert main(["report", str(tmp_path / "missing.json")]) == 3
    empty = tmp_path / "empty.json"
    empty.write_text("[]\n")
    assert main(["report", str(empty)]) == 2
    # a table is a list of row objects whose fields have their column types
    row = {"method": "esdirk12", "sens": "iterated", "N": 5,
           "converged": True, "sqp_iters": 1, "qp_iters": 1, "kkt": 0.5,
           "f_evals": 1, "jac_x_evals": 1, "jac_u_evals": 1,
           "lu_factorizations": 1}
    rows = [{**row, "N": "x", "converged": 1, "kkt": "a"},
            {**row, "N": "x"}, {**row, "N": 5.0}, {**row, "kkt": "a"},
            {**row, "converged": 1}, {**row, "sqp_iters": True},
            {**row, "method": "rk4"}, {**row, "sens": "adjoint"}]
    texts = ["[1, 2]", '["x"]', '{"a": 1}'] + [json.dumps([r]) for r in rows]
    for k, text in enumerate(texts):
        table = tmp_path / f"table{k}.json"
        table.write_text(text + "\n")
        assert main(["report", str(table)]) == 2, text
    table.write_text(json.dumps([{**row, "kkt": 0}]) + "\n")
    assert main(["report", str(table)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sweep", "--method", "esdirk12"], ["sweep", "--sens", "direct"],
    ["sweep", "--steps", "3"], ["lowtol", "--steps", "3"],
    ["lowtol", "--ts", "1"], ["lowtol", "--tol-sqp", "1e-3"],
    ["lowtol", "--tol-qp", "1e-3"], ["lowtol", "--abs", "1e-3"],
    ["lowtol", "--rel", "1e-3"], ["report", "x.json", "--nc", "2"]])
def test_cli_rejects_flags_the_command_sets(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("sweep", "N = 5"), ("sweep", "method = esdirk12"),
    ("sweep", "sens = direct"), ("lowtol", "Ts = 1.0"),
    ("lowtol", "rel = 1e-6")])
def test_cli_rejects_config_keys_the_command_sets(tmp_path, capsys, command,
                                                  line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"Nc = 1\n{line}\n")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{line.split()[0]}: set by the {command} command" in err


def test_cli_lowtol_jobs_give_the_same_rows(capsys):
    argv = ["lowtol", "--nc", "1", "--no-walltime"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert len(serial.strip().split("\n")) == 1 + 9


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["sweep", "lowtol"])
def test_cli_rejects_worker_counts_below_one(capsys, command, jobs):
    assert main([command, "--nc", "1", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""                  # no row was solved
    assert f"jobs: expected integer >= 1, got {jobs}" in captured.err


def test_run_sweep_rejects_worker_counts_below_one():
    for jobs in (0, -3, 1.5, "2", True):
        with pytest.raises(ConfigError):
            run_sweep(quick_config(), jobs=jobs)


# a bad value for a field names the field
BAD_VALUE_LINES = ["Ts = abc", "tol_qp = [1, 2]", "tau = 2.0",
                   "tol_step = 2.0", "x0 = [1, 2]", "x0 = [nan, 1, 1, 1]",
                   "method = rk4", "sens = adjoint", "N = 2.5", "Nc = 0",
                   "init_value = nan", "tol_sqp = 0", "abs = inf",
                   "rel = -1"]
# a key for a constant of the experiment, or for a method or property of
# RunConfig, is an unknown key: one case per such key
UNKNOWN_KEY_LINES = [
    "qz = [1, 2, 3]", "qdu = [0.1, 0.1, 0.1]", "d = 5", "u_prev = [300]",
    "u_min = [0, 0, 0]", "u_max = [nan, 500]", "setpoint_first = [-inf, 30]",
    "setpoint_second = [30]", "max_sqp_iter = 0", "mode = iterated",
    "validate = 1"]


@pytest.mark.parametrize("line", BAD_VALUE_LINES + UNKNOWN_KEY_LINES)
def test_cli_rejects_malformed_config(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    key, err = line.split()[0], capsys.readouterr().err
    if line in UNKNOWN_KEY_LINES:
        assert f"unknown key {key!r}" in err
    else:
        assert f"{key}:" in err


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_compares_matching_rows_only():
    bench_pairs = load_bench_pairs()

    def row(method, N, sqp_iters, kkt):
        return dict(dict.fromkeys(bench_pairs.COUNTS, 0), method=method,
                    sens="direct", N=N, sqp_iters=sqp_iters, kkt=repr(kkt))

    base = {"rows": [row("esdirk12", 5, 7, 1e-4),
                     row("esdirk12", 10, 9, 2e-4)]}
    change = {"rows": [row("esdirk12", 5, 8, 1e-4),
                       row("esdirk12", 10, 9, 3e-4)]}
    moved, kkt_rel = bench_pairs.moved_rows(base, change)
    assert moved == [{"row": "esdirk12/direct/N=5", "sqp_iters": [7, 8]}]
    assert kkt_rel == pytest.approx(0.5)
    for rows in (change["rows"][:1], change["rows"][::-1],
                 [row("esdirk23", 5, 7, 1e-4), change["rows"][1]]):
        with pytest.raises(ValueError):
            bench_pairs.moved_rows(base, {"rows": rows})


def test_bench_pairs_names_failing_and_diverging_runs():
    bench_pairs = load_bench_pairs()

    def run(seed, correct, digest):
        return {"seed": seed, "correct": correct, "digest": digest}

    # the change runs first in odd pairs; seeds are named, not pair indices
    runs = [{"pair": 0, "base": run(1, True, "a"),
             "change": run(1, True, "a")},
            {"pair": 1, "change": run(2, False, "b"),
             "base": run(2, False, "b")},
            {"pair": 2, "base": run(3, True, "c"),
             "change": run(3, False, "d")},
            {"pair": 3, "change": run(4, True, "e"),
             "base": run(4, True, "f")}]
    assert bench_pairs.runs_to_check(runs) == {
        "incorrect": {"base": [2], "change": [2, 3]},
        "digest_differs": [3, 4]}
    assert bench_pairs.runs_to_check(runs[:1]) == {
        "incorrect": {"base": [], "change": []}, "digest_differs": []}
