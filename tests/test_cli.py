import argparse
import csv
import gc
import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from addcoal import cli, experiment
from addcoal.cli import RunConfig, UsageError, parse_config, serialize_config
from addcoal.smoluchowski import _choose_kmax, alpha_to_time


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_config_round_trip():
    config = RunConfig(
        command="simulate",
        n=(5000,),
        embedding="parking",
        functionals=("qf", "prey"),
        reps=12,
        seed=99,
        alpha_grid=(0.1, 0.55),
        beta_grid=(0.0, 1.25),
        tol=1e-7,
        fmt="json",
        out="x.json",
        raw_out="raw.csv",
        workers=2,
        eps=0.2,
        table="dp",
        only=("borel-limit", "pmk-exact"),
        mutate=("pmk",),
    )
    unset = [f.name for f in fields(RunConfig) if getattr(config, f.name) == f.default]
    assert unset == []
    assert parse_config(serialize_config(config)) == config


_DEFAULT_SIMULATE_TEXT = "".join(line + "\n" for line in (
    "command = simulate",
    "n = 1000",
    "embedding = direct",
    "functional = qf,qfw,qfb,prey,predator,displacement",
    "reps = 1",
    "seed = 0",
    "alpha-grid = 0.050000000000000003,0.10000000000000001,0.14999999999999999,"
    "0.20000000000000001,0.25,0.29999999999999999,0.34999999999999998,0.40000000000000002,"
    "0.45000000000000001,0.5,0.55000000000000004,0.59999999999999998,0.65000000000000002,"
    "0.69999999999999996,0.75,0.80000000000000004,0.84999999999999998,0.90000000000000002,"
    "0.94999999999999996",
    "beta-grid = 0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3,3.25,3.5,3.75,4",
    "tol = 1e-08",
    "format = csv",
    "out = ",
    "raw-out = ",
    "workers = 1",
    "eps = 0.14999999999999999",
    "table = ",
    "only = ",
    "mutate = ",
))


def test_default_config_text_is_stable():
    # config files written by earlier versions must keep parsing the same way
    assert serialize_config(RunConfig("simulate")) == _DEFAULT_SIMULATE_TEXT
    assert parse_config(_DEFAULT_SIMULATE_TEXT) == RunConfig("simulate")


def test_every_field_has_one_flag_named_by_its_key():
    text = serialize_config(RunConfig("simulate"))
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    fields_by_key = dict(zip(keys, (f.name for f in fields(RunConfig))))
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names_by_dest = {}
    for sub in subparsers.choices.values():
        for action in sub._actions:
            if action.dest in ("help", "config"):
                continue
            names = action.option_strings or [action.dest]
            names_by_dest.setdefault(action.dest, set()).update(names)
    assert set(names_by_dest) == set(fields_by_key.values()) - {"command"}
    for key, name in fields_by_key.items():
        if name != "command":
            assert names_by_dest[name] in ({f"--{key}"}, {key})


def test_every_choice_is_checked_as_a_config_line_and_as_a_flag(tmp_path, capsys):
    # a field's choices are its only list of accepted values: a value
    # outside them is a usage error that names the key
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "x.csv"
    checked = []
    for f in fields(RunConfig):
        if not f.metadata.get("choices"):
            continue
        key = cli._key(f)
        cfg.write_text(f"command = simulate\n{key} = nope\n")
        command = next(c for c, (_, _, names) in cli.COMMANDS.items() if f.name in names)
        flag = ["exact", "nope", "--n", "3"] if f.name == "table" else [command, f"--{key}", "nope"]
        for args in (["simulate", "--config", cfg, "--n", "10"], flag):
            assert run_cli(args + ["--out", out]) == 1, args
            err = _stderr_json(capsys)
            assert err["kind"] == "usage" and key in err["error"], (args, err)
        checked.append(key)
    assert checked == ["embedding", "functional", "format", "table"]
    assert not out.exists()


def test_each_command_s_help_shows_its_fields_help_and_choices(capsys):
    for command, (_, _, names) in cli.COMMANDS.items():
        capsys.readouterr()
        assert run_cli([command, "--help"]) == 0
        shown = "".join(capsys.readouterr().out.split())
        for name in names:
            f = cli._FIELDS[name]
            assert "".join(f.metadata.get("help", "").split()) in shown, (command, name)
            if f.metadata.get("choices"):
                assert "{" + ",".join(f.metadata["choices"]) + "}" in shown, (command, name)


def test_readme_command_table_matches_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.fullmatch(r"\| `(\w+)( \{[^}]*\})?` \| `([^`]*)` \|", line).groups()
            for line in table.splitlines()]
    assert [command for command, _, _ in rows] == list(cli.COMMANDS)
    for command, positional, flags in rows:
        names = cli.COMMANDS[command][2]
        listed = re.findall(r"--([\w-]+)( \{[^}]*\})?", flags)
        assert [key for key, _ in listed] == \
            [cli._key(cli._FIELDS[name]) for name in names if name != "table"], command
        assert bool(positional) == ("table" in names), command
        for key, shown in dict(listed, table=positional).items():
            if shown:
                choices = cli._FIELD_BY_KEY[key].metadata.get("choices")
                assert shown.strip()[1:-1].split(",") == list(choices or ()), (command, key)


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.cfg", tmp_path):
        assert run_cli(["simulate", "--config", path, "--n", "10"]) == 1, path
        err = _stderr_json(capsys)
        assert err["kind"] == "usage" and str(path) in err["error"], err


def test_config_unknown_key_rejected():
    with pytest.raises(UsageError):
        parse_config("command = simulate\nbogus = 1\n")


def test_config_requires_command():
    with pytest.raises(UsageError):
        parse_config("n = 10\n")


def test_config_key_given_twice_is_a_usage_error(tmp_path, capsys):
    # a repeated key is ambiguous; a flag setting the same key does not excuse it
    for text, key in (("command = simulate\nn = 50\nreps = 2\nn = 60\n", "n"),
                      ("command = simulate\nfunctional = qf\n\nfunctional = prey\n", "functional")):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        assert run_cli(["simulate", "--config", cfg, "--n", "10"]) == 1, key
        err = _stderr_json(capsys)
        assert err["kind"] == "usage", err
        assert err["error"] == f"config lines 2 and 4 both set {key!r}", err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = simulate\nn = 2\nreps = 2\nseed = 5\nalpha-grid = 0.5\nbeta-grid =\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out2, "--seed", "6"]) == 0
    rows1, rows2 = read_csv(out1), read_csv(out2)
    assert {r["seed"] for r in rows1} == {"5"}
    assert {r["seed"] for r in rows2} == {"6"}


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli(["simulate", "--n", "2", "--functional", "nope"]) == 1
    assert run_cli(["exact", "pmk", "--n", "1"]) == 1
    assert run_cli(["exact", "condr", "--n", "50"]) == 1  # beyond the DP cap
    bad = tmp_path / "bad.cfg"
    bad.write_text("command = simulate\nwat = 1\n")
    assert run_cli(["simulate", "--config", bad]) == 1
    # errors argparse finds itself are reported in the same JSON line
    # a flag the subcommand does not read is unknown to it
    for args in (["simulate", "--n", "2", "--bogus"], ["simulate", "--embedding", "nope"], [],
                 ["verify", "--only", "borel-limit", "--format", "csv", "--n", "7", "--reps", "9"],
                 ["exact", "pmk", "--n", "4", "--alpha-grid", "2"]):
        capsys.readouterr()
        assert run_cli(args) == 1
        assert _stderr_json(capsys)["kind"] == "usage"
    assert run_cli(["--version"]) == 0
    assert run_cli(["simulate", "--help"]) == 0


def test_simulate_trivial_n2(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--n", "2", "--reps", "1", "--seed", "3", "--out", out]) == 0
    rows = read_csv(out)
    totals = {r["functional"]: float(r["mean"]) for r in rows if r["kind"] == "total"}
    assert totals == {
        "qf": 1.0, "qfw": 1.0, "qfb": 1.0, "prey": 1.0, "predator": 1.0,
        "displacement": 0.0,
    }
    assert {r["version"] for r in rows} == {cli.__version__}


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--n", "500", "--reps", "4", "--seed", "11"]
    p1, p2, p3 = (tmp_path / f"{i}.csv" for i in range(3))
    assert run_cli(args + ["--workers", "1", "--out", p1]) == 0
    assert run_cli(args + ["--workers", "1", "--out", p2]) == 0
    assert run_cli(args + ["--workers", "4", "--out", p3]) == 0
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_simulate_names_its_workers_on_stderr(tmp_path, capsys):
    args = ["simulate", "--n", "60", "--reps", "3", "--seed", "11", "--embedding", "parking"]
    outs, records = [], []
    for workers in (1, 2):
        out = tmp_path / f"{workers}.csv"
        assert run_cli(args + ["--workers", str(workers), "--out", out]) == 0
        outs.append(out.read_bytes())
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        records.append(json.loads(err[0]))
    assert outs[0] == outs[1]
    for workers, record in zip((1, 2), records):
        assert record == {"seed": 11, "n": 60, "reps": 3, "embedding": "parking",
                          "version": cli.__version__, "backend": "python", "workers": workers}


def test_csv_and_json_carry_identical_values(tmp_path):
    base = ["simulate", "--n", "300", "--reps", "3", "--seed", "21"]
    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    assert run_cli(base + ["--format", "csv", "--out", out_csv]) == 0
    assert run_cli(base + ["--format", "json", "--out", out_json]) == 0
    csv_rows = read_csv(out_csv)
    json_rows = json.loads(out_json.read_text())["rows"]
    assert len(csv_rows) == len(json_rows)
    for cr, jr in zip(csv_rows, json_rows):
        for key, jv in jr.items():
            cv = cr[key]
            if isinstance(jv, float):
                if math.isnan(jv):
                    assert cv == "nan"
                else:
                    assert float(cv) == jv
            else:
                assert cv == str(jv)


def test_raw_output_stream(tmp_path):
    out = tmp_path / "sum.csv"
    raw = tmp_path / "raw.csv"
    assert run_cli(
        ["simulate", "--n", "100", "--reps", "2", "--seed", "1", "--functional", "qf",
         "--alpha-grid", "0.5", "--beta-grid", "0", "--out", out, "--raw-out", raw]
    ) == 0
    lines = raw.read_text().strip().splitlines()
    assert lines[0] == "rep,functional,kind,point,value"
    assert len(lines) == 1 + 2 * 3  # 2 reps x (alpha, beta, total)


def test_raw_output_may_not_overwrite_the_summary(tmp_path, monkeypatch, capsys):
    def run(spec):
        raise AssertionError("simulated before the check")

    monkeypatch.setattr(cli, "run_monte_carlo", run)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sum.csv"
    # the same file, named once by its absolute path and once relative to the cwd
    assert run_cli(["simulate", "--n", "10", "--out", out, "--raw-out", "sum.csv"]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"
    assert not out.exists()


def test_limit_table(tmp_path):
    out = tmp_path / "limit.csv"
    assert run_cli(
        ["limit", "--alpha-grid", "0.5,0.9", "--functional", "prey",
         "--functional", "qfw", "--functional", "displacement", "--out", out]
    ) == 0
    rows = read_csv(out)
    by_key = {(r["functional"], r["alpha"]): r for r in rows}
    prey = by_key[("prey", "0.5")]
    assert abs(float(prey["phi_normalized"]) - math.log(2)) < 1e-12
    assert float(prey["quadrature_error_estimate"]) == 0.0
    qfw = by_key[("qfw", "0.5")]
    assert float(qfw["quadrature_error_estimate"]) < 1e-6
    assert qfw["phi_classical_table_if_any"] == ""
    disp = by_key[("displacement", "0.5")]
    assert abs(float(disp["phi_normalized"]) - 0.5) < 1e-12
    assert abs(float(disp["phi_match_simulation"]) - 0.25) < 1e-12
    assert abs(float(disp["phi_classical_table_if_any"]) - 1.0) < 1e-12


def test_limit_rows_name_the_quadrature_cutoff(tmp_path):
    out = tmp_path / "limit.csv"
    grid = (0.0, 0.3, 0.9, 0.95)
    assert run_cli(["limit", "--alpha-grid", ",".join(map(str, grid)), "--functional", "qfw",
                    "--functional", "qf", "--tol", "1e-6", "--out", out]) == 0
    rows = read_csv(out)
    qfw = [r["quadrature_kmax"] for r in rows if r["functional"] == "qfw"]
    assert qfw == [str(_choose_kmax(alpha_to_time(a), 1e-6)) for a in grid]
    assert qfw[0] == "256" and qfw[-1] == "32768"
    assert [r["quadrature_kmax"] for r in rows if r["functional"] != "qfw"] == [""] * len(grid)


def test_exact_pmk_table(tmp_path):
    out = tmp_path / "pmk.csv"
    assert run_cli(["exact", "pmk", "--n", "3", "--out", out]) == 0
    rows = read_csv(out)
    assert [(r["k"], r["p_rational"]) for r in rows] == [("1", "1/3"), ("2", "2/3")]


def test_exact_condr_table(tmp_path):
    out = tmp_path / "condr.csv"
    assert run_cli(["exact", "condr", "--n", "4", "--out", out]) == 0
    for row in read_csv(out):
        assert row["expected_R_rational"] == row["formula_n_minus_l_over_n_minus_k"]


def test_exact_dp_table(tmp_path):
    out = tmp_path / "dp.csv"
    assert run_cli(
        ["exact", "dp", "--n", "3", "--functional", "prey", "--functional", "predator",
         "--out", out]
    ) == 0
    rows = read_csv(out)
    finals = {
        r["functional"]: r["e_cumulative_rational"] for r in rows if r["k"] == "2"
    }
    assert finals == {"prey": "7/3", "predator": "8/3"}


def test_verify_single_fast_criterion(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--only", "borel-limit", "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert [c["cid"] for c in report["criteria"]] == ["borel-limit"]
    assert list(report["criteria"][0]) == ["cid", "status", "passed", "informative", "measured",
                                           "target", "tolerance", "detail", "seconds"]
    assert report["backend"] == "python"
    assert report["samples"] == []
    printed = capsys.readouterr().out
    assert "borel-limit" in printed and "PASS" in printed


def test_verify_determinism_writes_no_json_line_on_stderr(tmp_path, capsys):
    # the three simulate runs inside the criterion keep their side records to themselves
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--only", "determinism", "--out", out]) == 0
    [result] = json.loads(out.read_text())["criteria"]
    assert result["passed"] is True and result["measured"] == "byte-identical"
    for line in capsys.readouterr().err.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_determinism_requires_each_run_to_name_its_workers(monkeypatch):
    from addcoal import acceptance

    stderr_line = cli._stderr_line
    monkeypatch.setattr(cli, "_stderr_line",
                        lambda payload: stderr_line({**payload, "workers": 1}))
    result = acceptance.criterion_determinism()
    assert not result.passed
    assert result.measured == "stderr names workers [1, 1, 1], not [1, 1, 8]"


def test_determinism_closes_the_files_it_compares():
    from addcoal import acceptance

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = acceptance.criterion_determinism()
        gc.collect()
    assert result.passed
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_determinism_passes_a_failed_run_s_error_on(monkeypatch, capsys):
    from addcoal import acceptance

    def broken(config):
        open(config.out, "w").close()
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "simulate", ("", broken, cli.COMMANDS["simulate"][2]))
    result = acceptance.criterion_determinism()
    assert not result.passed and result.measured == "outputs differ"
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(e["kind"], e["error"]) for e in errors] == [("runtime", "RuntimeError: boom")] * 3


def test_determinism_fails_and_verify_goes_on_when_a_run_writes_nothing(monkeypatch, capsys,
                                                                        tmp_path):
    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "simulate", ("", broken, cli.COMMANDS["simulate"][2]))
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--only", "determinism", "--only", "chain-vs-oracle-chi-square",
                    "--out", out])
    assert code == 2
    determinism, chain = json.loads(out.read_text())["criteria"]
    assert determinism["cid"] == "determinism" and determinism["status"] == "FAIL"
    assert determinism["measured"] == "outputs differ"
    assert chain["cid"] == "chain-vs-oracle-chi-square" and chain["status"] == "PASS"
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(e["kind"], e["error"]) for e in errors] == [("runtime", "RuntimeError: boom")] * 3


def test_verify_unknown_criterion(capsys):
    assert run_cli(["verify", "--only", "not-a-criterion"]) == 1
    # a mistyped mutation would otherwise run the unperturbed null and pass
    assert run_cli(["verify", "--only", "borel-limit", "--mutate", "pkm"]) == 1
    # a mutation whose criterion --only leaves out would test nothing
    assert run_cli(["verify", "--only", "borel-limit", "--mutate", "pmk"]) == 1
    assert "pmk-chi-square" in _stderr_json(capsys)["error"]


def test_verify_mutation_mode_fails(tmp_path):
    out = tmp_path / "mut.json"
    code = run_cli(
        ["verify", "--only", "pmk-chi-square", "--mutate", "pmk", "--out", out]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["passed"] is False


def test_verify_chain_mutation_fails(tmp_path):
    out = tmp_path / "mut.json"
    code = run_cli(["verify", "--only", "chain-vs-oracle-chi-square", "--mutate", "chain",
                    "--out", out])
    assert code == 2
    [result] = json.loads(out.read_text())["criteria"]
    assert result["cid"] == "chain-vs-oracle-chi-square" and result["passed"] is False
    assert "perturbed" in result["target"]


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        ["sweep", "--n", "100,400", "--reps", "4", "--seed", "2", "--eps", "0.15",
         "--out", out]
    ) == 0
    rows = read_csv(out)
    assert [r["n"] for r in rows] == ["100", "400"]
    for r in rows:
        assert 0.0 <= float(r["mean_B_over_n_sparse"]) <= 1.0
        assert 0.0 <= float(r["mean_B_over_n_full"]) <= 1.0


def _stderr_json(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_argument_validation_exits_1(capsys, tmp_path):
    # ExperimentSpec and the limit grid check reject these before any computation
    assert run_cli(["simulate", "--n", "1"]) == 1
    assert _stderr_json(capsys)["kind"] == "usage"
    for command in ("simulate", "sweep"):  # the walks' int32 state bounds n
        assert run_cli([command, "--n", str(2**31)]) == 1
        assert "2 <= n < 2**31" in _stderr_json(capsys)["error"]
    assert run_cli(["simulate", "--n", "10", "--alpha-grid", "1.5"]) == 1
    assert run_cli(["limit", "--alpha-grid", "0.9,0.5", "--functional", "qfw"]) == 1
    assert run_cli(["sweep", "--n", "100", "--eps", "0.7"]) == 1
    assert run_cli(["sweep", "--n", "100", "--reps", "0"]) == 1
    # a malformed number names its key, as a flag and as a config line
    for args in (["simulate", "--n", "ten"], ["simulate", "--reps", "x"],
                 ["simulate", "--beta-grid", "0,y"]):
        assert run_cli(args) == 1, args
        err = _stderr_json(capsys)
        assert err["kind"] == "usage" and err["error"].startswith(args[1][2:] + " "), err
        cfg = tmp_path / "malformed.cfg"
        cfg.write_text(f"command = simulate\n{args[1][2:]} = {args[2]}\n")
        assert run_cli(["simulate", "--config", cfg]) == 1, args
        err = _stderr_json(capsys)
        assert err["kind"] == "usage" and err["error"].startswith(args[1][2:] + " "), err
    # non-finite numbers, as flags and as config values
    for args in (["limit", "--functional", "qfw", "--alpha-grid", "0.5", "--tol", "nan"],
                 ["limit", "--functional", "qfw", "--alpha-grid", "0.5", "--tol", "inf"],
                 ["simulate", "--n", "100", "--beta-grid", "nan,1"],
                 ["sweep", "--n", "100", "--eps", "nan"]):
        assert run_cli(args) == 1, args
        assert _stderr_json(capsys)["kind"] == "usage"
        cfg = tmp_path / "nonfinite.cfg"
        key, value = args[-2].lstrip("-"), args[-1]
        cfg.write_text(f"command = {args[0]}\n{key} = {value}\n")
        assert run_cli([args[0], "--config", cfg]) == 1, args
        assert _stderr_json(capsys)["kind"] == "usage"


def test_beta_grid_past_sqrt_n(tmp_path, capsys):
    # the default grid (up to beta = 4) is trimmed to beta^2 <= n, so n = 10 still runs
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--n", "10", "--functional", "qf", "--out", out]) == 0
    assert {r["alpha_or_beta"] for r in read_csv(out) if r["kind"] == "beta"} == \
        {"0", "0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2", "2.25", "2.5", "2.75", "3"}
    # a point the user gives past sqrt(n) is an error, not silently dropped
    assert run_cli(["simulate", "--n", "100", "--beta-grid", "20,5", "--out", out]) == 1
    err = _stderr_json(capsys)
    assert err["kind"] == "usage" and "beta-grid" in err["error"] and "20" in err["error"]
    # both read the spec's range 0 <= beta <= sqrt(n): sqrt(2)**2 rounds above 2
    assert run_cli(["simulate", "--n", "2", "--beta-grid", repr(math.sqrt(2)), "--out", out]) == 0
    assert [r["alpha_or_beta"] for r in read_csv(out) if r["kind"] == "beta"] == \
        [repr(math.sqrt(2))] * 6


def test_computation_failure_exits_3_with_context(monkeypatch, capsys):
    def broken(spec):
        raise ValueError("bad state deep inside the run")

    monkeypatch.setattr(cli, "run_monte_carlo", broken)
    assert run_cli(["simulate", "--n", "10", "--seed", "42"]) == 3
    err = _stderr_json(capsys)
    assert err["kind"] == "runtime"
    assert err["command"] == "simulate" and err["seed"] == 42
    assert "bad state deep inside the run" in err["error"]


def test_repeated_grid_point_rejected(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--n", "10", "--alpha-grid", "0.5,0.5", "--out", out]) == 1
    assert "alpha-grid" in _stderr_json(capsys)["error"]
    assert run_cli(["simulate", "--n", "100", "--beta-grid", "1,0.5,1.0", "--out", out]) == 1
    assert "beta-grid" in _stderr_json(capsys)["error"]
    assert run_cli(["limit", "--alpha-grid", "0.2,0.20", "--functional", "prey"]) == 1
    assert not out.exists()


def test_negative_seed_rejected(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--n", "10", "--seed", "-1", "--out", out]) == 1
    assert "seed" in _stderr_json(capsys)["error"]
    assert run_cli(["sweep", "--n", "100", "--seed", "-5"]) == 1
    assert run_cli(["simulate", "--n", "10", "--seed", str(2 ** 64)]) == 1
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("command = simulate\nn = 10\nseed = -3\n")
    assert run_cli(["simulate", "--config", cfg]) == 1
    assert not out.exists()


def test_provenance_names_backend(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--n", "10", "--functional", "qf", "--out", out]) == 0
    assert {r["backend"] for r in read_csv(out)} == {"python"}
    # every command's rows lead with what produced them; exact rows draw nothing
    drawn = ["seed", "n", "reps", "embedding", "version", "backend"]
    for args, lead in ((["simulate", "--n", "10", "--seed", "4"], drawn),
                       (["sweep", "--n", "100", "--reps", "2", "--seed", "4"], drawn),
                       (["limit", "--functional", "prey", "--alpha-grid", "0.5", "--seed", "4"],
                        drawn),
                       (["exact", "pmk", "--n", "3"], ["version", "backend", "m"]),
                       (["exact", "condr", "--n", "3"], ["version", "backend", "n"]),
                       (["exact", "dp", "--n", "3", "--functional", "qf"],
                        ["version", "backend", "n"])):
        assert run_cli(args + ["--out", out]) == 0, args
        rows = read_csv(out)
        assert rows and all(list(r)[:len(lead)] == lead for r in rows), args
        assert {(r["version"], r["backend"]) for r in rows} == {(cli.__version__, "python")}, args
        if "seed" in lead:
            assert {r["seed"] for r in rows} == {"4"}, args
        if args[0] == "limit":  # the limits draw nothing
            assert {(r["n"], r["reps"], r["embedding"]) for r in rows} == {("", "", "")}


def test_simulate_and_exact_take_one_n(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--n", "50,60", "--out", out]) == 1
    assert "exactly one n" in _stderr_json(capsys)["error"]
    assert run_cli(["simulate", "--n", "", "--out", out]) == 1
    assert _stderr_json(capsys)["kind"] == "usage"
    assert run_cli(["exact", "pmk", "--n", "5,6", "--out", out]) == 1
    assert run_cli(["exact", "dp", "--n", "", "--out", out]) == 1
    assert _stderr_json(capsys)["kind"] == "usage"
    assert not out.exists()


def test_sweep_rejects_a_repeated_n(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["sweep", "--n", "100,100", "--reps", "2", "--out", out]) == 1
    assert "n lists a value more than once" in _stderr_json(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize("n, eps, reps, message", [
    (1, 0.15, 2, "simulation needs 2 <= n < 2**31, got n = 1"),
    (100, 0.0, 2, "eps must be in (0, 1/2)"),
    (100, 0.5, 2, "eps must be in (0, 1/2)"),
    (100, 0.15, 0, "reps must be >= 1"),
])
def test_sweep_arguments_are_checked_before_any_draw(monkeypatch, capsys, n, eps, reps, message):
    def draw(*args):
        raise AssertionError("substream drawn")

    monkeypatch.setattr(experiment, "substream_bits", draw)
    with pytest.raises(ValueError) as raised:
        experiment.regime_sweep([n], eps, reps=reps)
    assert str(raised.value) == message
    assert run_cli(["sweep", "--n", n, "--eps", eps, "--reps", reps]) == 1
    # reps = 0 meets the CLI's config check first, which names workers too
    cli_message = "reps and workers must be >= 1" if reps < 1 else message
    assert _stderr_json(capsys) == {"error": cli_message, "kind": "usage"}


def test_repeated_functional_rejected(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--n", "10", "--functional", "qf", "--functional", "qf",
                    "--out", out]) == 1
    assert "functional" in _stderr_json(capsys)["error"]
    assert run_cli(["limit", "--functional", "qf", "--functional", "qf", "--out", out]) == 1
    assert not out.exists()


def test_exact_table_set_only_in_the_config(tmp_path, capsys):
    cfg = tmp_path / "pmk.cfg"
    cfg.write_text("command = exact\ntable = pmk\nn = 5\n")
    from_config, from_arg = tmp_path / "config.csv", tmp_path / "arg.csv"
    assert run_cli(["exact", "--config", cfg, "--out", from_config]) == 0
    assert run_cli(["exact", "pmk", "--n", "5", "--out", from_arg]) == 0
    assert from_config.read_text() == from_arg.read_text()
    # no table anywhere: still a usage error
    cfg.write_text("command = exact\nn = 5\n")
    out = tmp_path / "x.csv"
    for args in (["exact", "--n", "5"], ["exact", "--config", cfg]):
        assert run_cli(args + ["--out", out]) == 1, args
        assert _stderr_json(capsys) == {"error": "exact needs a table argument", "kind": "usage"}
    assert not out.exists()


def test_an_empty_functional_list_is_a_usage_error(tmp_path, capsys):
    # each command that reads the functionals would otherwise write no rows
    cfg = tmp_path / "empty.cfg"
    out = tmp_path / "x.csv"
    for args in (["simulate", "--n", "10"], ["limit"], ["exact", "dp", "--n", "5"]):
        cfg.write_text(f"command = {args[0]}\nfunctional =\n")
        assert run_cli(args + ["--config", cfg, "--out", out]) == 1, args
        err = _stderr_json(capsys)
        assert err["kind"] == "usage" and "functional" in err["error"], (args, err)
    assert not out.exists()
    with pytest.raises(UsageError, match="functional"):
        RunConfig("simulate", functionals=())
