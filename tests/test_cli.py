"""End-to-end command-line behavior, file formats, and determinism."""

import json
from pathlib import Path

import pytest

from regretplan import fixtures
from regretplan import model as md
from regretplan.cli import main


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(md.model_to_json(fixtures.t3())))
    return str(path)


@pytest.fixture
def env_files(tmp_path):
    yes = tmp_path / "env_yes.json"
    no = tmp_path / "env_no.json"
    yes.write_text(json.dumps(md.wts_to_json(fixtures.t3_env_yes())))
    no.write_text(json.dumps(md.wts_to_json(fixtures.t3_env_no())))
    return str(yes), str(no)


def test_compile_writes_dfa(tmp_path, capsys):
    out = tmp_path / "dfa.json"
    assert main(["compile", "F target", "--atoms", "target",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["states"] == 2
    assert data["accepting"] == [1]
    assert len(data["transitions"]) == 4  # exhaustive over 2 letters x 2 states


def test_solve_prints_value_and_writes_strategy(t3_file, tmp_path, capsys):
    out = tmp_path / "strategy.json"
    assert main(["solve", t3_file, "--task", "F target", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "2"
    data = json.loads(out.read_text())
    assert data["objective"] == "regret"
    assert data["value"] == 2
    assert data["task"] == "F target"
    first = next(e for e in data["decisions"] if e["x"] == 0 and e["ksuffix"] == [])
    assert first["go"] == 1


def test_solve_worst_objective(t3_file, tmp_path, capsys):
    out = tmp_path / "strategy.json"
    assert main(["solve", t3_file, "--task", "F target",
                 "--objective", "worst", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_exec_roundtrip(t3_file, env_files, tmp_path, capsys):
    strategy = tmp_path / "strategy.json"
    main(["solve", t3_file, "--task", "F target", "-o", str(strategy)])
    capsys.readouterr()
    yes, no = env_files
    rec1 = tmp_path / "run1.json"
    rec2 = tmp_path / "run2.json"
    assert main(["exec", str(strategy), t3_file, no, "-o", str(rec1)]) == 0
    assert main(["exec", str(strategy), t3_file, no, "-o", str(rec2)]) == 0
    assert rec1.read_bytes() == rec2.read_bytes()
    record = json.loads(rec1.read_text())
    assert record["cost"] == 12
    assert record["satisfied"] is True
    assert record["path"] == [0, 1, 0, 2, 3]
    assert main(["exec", str(strategy), t3_file, yes]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cost"] == 2


def test_exec_best_objective_policy(t3_file, env_files, tmp_path, capsys):
    strategy = tmp_path / "best.json"
    main(["solve", t3_file, "--task", "F target", "--objective", "best",
          "-o", str(strategy)])
    capsys.readouterr()
    _, no = env_files
    assert main(["exec", str(strategy), t3_file, no]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == 12


def test_regret_subcommand(t3_file, tmp_path, capsys):
    strategy = tmp_path / "strategy.json"
    main(["solve", t3_file, "--task", "F target", "--objective", "worst",
          "-o", str(strategy)])
    capsys.readouterr()
    assert main(["regret", str(strategy), t3_file, "--task", "F target"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_oracle_subcommand(t3_file, capsys):
    assert main(["oracle", t3_file, "--task", "F target"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2
    assert data["checked"] >= 1


def test_arena_subcommand(t3_file, capsys):
    assert main(["arena", t3_file, "--task", "F target"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["initial"] == 0
    assert len(data["vertices"]) == 20


def test_grid_subcommand_and_fig1_pipeline(tmp_path, capsys):
    map_file = tmp_path / "fig1.grid"
    map_file.write_text(fixtures.FIG1_GRID)
    model_file = tmp_path / "fig1.json"
    assert main(["grid", str(map_file), "-o", str(model_file)]) == 0
    model = md.model_from_json(json.loads(model_file.read_text()))
    assert model.n == 16
    assert main(["solve", str(model_file), "--task", "F f",
                 "-o", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_model_json_roundtrip_via_cli(tmp_path, t3_file):
    data = json.loads(Path(t3_file).read_text())
    back = md.model_to_json(md.model_from_json(data))
    assert back == md.model_to_json(fixtures.t3())


def test_bench_deterministic_bytes(tmp_path):
    args = ["bench", "--states", "6", "--p", "0,1", "--trials", "2",
            "--seed", "7", "--possible", "1", "--max-cost", "9"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "states,p,trial_count,strategy,mean_cost,stderr,skips"


def test_solve_deterministic_bytes(t3_file, tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    main(["solve", t3_file, "--task", "F target", "-o", str(out1)])
    main(["solve", t3_file, "--task", "F target", "-o", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_code_domain_error(tmp_path, capsys):
    # unknown state may trap the agent: no strategy wins everywhere
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,), (1,)), ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (1, 1): 1, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(md.model_to_json(m)))
    assert main(["solve", str(path), "--task", "F target"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnrealizableTask"


def test_exit_code_missing_file(capsys):
    assert main(["solve", "/nonexistent/model.json", "--task", "F target"]) == 2
    capsys.readouterr()
