"""End-to-end tests for the command-line surface: argument wiring,
exit codes, artifact creation, and stream routing."""

import math
import os
import subprocess
import sys

import pytest

import madlab
from madlab.cli import main

TINY_CONFIG = """\
[environment]
num_agents = 3
rounds = 2
seed = 5
skills = 0.9,0.7,0.5
difficulty = uniform:0.0,0.6
train_questions = 30
eval_questions = 12

[udpo]
iterations = 3
batch_size = 4

[replay]
capacity = 32
refresh_period = 2
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


def test_baseline_writes_artifacts_and_prints_summary(tiny_config, tmp_path, capsys):
    out = tmp_path / "base"
    assert main(["baseline", "--config", tiny_config, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("label,questions,accuracy")
    assert "baseline,12," in captured.out
    for name in ("summary.csv", "trajectories.jsonl", "profiles.csv", "rewards.csv"):
        assert (out / name).is_file()


def test_seed_override_matching_config_is_identical(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["baseline", "--config", tiny_config, "--out", str(out_a)]) == 0
    assert main(["baseline", "--config", tiny_config, "--out", str(out_b),
                 "--seed", "5"]) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_seed_override_changes_results(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["baseline", "--config", tiny_config, "--out", str(out_a)]) == 0
    assert main(["baseline", "--config", tiny_config, "--out", str(out_b),
                 "--seed", "99"]) == 0
    assert (out_a / "summary.csv").read_bytes() != (out_b / "summary.csv").read_bytes()


def test_train_zero_alpha_writes_zeroed_coefficients(tiny_config, tmp_path, capsys):
    out = tmp_path / "ablate"
    assert main(["train", "--config", tiny_config, "--out", str(out),
                 "--zero", "alpha"]) == 0
    captured = capsys.readouterr()
    assert "baseline,12," in captured.out
    assert "trained,12," in captured.out
    lines = (out / "coefficients.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "agent,alpha,beta,gamma,lambda,eta"
    for line in lines[1:]:
        assert line.split(",")[1] == "0.000000"
    for name in ("training_metrics.csv", "replay_buffer.jsonl",
                 "policy_agent_0.txt", "policy_agent_1.txt", "policy_agent_2.txt"):
        assert (out / name).is_file()


def test_train_zero_takes_a_comma_list(tiny_config, tmp_path, capsys):
    out = tmp_path / "task-only"
    assert main(["train", "--config", tiny_config, "--out", str(out),
                 "--zero", "alpha,beta,gamma"]) == 0
    assert "trained,12," in capsys.readouterr().out
    lines = (out / "coefficients.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.split(",")[1:4] == ["0.000000"] * 3
        assert float(line.split(",")[4]) > 0.0


def test_train_zero_rejects_unknown_component(tiny_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--config", tiny_config, "--out", str(tmp_path / "t"),
              "--zero", "alpha,lambda"])
    assert excinfo.value.code == 2
    assert "unknown component 'lambda'" in capsys.readouterr().err


def test_attack_rows_and_majority_warning(tiny_config, tmp_path, capsys):
    out = tmp_path / "attack"
    code = main(["attack", "--config", tiny_config, "--out", str(out),
                 "--compromised", "1", "--compromised", "2"])
    assert code == 0
    captured = capsys.readouterr()
    labels = [line.split(",")[0] for line in captured.out.splitlines()[1:]]
    assert labels == ["untrained_clean", "trained_clean",
                      "untrained_m1", "trained_m1", "untrained_m2", "trained_m2"]
    assert "no honest majority possible" in captured.err
    assert "m=2 of 3" in captured.err


def test_every_pipeline_warns_once_without_an_honest_majority(tmp_path, capsys):
    # 3 of 5 seats compromised: baseline and train warn as attack and sweep
    # do, and a repeated seat count warns once
    path = tmp_path / "no-majority.ini"
    path.write_text(TINY_CONFIG.replace("num_agents = 3", "num_agents = 5\ncompromised_count = 3"),
                    encoding="utf-8")
    warning = "madlab: warning: m=3 of 5 agents: no honest majority possible\n"
    runs = {"baseline": [], "train": [], "attack": ["--compromised", "3", "--compromised", "3"],
            "sweep": ["--axis", "compromised", "--values", "3,3"]}
    for command, extra in runs.items():
        assert main([command, "--config", str(path), "--out", str(tmp_path / command),
                     *extra]) == 0
        assert capsys.readouterr().err == warning, command


def test_attack_rejects_more_seats_than_agents(tiny_config, tmp_path, capsys):
    code = main(["attack", "--config", tiny_config, "--out", str(tmp_path / "x"),
                 "--compromised", "7"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_analyze_consumes_baseline_trajectories(tiny_config, tmp_path, capsys):
    base = tmp_path / "base"
    assert main(["baseline", "--config", tiny_config, "--out", str(base)]) == 0
    capsys.readouterr()
    out = tmp_path / "reports"
    code = main(["analyze", str(base / "trajectories.jsonl"),
                 "--config", tiny_config, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "analysis,12," in captured.out
    for name in ("separation.csv", "selective.csv", "strata.csv"):
        assert (out / name).is_file()


def test_analyze_read_error_names_the_file(tiny_config, tmp_path, capsys):
    base = tmp_path / "base"
    assert main(["baseline", "--config", tiny_config, "--out", str(base)]) == 0
    capsys.readouterr()
    good = base / "trajectories.jsonl"
    lines = good.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:4] + ["{not json"] + lines[4:]) + "\n", encoding="utf-8")
    code = main(["analyze", str(good), str(bad),
                 "--config", tiny_config, "--out", str(tmp_path / "reports")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 5: not valid JSON" in err
    assert f"{good}:" not in err


def test_analyze_missing_file_is_runtime_error(tiny_config, tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.jsonl"),
                 "--config", tiny_config, "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sweep_rounds_axis(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", tiny_config, "--out", str(out),
                 "--axis", "rounds", "--values", "1,2"])
    assert code == 0
    labels = [line.split(",")[0]
              for line in capsys.readouterr().out.splitlines()[1:]]
    assert labels == ["rounds=1", "rounds=2"]


def test_sweep_rejects_unknown_axis(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", tiny_config, "--out", str(tmp_path / "s"),
              "--axis", "temperature", "--values", "1"])
    assert excinfo.value.code == 2


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[environment]\nwarp_drive = on\n", encoding="utf-8")
    code = main(["baseline", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_strata_bins_fail_before_analysis_reads_input(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[analysis]\nstrata_bins = 0.6,0.2\n", encoding="utf-8")
    code = main(["analyze", str(tmp_path / "absent.jsonl"), "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "strata_bins" in err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["baseline", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_invalid_seed_is_config_error(tiny_config, tmp_path, capsys):
    code = main(["baseline", "--config", tiny_config, "--out", str(tmp_path / "o"),
                 "--seed", "-3"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_console_script_entry_point(tiny_config, tmp_path):
    out = tmp_path / "script"
    # the child imports the madlab this process imported, installed or not
    src = os.path.dirname(os.path.dirname(madlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "madlab.cli", "baseline",
         "--config", tiny_config, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("label,questions,accuracy")
    assert (out / "summary.csv").is_file()


def test_more_compromised_seats_than_agents_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[environment]\nnum_agents = 3\ncompromised_count = 7\n", encoding="utf-8")
    code = main(["baseline", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "compromised_count 7 exceeds num_agents" in err


def test_sweep_rejects_more_compromised_seats_than_agents(tiny_config, tmp_path, capsys):
    code = main(["sweep", "--config", tiny_config, "--out", str(tmp_path / "s"),
                 "--axis", "compromised", "--values", "1,9"])
    assert code == 2
    assert "compromised_count 9 exceeds num_agents" in capsys.readouterr().err


def test_train_with_every_seat_compromised_fails(tmp_path, capsys):
    path = tmp_path / "all.ini"
    path.write_text(TINY_CONFIG.replace("[udpo]", "compromised_count = 3\n\n[udpo]"),
                    encoding="utf-8")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "t")])
    assert code == 2
    assert "needs at least one honest agent" in capsys.readouterr().err


OVERFLOWING_UDPO = {
    "kappa": ("kappa = 1e308", "alpha_base, beta_base, gamma_base, lambda_base and kappa"),
    "alpha-beta": ("alpha_base = 1e308\nbeta_base = 1e308",
                   "alpha_base, beta_base, gamma_base, lambda_base and kappa"),
    "eta": ("eta_base = 1e308\nkappa = 1", "eta_base and kappa overflow the largest anchor"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_UDPO))
def test_overflowing_reward_coefficients_are_config_errors(tmp_path, capsys, name):
    # the largest total calibration can weigh would be inf, so the run is
    # refused before any rollout instead of writing inf into rewards.csv
    udpo, message = OVERFLOWING_UDPO[name]
    path = tmp_path / "overflow.ini"
    path.write_text("[environment]\ntrain_questions = 40\neval_questions = 12\n\n"
                    f"[udpo]\niterations = 3\n{udpo}\n", encoding="utf-8")
    for command in ("baseline", "train"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err, err
        assert not (tmp_path / command).exists()


def test_large_finite_reward_coefficients_are_accepted(tmp_path, capsys):
    path = tmp_path / "large.ini"
    path.write_text("[environment]\neval_questions = 12\n\n"
                    "[udpo]\nalpha_base = 1e300\nbeta_base = 1e300\nkappa = 1e5\n",
                    encoding="utf-8")
    assert main(["baseline", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    _, *rows = (tmp_path / "b" / "rewards.csv").read_text(encoding="utf-8").splitlines()
    cells = [float(cell) for row in rows for cell in row.split(",")[1:]]
    assert len(rows) == 12 and all(math.isfinite(c) for c in cells) and max(cells) > 1e300
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_every_csv_artifact_line_has_a_cell_per_header_column(tiny_config, tmp_path, capsys):
    runs = {"baseline": [], "train": [], "attack": ["--compromised", "1", "--compromised", "2"],
            "sweep": ["--axis", "compromised", "--values", "0,1,2"]}
    for command, extra in runs.items():
        assert main([command, "--config", tiny_config, "--out", str(tmp_path / command),
                     *extra]) == 0
    train = tmp_path / "train"
    assert main(["analyze", str(train / "trajectories.jsonl"), str(train / "replay_buffer.jsonl"),
                 "--config", tiny_config, "--out", str(tmp_path / "analyze")]) == 0
    tables = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in tables} == {
        "summary.csv", "profiles.csv", "rewards.csv", "coefficients.csv", "training_metrics.csv",
        "separation.csv", "correlation.csv", "selective.csv", "strata.csv"}
    for path in tables:
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert lines, path
        for lineno, line in enumerate(lines, start=2):
            assert line.count(",") == header.count(","), f"{path} line {lineno}: {line}"
