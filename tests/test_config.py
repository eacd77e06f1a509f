"""Configuration parsing, strict validation, canonical text, and hashing."""

import dataclasses

import pytest

from madlab.config import (
    ConfigError,
    DEFAULT_K_GRID,
    DEFAULT_STRATA_BINS,
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)

FULL_TEXT = """
[environment]
num_agents = 3
rounds = 2
answer_space_size = 4
difficulty_bins = 2
compromised_count = 1
adversarial_target_policy = min_wrong
seed = 42
skills = 0.9, 0.8, 0.7
difficulty = uniform:0.1,0.5
train_questions = 40
eval_questions = 20

[metric]
lambda_mix = 0.25

[udpo]
epsilon = 0.1
learn_rate = 0.05
batch_size = 8
iterations = 3
ref_refresh_period = 2
kappa = 2.0
alpha_base = 1.5
beta_base = 0.5
gamma_base = 2.5
lambda_base = 1.25
eta_base = 0.02
warmup_fraction = 0.2

[replay]
enabled = false
capacity = 64
priority_exponent = 2.0
fraction = 0.5
refresh_period = 10

[analysis]
k_grid = 25, 50, 75, 100
strata_bins = 0.3, 0.6

[output]
directory = results
"""


def test_full_file_parses_every_block():
    cfg = parse_config(FULL_TEXT)
    assert cfg.env.num_agents == 3
    assert cfg.env.rounds == 2
    assert cfg.env.difficulty_bins == 2
    assert cfg.env.compromised_count == 1
    assert cfg.env.seed == 42
    assert cfg.env.skills == (0.9, 0.8, 0.7)
    assert cfg.env.difficulty == "uniform:0.1,0.5"
    assert cfg.train_questions == 40
    assert cfg.eval_questions == 20
    assert cfg.metric.lambda_mix == 0.25
    assert cfg.clip.epsilon == 0.1
    assert cfg.clip.batch_size == 8
    assert cfg.clip.iterations == 3
    assert cfg.clip.ref_refresh_period == 2
    assert cfg.calibration.kappa == 2.0
    assert cfg.calibration.alpha_base == 1.5
    assert cfg.calibration.eta_base == 0.02
    assert cfg.calibration.warmup_fraction == 0.2
    assert cfg.replay.enabled is False
    assert cfg.replay.capacity == 64
    assert cfg.replay.priority_exponent == 2.0
    assert cfg.replay.fraction == 0.5
    assert cfg.replay.refresh_period == 10
    assert cfg.k_grid == (25.0, 50.0, 75.0, 100.0)
    assert cfg.strata_bins == (0.3, 0.6)
    assert cfg.output_dir == "results"


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.env.num_agents == 5
    assert cfg.env.rounds == 5
    assert cfg.clip.epsilon == 0.2
    assert cfg.clip.learn_rate == 0.1
    assert cfg.clip.batch_size == 32
    assert cfg.clip.iterations == 200
    assert cfg.calibration.kappa == 1.5
    assert cfg.calibration.eta_base == 0.01
    assert cfg.calibration.warmup_fraction == 0.1
    assert cfg.replay.capacity == 1024
    assert cfg.replay.priority_exponent == 1.0
    assert cfg.k_grid == DEFAULT_K_GRID
    assert cfg.strata_bins == DEFAULT_STRATA_BINS
    assert cfg.train_questions == 500
    assert cfg.eval_questions == 200


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("[environment]\nnum_agents = 7\n\n[udpo]\nkappa = 3.0\n")
    assert cfg.env.num_agents == 7
    assert cfg.calibration.kappa == 3.0
    assert cfg.clip.epsilon == 0.2
    assert cfg.replay.enabled is True


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nope]\nx = 1\n", "unknown section [nope]"),
        ("[environment]\nnum_agent = 5\n", "unknown key 'num_agent'"),
        ("[udpo]\nepsilonn = 0.2\n", "unknown key 'epsilonn'"),
        ("[environment]\nnum_agents = many\n", "num_agents"),
        ("[replay]\nenabled = maybe\n", "boolean"),
        ("[udpo]\nepsilon = -1\n", "epsilon"),
        ("[udpo]\nwarmup_fraction = 1.0\n", "warmup_fraction"),
        ("[analysis]\nk_grid = 0\n", "k_grid"),
        ("[analysis]\nstrata_bins = 0.6,0.2\n", "strata_bins"),
        ("[analysis]\nstrata_bins = 0.5,1.0\n", "strata_bins"),
        ("[environment]\ntrain_questions = 1\n", "train_questions"),
        ("garbage without a section\n", "malformed"),
        ("[DEFAULT]\nfoo = 1\n", "DEFAULT"),
        ("[udpo]\nlearn_rate = nan\n", "[udpo] learn_rate: expected a finite number, got 'nan'"),
        ("[udpo]\nepsilon = inf\n", "[udpo] epsilon: expected a finite number, got 'inf'"),
        ("[udpo]\nkappa = -Infinity\n", "[udpo] kappa: expected a finite number"),
        ("[replay]\npriority_exponent = NaN\n", "[replay] priority_exponent: expected a finite"),
        ("[analysis]\nstrata_bins = 0.2,nan,0.8\n", "[analysis] strata_bins: expected a finite"),
        ("[analysis]\nk_grid = 10,1e400\n", "[analysis] k_grid: expected a finite number"),
    ],
)
def test_rejects_unknown_or_invalid(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_a_large_finite_epsilon_is_accepted():
    # a wide enough band turns the clip off; only non-finite values are rejected
    assert parse_config("[udpo]\nepsilon = 1e300\n").clip.epsilon == 1e300


def test_canonical_text_round_trips():
    cfg = parse_config(FULL_TEXT)
    assert parse_config(canonical_text(cfg)) == cfg
    assert parse_config(canonical_text(ExperimentConfig())) == ExperimentConfig()


def test_every_knob_has_exactly_one_canonical_key():
    text = canonical_text(ExperimentConfig())
    keys = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
    expected = []
    for f in dataclasses.fields(ExperimentConfig):
        if dataclasses.is_dataclass(f.default_factory):
            expected += [g.name for g in dataclasses.fields(f.default_factory)]
        else:
            expected.append("directory" if f.name == "output_dir" else f.name)
    assert sorted(keys) == sorted(expected)


def test_hash_is_stable_and_sensitive():
    base = ExperimentConfig()
    again = parse_config("")
    assert config_hash(base) == config_hash(again)
    assert len(config_hash(base)) == 16
    bumped = parse_config("[environment]\nseed = 1\n")
    assert config_hash(bumped) != config_hash(base)


def test_load_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))
    path = tmp_path / "exp.ini"
    path.write_text("[environment]\nseed = 9\n", encoding="utf-8")
    assert load_config(str(path)).env.seed == 9


def test_non_utf8_config_is_config_error_naming_path_and_line(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"[environment]\nseed = \xff9\n")
    with pytest.raises(ConfigError) as raised:
        load_config(str(path))
    assert str(raised.value) == (f"cannot read config {str(path)!r}: line 2: not UTF-8 text "
                                 "(byte 0xff, invalid start byte)")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(train_questions=1)
    with pytest.raises(ValueError):
        ExperimentConfig(eval_questions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(k_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(k_grid=(0.0, 50.0))
    with pytest.raises(ValueError, match="strata_bins"):
        ExperimentConfig(strata_bins=(0.6, 0.2))
