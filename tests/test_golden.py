"""Pinned sha256 digests of every pipeline artifact.

A refactor proves it keeps behaviour by leaving these literals unchanged. A
deliberate change of random streams or semantics updates them in the same
change and says why; the last such change gave every debate's acts and every
question's tilts one Philox key each. The digests hold for the numpy build
they were pinned with: the tilt normals (Box-Muller's log1p, sqrt, cos and
sin), like the softmax's np.exp, run numpy ufuncs, whose last bits may differ
between builds. The wide variant (5 agents, 5 rounds, one compromised seat)
covers the distractor flare, the adversary and the 5-voter leave-one-out
paths that the 3-agent tiny config never reaches; trained with a third-step
reference refresh, it pins training on the honest seats only (H = 4 of N =
5): the honest advantage columns, the anchor strengths and the
mean_total_reward column, whose exact floats are pinned too. The clip/KL variant
refreshes the reference every third iteration, so the likelihood ratio moves
off 1 and the clip test and the KL gradient act on the digests. The K = 12
baseline (9 rounds, 3 bins, two max_wrong seats, difficulty over all of [0,
1]) draws longer normal vectors, fires flares and sits on both sides of
AVERSION_RAMP; the K = 3 baseline at fixed difficulty 0.01 sits below the
ramp, where the aversion fades and the signal persists. The mixed
analysis input interleaves answer spaces, grid shapes, unsupervised records,
numeric labels and blank lines in one file.
"""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from madlab import optim
from madlab.config import ExperimentConfig, config_hash
from madlab.harness import run_analysis, run_baseline, run_udpo, train_pipeline, with_seed
from madlab.optim import ClipConfig
from madlab.policy import AVERSION_RAMP, DebateEnv
from reference_impl import likelihood_ratio
from test_harness import tiny_config

BASELINE = {
    "profiles.csv": "6d5ad215a38f79d211ed6687ab910297eb881aad1547a8f8359efc05e3a6a603",
    "rewards.csv": "9c6858cecc164c9c690d679f68f0034601dd2e662e8a9e08465294ea1bc2859a",
    "summary.csv": "b6cff3b90cfd573a73567e3432bdff65bd82b85b9f0a4948edcfb0c5433d00d0",
    "trajectories.jsonl": "ed3429f94b64a88d6fef472ad16d409be65bbbe08e6bb9c89e61aeac276cfafa",
}

UDPO = {
    "coefficients.csv": "4a948c4c305929fc28ba71cd361332ee46ef70c8348b3246d664047c3fa79123",
    "policy_agent_0.txt": "46358a373810b9d455a268c42dd3c808b1b21fb5fed70255a6ad4525372594fa",
    "policy_agent_1.txt": "3aa8c40ff19d68783578767cc6a5864c93050a6e62f2a2dec2c84de9ba2e3707",
    "policy_agent_2.txt": "fc495ea3f75ea25cfa7710819b0d8060e266d6820e3e958c3d4c2d17de9adbf8",
    "profiles.csv": "6d5ad215a38f79d211ed6687ab910297eb881aad1547a8f8359efc05e3a6a603",
    "replay_buffer.jsonl": "f296f3eabdddaa59029efbde124caf1ea50c2a410ae2548c1e0aa83b28d6742b",
    "rewards.csv": "dca23d74a63c576106dc4989d1f936231b6fa342769a08405a3fc370e8b8cfe7",
    "summary.csv": "a2da5d146b4158d8710ea6ba6a88a1a7040caa3bac4dcd1a098e64f7347893e5",
    "training_metrics.csv": "73f5f233d72bf136969c025fe60021f0186f6f5464143dff96b599eec31d4996",
    "trajectories.jsonl": "ed3429f94b64a88d6fef472ad16d409be65bbbe08e6bb9c89e61aeac276cfafa",
}

WIDE_BASELINE = {
    "profiles.csv": "39198291e9752b4950838396eda7b5b6d09b0959d9c7644d4f7351b043c148cf",
    "rewards.csv": "313d90de1311bdf5f9e3f4ecd37c829a0ef582db796a7d50cb44a5320489738c",
    "summary.csv": "0ce181421a2d9867d142eab13528f862afbe15a169a4c03f8dafce7c88b0d320",
    "trajectories.jsonl": "1a9ddddc327e3c49e8ca1d9176a71d833c4cd662f969c158eaf708c6e51d190a",
}

WIDE_ANALYSIS = {
    "correlation.csv": "50563add99614dfdeae8c3ae2043b32b4a5655f9db596f709493d5fed83ce59f",
    "selective.csv": "950640703399f0f2bcacba9fcfe4c4d4eae330e77e0150098692b590fdd0b99d",
    "separation.csv": "d0ade5859d46980bd905d5265ed9acf4294a6acee10ca8dcbe731ce23a06f181",
    "strata.csv": "418466fbd062a7795afc1aedf8dc260827b69487be9476df79fef2d7ccd60de2",
}

CLIP_KL_UDPO = {
    "coefficients.csv": "115e8094a4d7e18bbf9b10edaccf72f17673e16cbdb8c852b4b8146bfaeb237c",
    "policy_agent_0.txt": "c43a92eddaff03a31b7b10fa55e97478ed1c95fbe08705007e419a6e06a228d4",
    "policy_agent_1.txt": "901180422e7093cee73ef23457244891cde2258718a91cef7f87260a5a13ae5f",
    "policy_agent_2.txt": "a571b79fb13b6b13ba665912fe6690a7c4122e59b80d942a479cde24e9653c14",
    "profiles.csv": "c9bc85dc61a10b84ff5c0b64534b582aceaccfae97f0b795ef2f7826bedf1611",
    "replay_buffer.jsonl": "8cabca655ebbef3813f3cffbbbeb80aebf10fdf1fd053172bcc0b0c2d57751dd",
    "rewards.csv": "9b80e5d75b0a9a53e96b0244b7698fb4932cae896d672933fafdbad6a923e346",
    "summary.csv": "dec8e5ae799b00668d3a516b9e47b3c30dc85c05a7712210e6aa223586648029",
    "training_metrics.csv": "16926cc205e57f45bec9338da7c16b9107c4827089f428a4d0a199449ce73e85",
    "trajectories.jsonl": "8b580f8f415a7fa494f02f9581a33e382d54328fea9c5e0af07691d9b511a1b6",
}

WIDE_UDPO = {
    "coefficients.csv": "8dbe742af2c6176605336fa1637969a0888cccae900a5c2727c53bafc476823c",
    "policy_agent_0.txt": "883e96fa7cd9167d3d06995cef397bb2a60e59f264ba2635073020649d1d91e3",
    "policy_agent_1.txt": "bb3e62bce2062c1ce8fd757d7df02e6f0f15e9ae41535c7608aada499cf7101e",
    "policy_agent_2.txt": "0ef3098a300d3ce762a4b85e11b7069d74f472cfe84ca7fc38a93c50a3122167",
    "policy_agent_3.txt": "cf4c56a04d1094a5a8dda2654418a90e5dbac1eef5bb611dd1b8568cf3970983",
    "profiles.csv": "0f3f3d05a53474a70473280b99506a35ae7bcbc372dd7a9d5e337839af3324da",
    "replay_buffer.jsonl": "eeea4a30f2b88dc7204a0a8989583d4c7ca3250c31f26fb535430d567da342f7",
    "rewards.csv": "b51ab3843b2d0caef1fd586a34c2827ad3151bc317a65d5e8c91d9c174f7d687",
    "summary.csv": "34e5d4ae747ff42e40cd09c16a99c37a4995f83d2205395877ad5b54c9437fd4",
    "training_metrics.csv": "576c7f7dfdedab46ee9c74f22ec87fa3673b16b2ac99887b990d3bbafd4d395c",
    "trajectories.jsonl": "71cf85f9d2f092e469158bb66d8b98138d0f4b224c48c7ce6ac83df7df252c6b",
}

# training_metrics.csv rounds to 6 decimals; these are the unrounded values.
WIDE_UDPO_MEAN_TOTAL_REWARD = (
    3.1076169413053725, 2.756570356830119, 2.434124361353843, 2.6169359611422474,
    2.0155936735252267, 2.868120534294794,
)

K12_BASELINE = {
    "profiles.csv": "7f64370b0a2e455495ee9025e94cf162ed036fb8d99340eb35d38c8f5a3af0bc",
    "rewards.csv": "8f10f1a84d49d795c893ffdd29d4218acd1c3618e96df6faad9f6c32d14b42d5",
    "summary.csv": "a649074109fcfcdcf19c227124840edf19eb6c5d916cca045695e3bc9dc58c87",
    "trajectories.jsonl": "8a72418a9ffc033f47209108a9d7c78a50410bf872ffea7ba516dfc25532c869",
}

K3_BELOW_RAMP_BASELINE = {
    "profiles.csv": "202b8e35e9396a8d994999fc072b78f18b689bbc6fee68424b5bac78c3e84323",
    "rewards.csv": "020727ed750bb59554d44e974c4fa6b9b0fef1f62d6fdc06992d0217736ea496",
    "summary.csv": "fbe166dd1e786bb466634d3f3d653cf30befb19687ded9864c9edb2830122f5a",
    "trajectories.jsonl": "e3478f31a08010b171bc912920376cdd377fab5dd49b71a84cea085e3f942595",
}

MIXED_ANALYSIS = {
    "correlation.csv": "920849058b28af1ff9846994b64587ea3a076c143a052c9630089a34289b1fed",
    "selective.csv": "1e08ecd486fea2039ef2ea3b6c93a48321037969df2b6c9152c787182fd0a098",
    "separation.csv": "e6c4f36e62202d2bd1b513f8fb0c9b2ecf74150570066cd41946d932f0a9ce25",
    "strata.csv": "3bfe43bb40305ac30f1a22894af92fffa5321b292e3a0b18ca8f943f1cc856ce",
}

MIXED_ANALYSIS_ROW = (
    "analysis", 218, 0.8394495412844036, 0.23154943934760447, 0.4081422018348624,
    0.45410835885191153,
)

# The default config at seed 5: the benchmark's train-default shape (batch
# 32, a 1,024-entry buffer refreshed every 50 iterations, five honest agents),
# which no tiny config reaches.
DEFAULT_SEED5_UDPO = {
    "coefficients.csv": "71565583f3fa2d2ccf914e2a92788b323edec44ec87b2db0c4b56f2d1c23c058",
    "policy_agent_0.txt": "11d0fcf824c93e7ba54009cf831e538058827144c4612f20ae5e4dc0e90b9c9c",
    "policy_agent_1.txt": "4db6bdbfac87ee826051fa23a25389ed69f19495c4ea65935c1ce0a3a9affd99",
    "policy_agent_2.txt": "be85f57c8e1b5f853f2677ecfb90264d8893d463d2476157b2fcb8a7bcf5c7d0",
    "policy_agent_3.txt": "24e1331139163b16f71ee997a1e90941fe32c382569d700dea09d6d3afcf3818",
    "policy_agent_4.txt": "f9dfd7286daf8ad2553955acc229c12c11a6deb963d05ad2853a74ebd90efc32",
    "profiles.csv": "04cdf51d6f8ebe705a70824474a20d231dbb81e78fa1fdec62a0b52895d15c3b",
    "replay_buffer.jsonl": "2dcecb53b66dbe0cb46bf4eda587fa35a61c8198bb431ba234c7d492d9d198e3",
    "rewards.csv": "6301bf9a1260ccc6a1224191dd156a99a6484f20ece5699cf1745b150a540d15",
    "summary.csv": "d642ffde7810ad693b74fff6b6067a09b8db6f746f692b9343817d79367d3990",
    "training_metrics.csv": "7db835dc8efedaf0b1e4a4746598c816e61ffc37df6c0d5a0713b965870c15d6",
    "trajectories.jsonl": "9f66632c1a26e244377c69ae990d1cc940b152c27ecd30380b5e683883a2d79a",
}

DEFAULT_CONFIG_HASH = "170f4cd84af4e83e"

# (answer space as written, agents, refinement rounds): two answer spaces, one
# of them also written as JSON numbers (one group mixes both spellings), over
# two agent counts and two round counts.
MIXED_SHAPES = (
    (["A", "B", "C"], 3, 1),
    (["A", "B", "C"], 5, 3),
    (["0", "1", "2", "3"], 5, 1),
    ([0, 1, 2, 3], 3, 3),
    ([0, 1, 2, 3], 5, 1),
)


def wide_config():
    return tiny_config(num_agents=5, rounds=5, compromised_count=1)


def wide_udpo_config():
    return dataclasses.replace(
        wide_config(), clip=ClipConfig(iterations=6, batch_size=8, ref_refresh_period=3)
    )


def clip_kl_config():
    config = tiny_config(rounds=4)
    return dataclasses.replace(
        config, clip=ClipConfig(iterations=6, batch_size=4, ref_refresh_period=3)
    )


def k12_config():
    return tiny_config(num_agents=5, rounds=9, answer_space_size=12, difficulty_bins=3,
                       compromised_count=2, adversarial_target_policy="max_wrong",
                       difficulty="uniform:0.0,1.0")


def k3_below_ramp_config():
    return tiny_config(answer_space_size=3, difficulty="fixed:0.01")


def write_mixed_analysis_input(path, records=240, seed=2026):
    """A trajectory file mixing answer spaces, grid shapes, missing ground
    truth, numeric labels that str() into the space, and blank lines.

    Round 0 answers are right with probability 0.65; each later answer keeps
    the agent's own, copies the previous round's lowest-code plurality, or
    guesses uniformly.
    """
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fp:
        for j in range(records):
            space, n, t = MIXED_SHAPES[int(rng.integers(len(MIXED_SHAPES)))]
            k = len(space)
            truth = int(rng.integers(k))
            grid = [[truth if rng.random() < 0.65 else int(rng.integers(k)) for _ in range(n)]]
            for _ in range(t):
                prev = grid[-1]
                plurality = max(range(k), key=lambda c: (prev.count(c), -c))
                row = []
                for i in range(n):
                    u = rng.random()
                    row.append(prev[i] if u < 0.5 else plurality if u < 0.8 else int(rng.integers(k)))
                grid.append(row)
            as_numbers = k == 4 and rng.random() < 0.5
            label = (lambda c: int(space[c])) if as_numbers else (lambda c: str(space[c]))
            record = {
                "question_id": f"mix-{j:03d}" if j % 7 else j,
                "answer_space": space,
                "ground_truth": None if rng.random() < 0.1 else label(truth),
                "rounds": [[label(c) for c in row] for row in grid],
            }
            fp.write(json.dumps(record) + "\n")
            if j % 17 == 5:
                fp.write("\n" if j % 2 else "   \n")


def digests(out_dir):
    """sha256 of every file in a run directory, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fp:
            out[name] = hashlib.sha256(fp.read()).hexdigest()
    return out


def test_baseline_artifacts_are_pinned(tmp_path):
    run_baseline(tiny_config(), str(tmp_path))
    assert digests(tmp_path) == BASELINE


def test_udpo_artifacts_are_pinned(tmp_path):
    run_udpo(tiny_config(), str(tmp_path))
    assert digests(tmp_path) == UDPO


def test_clip_kl_udpo_artifacts_are_pinned(tmp_path, monkeypatch):
    log_ratios = []
    real_step = optim.gradient_step

    def recording_step(env, state, batch, clip, totals):
        for i in range(env.honest):
            cur, ref = state.policies[i], state.reference[i]
            for m, traj in enumerate(batch.trajectories):
                rho = likelihood_ratio(env, cur, ref, i, batch.questions[m:m + 1], traj)
                log_ratios.append(math.log(rho))
        return real_step(env, state, batch, clip, totals)

    monkeypatch.setattr(optim, "gradient_step", recording_step)
    run_udpo(clip_kl_config(), str(tmp_path))
    assert any(lr != 0.0 for lr in log_ratios)
    assert digests(tmp_path) == CLIP_KL_UDPO


def test_wide_baseline_and_analysis_artifacts_are_pinned(tmp_path):
    base = tmp_path / "base"
    run_baseline(wide_config(), str(base))
    assert digests(base) == WIDE_BASELINE
    analysis = tmp_path / "analysis"
    run_analysis([str(base / "trajectories.jsonl")], tiny_config(), str(analysis))
    assert digests(analysis) == WIDE_ANALYSIS


def test_wide_udpo_artifacts_are_pinned(tmp_path):
    config = wide_udpo_config()
    run_udpo(config, str(tmp_path))
    assert digests(tmp_path) == WIDE_UDPO
    _, state, _, _ = train_pipeline(config)
    assert tuple(s.mean_total_reward for s in state.history) == WIDE_UDPO_MEAN_TOTAL_REWARD


def test_mixed_analysis_artifacts_are_pinned(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_mixed_analysis_input(str(path))
    reports = tmp_path / "reports"
    result = run_analysis([str(path)], tiny_config(), str(reports))
    assert digests(reports) == MIXED_ANALYSIS
    assert [dataclasses.astuple(row) for row in result.rows] == [MIXED_ANALYSIS_ROW]


def test_k12_baseline_artifacts_are_pinned(tmp_path):
    config = k12_config()
    questions = DebateEnv(config.env).generate_questions(config.eval_questions, "eval")
    # the pinned questions reach both sides of the aversion ramp
    assert questions.difficulty.min() < AVERSION_RAMP < questions.difficulty.max()
    run_baseline(config, str(tmp_path))
    assert digests(tmp_path) == K12_BASELINE


def test_k3_below_ramp_baseline_artifacts_are_pinned(tmp_path):
    run_baseline(k3_below_ramp_config(), str(tmp_path))
    assert digests(tmp_path) == K3_BELOW_RAMP_BASELINE


def test_default_config_udpo_artifacts_are_pinned(tmp_path):
    run_udpo(with_seed(ExperimentConfig(), 5), str(tmp_path))
    assert digests(tmp_path) == DEFAULT_SEED5_UDPO


def test_default_config_hash_is_pinned():
    assert config_hash(ExperimentConfig()) == DEFAULT_CONFIG_HASH
