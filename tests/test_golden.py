"""Pinned sha256 digests of every pipeline artifact.

A refactor proves it keeps behaviour by leaving these literals unchanged. A
deliberate change of random streams or semantics updates them in the same
change and says why. The wide variant (5 agents, 5 rounds, one compromised
seat) covers the distractor flare, the adversary and the 5-voter
leave-one-out paths that the 3-agent tiny config never reaches. The clip/KL
variant refreshes the reference every third iteration, so the likelihood
ratio moves off 1 and the clip test and the KL gradient act on the digests.
The K = 12 baseline (9 rounds, 3 bins, two max_wrong seats, difficulty over
all of [0, 1]) draws longer normal vectors, fires flares and sits on both
sides of AVERSION_RAMP; the K = 3 baseline at fixed difficulty 0.01 sits
below the ramp, where the aversion fades and the signal persists. The mixed
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
from madlab.harness import run_analysis, run_baseline, run_udpo, with_seed
from madlab.optim import ClipConfig
from madlab.policy import AVERSION_RAMP, DebateEnv
from reference_impl import likelihood_ratio
from test_harness import tiny_config

BASELINE = {
    "profiles.csv": "ae97a676fd88a0d30d4f5387308748612c2703e521a65c07db749856b8ff8eae",
    "rewards.csv": "9061ad8e2ba74810bcc8b3b438f3a585dd07ccc4fd7d34b0ece1f8b09ed94ca6",
    "summary.csv": "4a062ac6df3e4580c3a734da7b174af17d87223febbe6d73b016d437c52d751c",
    "trajectories.jsonl": "b727a9712be18330fd0f605d2ab03d82dabae8e83d20e4717e1063a6c14b553c",
}

UDPO = {
    "coefficients.csv": "21ae7dfea05907204ee44076d3d6506bf9ebb8439c0df260af7a857543c9cf4e",
    "policy_agent_0.txt": "5e1237b408a66c4306e918e48940a0b82f044748f34fa0ec83da30302588e556",
    "policy_agent_1.txt": "720129304620ee9866aa3899c377b3c48383aa6bb8ab442b0e141b08cdc7a35d",
    "policy_agent_2.txt": "0bbf97c258070a75a6dd5973b88d83a2921a99b73a8f31f92ef8ee33005a31b4",
    "profiles.csv": "0cdd97139650d1ce495a029cc46dea09fb09703b3567a0c6edf0d7a320f69f9d",
    "replay_buffer.jsonl": "8e7fddc7eae9dbabf5449ac0643b44b8cf5f906c20ba1d677ba447ce4cda4d54",
    "rewards.csv": "76016e9b3d782f309e110ebb60e472aa19992196c6856ce85a0426c7088d422a",
    "summary.csv": "0f99bdfb43c0cd55ad1bc0bd32951aba124d8eb981dd38592a94d44646e04b2c",
    "training_metrics.csv": "b2f9ddc47ac8d1f75946eedb473e799c16ee4f0a1838344b266d1cb027c0ea15",
    "trajectories.jsonl": "67af1b8cf9164220e377589f534d3cfa9c301302606e9c311f0392e1a990f887",
}

WIDE_BASELINE = {
    "profiles.csv": "657785704af328b8450ef6b1b764c84204dbd345ec400be4fe594ce957d5ad65",
    "rewards.csv": "c7509a0fa0f9404098dffe4ab3b086fea258f0022466150cd19ff68657b4710e",
    "summary.csv": "05644bfcf788f8c040162f6932a4136e21fd1f928d58e487c565933a0b420ffe",
    "trajectories.jsonl": "78fae530a3d0086275b821247c41575da3d028aaa8ec66027d0945b228282f66",
}

WIDE_ANALYSIS = {
    "correlation.csv": "b7e1db6a28ef38efa00c032b496fa4be34c299aa63eda0404ebf930afebac6b2",
    "selective.csv": "5430715f06c1c940592529dccbfa4358a1130057fc5ddd139763947c82157e8c",
    "separation.csv": "4e34f25c973e4317ca1d7b5333e39d2f907e31f052f02ceadf027a2f99c5cf73",
    "strata.csv": "dd440715d3fdcfc2051231a29fb964f09cd038e738e2d2e94592b403fe3e75d0",
}

CLIP_KL_UDPO = {
    "coefficients.csv": "ff3886b12a1d613c764ea3e3f09fe76a6e9dce823f6a5e6176eaa9e6d43f9fdb",
    "policy_agent_0.txt": "c442887f7032015a0dd1753e831f3a35356e7f0b63bdfbbd0b3c428cbf22d29f",
    "policy_agent_1.txt": "f34844cc58f234aaa5005e8ca0cbf5dcd23525e0cd901670b7d4d703850ba544",
    "policy_agent_2.txt": "949b4cb87a7d0cfffca59da5c354a14acd9cf91223e12b01d27fd46c43fd0a55",
    "profiles.csv": "627c0b3d1ecd9be29c17e3d9a756c4e31a06f383bd3f4f7c86690fa5d6710563",
    "replay_buffer.jsonl": "1040d1d6da7a2d7b6604380196cdd6ee13d91b112c450d9bae32d04913451bc7",
    "rewards.csv": "4f27774e101b93b6fa086c4bf178ba81d6b09e897b0580b29772e3988361a246",
    "summary.csv": "07e1252b727b7ded73dbf678dc38e2602067b24952e7c80d9b551ca8aad66047",
    "training_metrics.csv": "32505cea8f8d2efaa2ea44b5c8e7b98a240c5e45226529a77bba3968efad593c",
    "trajectories.jsonl": "06e1e7c16be606df387e8965b1cbf3db8b78e0674aafb23975ebd012a68a4e19",
}

K12_BASELINE = {
    "profiles.csv": "000fcfed89dcb4c829f1be581600ab978e04936800ca17be9aa3ed1b40a0a37c",
    "rewards.csv": "ae978ab7833cc78a6239a1668afbb30d2c7f9e00da3efa983236e62b554d8201",
    "summary.csv": "6a9ace48a4a07b11074f26394c081e55e63c6de2f905120d9ceddabcfa3a8f4d",
    "trajectories.jsonl": "272e2d91e5796fdf2373132602b207474fbd1cfd7acfc7acdf4529a943de0fdb",
}

K3_BELOW_RAMP_BASELINE = {
    "profiles.csv": "cfe5ff92139ff940a4236baa366263a0a48fb909a20d08aea9d67c2d81895843",
    "rewards.csv": "eb0d54f2282c2999aaf8100f9d0e65c9eaf502734df5c7e33eeb16d566731d02",
    "summary.csv": "0cf4fa8f66e395f7067569b93fb3a1b5ec56b8d14a8a895806fd337c321d610c",
    "trajectories.jsonl": "04a3970da3c30549b5d06d22211e916d94daa2012d68dffd2dd8e36cc4e5c6dc",
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
    "coefficients.csv": "5c708890e878faf1c0ed1f5c0b0984bd7015ec89422213dee0a2e93492e2a6dd",
    "policy_agent_0.txt": "e4c3288d908bb158628fa1726e1381dfb39f2121437818577e0533444ec815d1",
    "policy_agent_1.txt": "7ccc06e5cd10e7a93055d57545b5193e883f4af297009d5ed277a154651850ee",
    "policy_agent_2.txt": "85cbcabf081455ab9907fa2cd2081e6403d732fb4d3abb82046d33497d886a14",
    "policy_agent_3.txt": "9e8a010fa29a1984ab2d7a7abfee2bada0169fd4b4054f4ea7acfdd728098e8b",
    "policy_agent_4.txt": "12e487f9d7e370dc1496891c2c408dc2eb5f2554f2995667e245297ebfc89d60",
    "profiles.csv": "a8836bac2585f9e633531aefde6fb4fa858b9c5bea2f6b8196e0cdc4264f1f7c",
    "replay_buffer.jsonl": "ea7836e07c8748202f22a439766fb44a0fd002da1881c0ff81838d31b8223704",
    "rewards.csv": "f065d8d6342d785fc16dbe57db908bd7dc0eacc31e5927cf1f90278e610d9c04",
    "summary.csv": "ff0675e15caf460713236ad0e8bba681975714f0ede9f3644bd8408f21d944d4",
    "training_metrics.csv": "10a14398d9243520c5c8d6c0ea73cef4715128d05da71c44098c408852030ca8",
    "trajectories.jsonl": "70d2d5cd211968c0c4dacf785258956798732549fee52eb127694c7f21c40904",
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
        for i in env.honest_indices:
            cur, ref = state.policies[i], state.reference[i]
            for q, traj in zip(batch.questions, batch.trajectories):
                rho = likelihood_ratio(env, cur, ref, i, q, traj)
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
    assert min(q.difficulty for q in questions) < AVERSION_RAMP < max(q.difficulty for q in questions)
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
