"""Experiment pipelines: baseline, training, attacks, analysis, sweeps.

Every pipeline is a pure function of its configuration: all randomness flows
from the environment seed through keyed streams, artifacts never embed
timestamps, and re-running a pipeline rewrites byte-identical files. All
artifacts are plain text (CSV / JSONL) so other tooling can consume them.

baseline, train, attack and sweep are lists of Arms (label, eval env, trained
or not) that one loop, run_arms, evaluates in order; a pipeline builds every
arm's env before it trains or evaluates anything. Arms whose envs differ only
in compromised_count form a group that draws its eval questions and tilts once,
under its member with the fewest compromised seats. An honest seat's draws do
not depend on the seat count, so each arm plays the first H rows of its group's
tilts and of its policies, and the arms of a group stay paired. A group's last
arm pops the tilts into its evaluate_ensemble call, which frees them before it
profiles. Each distinct (m, N) that leaves no honest majority warns once.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

import numpy as np

from madlab.calibration import (
    calibrate_coefficients,
    split_warmup,
    warmup_profile,
)
from madlab.config import ExperimentConfig, config_hash
from madlab.debate import NO_TRUTH, read_trajectories, write_csv, write_trajectories
from madlab.metrics import (  # noqa: F401  full_profile: perfbench's tracer test patches this binding
    MetricConfig,
    ProfileBatch,
    full_profile,
    profiles_from_codes,
    write_profiles_csv,
)
from madlab.optim import train, write_training_csv
from madlab.policy import DebateEnv, EnvConfig, QuestionSet, derive_key, save_policy
from madlab.rewards import CoefficientSet, total_reward
from madlab.stats import (
    SeparationReport,
    correlation_matrix,
    metric_columns,
    selective_prediction_curve,
    separation_report,
    stratify_by_uncertainty,
    write_correlation_csv,
    write_selective_csv,
    write_separation_csv,
    write_strata_csv,
)

SUMMARY_CSV_HEADER = "label,questions,accuracy,mean_U_intra,mean_U_inter,mean_U_sys"
COEFFICIENTS_CSV_HEADER = "agent,alpha,beta,gamma,lambda,eta"


@dataclass(frozen=True)
class SummaryRow:
    """One evaluation outcome: a labeled accuracy/uncertainty aggregate."""

    label: str
    questions: int
    accuracy: float
    mean_u_intra: float
    mean_u_inter: float
    mean_u_sys: float

    @classmethod
    def from_columns(cls, label: str, correct: np.ndarray, values: Mapping) -> "SummaryRow":
        """Accuracy and mean uncertainty levels over outcome columns (metric_columns' labels)."""
        return cls(
            label=label,
            questions=len(correct),
            accuracy=float(np.mean(correct)),
            mean_u_intra=float(np.mean(values["U_intra"])),
            mean_u_inter=float(np.mean(values["U_inter"])),
            mean_u_sys=float(np.mean(values["U_sys"])),
        )


@dataclass(frozen=True)
class EvalResult:
    """Everything one evaluation pass produces, before persistence, in question order.

    answers[b] is question b's (T+1, N) grid of answer codes.
    """

    questions: QuestionSet
    answers: np.ndarray
    profiles: ProfileBatch
    correct: np.ndarray
    summary: SummaryRow


@dataclass
class PipelineResult:
    """Summary rows plus any warnings a pipeline accumulated."""

    rows: list[SummaryRow]
    warnings: list[str] = field(default_factory=list)


def with_seed(config: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    """Copy of the config with the root seed replaced (CLI --seed override)."""
    if seed is None:
        return config
    return dataclasses.replace(config, env=dataclasses.replace(config.env, seed=seed))


def evaluate_ensemble(
    env: DebateEnv,
    questions: QuestionSet,
    tilts: np.ndarray,
    policies: np.ndarray,
    metric_config: MetricConfig,
    label: str,
) -> EvalResult:
    """Roll out one debate per question on its tilts under the honest seats'
    (H, rows, K) logits and aggregate outcome statistics.

    The summary and every artifact read the batch's ProfileBatch and its
    correctness column, winner code == truth code. Rollout streams are keyed by
    (seed, "eval", question id) only, so a question set replays identically
    under any policies and any number of compromised seats.
    """
    seeds = [derive_key(env.config.seed, "eval", qid) for qid in questions.ids.tolist()]
    _, answers = env.rollout_batch(questions, tilts, policies, seeds)
    del tilts  # a caller that passed the last reference frees them before profiling
    profiles = profiles_from_codes(answers, len(env.answer_space), metric_config)
    correct = profiles.winners == questions.truth
    return EvalResult(
        questions=questions,
        answers=answers,
        profiles=profiles,
        correct=correct,
        summary=SummaryRow.from_columns(label, correct, metric_columns(profiles)),
    )


def write_summary_csv(path_or_fp: str | IO[str], rows: Sequence[SummaryRow]) -> None:
    write_csv(path_or_fp, SUMMARY_CSV_HEADER, map(dataclasses.astuple, rows))


def rewards_csv_header(num_agents: int) -> str:
    totals = ",".join(f"r_total_{i}" for i in range(num_agents))
    return f"question_id,r_intra,r_inter,r_sys,r_task,{totals}"


def write_rewards_csv(
    path_or_fp: str | IO[str],
    result: EvalResult,
    coeffs: CoefficientSet,
) -> None:
    rewards = total_reward(result.profiles, result.correct, coeffs)
    rows = np.column_stack([rewards.r_intra, rewards.r_inter, rewards.r_sys, rewards.r_task,
                            rewards.total]).tolist()
    write_csv(path_or_fp, rewards_csv_header(coeffs.num_agents),
              ([qid, *values] for qid, values in zip(result.questions.ids.tolist(), rows)))


def write_coefficients_csv(path_or_fp: str | IO[str], coeffs: CoefficientSet) -> None:
    write_csv(path_or_fp, COEFFICIENTS_CSV_HEADER,
              zip(range(coeffs.num_agents), coeffs.alpha, coeffs.beta, coeffs.gamma,
                  coeffs.lambda_task, coeffs.eta_anchor))


def _write_eval_artifacts(out_dir: str, result: EvalResult, coeffs: CoefficientSet) -> None:
    write_trajectories(os.path.join(out_dir, "trajectories.jsonl"), result.questions,
                       result.answers, {"difficulty": result.questions.difficulty})
    write_profiles_csv(os.path.join(out_dir, "profiles.csv"), result.questions.ids.tolist(),
                       result.profiles)
    write_rewards_csv(os.path.join(out_dir, "rewards.csv"), result, coeffs)


# --------------------------------------------------------------------- arms


@dataclass(frozen=True)
class Arm:
    """One evaluated ensemble: its summary label, its eval env, and whether its
    honest seats play the trained tables or the env's initial ones."""

    label: str
    env: EnvConfig
    trained: bool = False


def run_arms(
    config: ExperimentConfig,
    out_dir: str,
    arms: Sequence[Arm],
    trained: np.ndarray | None = None,
) -> tuple[list[EvalResult], PipelineResult]:
    """Evaluate the arms in order, trained arms under trained's honest rows (see
    the module docstring); write summary.csv and return each arm's EvalResult."""
    groups = [dataclasses.replace(arm.env, compromised_count=0) for arm in arms]
    os.makedirs(out_dir, exist_ok=True)
    questions: dict[EnvConfig, QuestionSet] = {}
    tilts: dict[EnvConfig, np.ndarray] = {}
    results: list[EvalResult] = []
    warnings: list[str] = []
    for i, (group, arm) in enumerate(zip(groups, arms)):
        m, n = arm.env.compromised_count, arm.env.num_agents
        warning = f"m={m} of {n} agents: no honest majority possible"
        if 2 * m >= n and warning not in warnings:
            warnings.append(warning)
        if group not in questions:
            lead = DebateEnv(min((a.env for g, a in zip(groups, arms) if g == group),
                                 key=lambda e: e.compromised_count))
            questions[group] = lead.generate_questions(config.eval_questions, "eval")
            tilts[group] = lead.batch_tilts(questions[group])
        env = DebateEnv(arm.env)
        policies = trained if arm.trained else env.initial_policies()
        # a group's last arm pops its tilts, so evaluate_ensemble holds their last reference
        results.append(evaluate_ensemble(
            env, questions[group],
            (tilts[group] if group in groups[i + 1:] else tilts.pop(group))[:, :, :env.honest],
            policies[:env.honest], config.metric, arm.label
        ))
    rows = [result.summary for result in results]
    write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
    return results, PipelineResult(rows=rows, warnings=warnings)


# ----------------------------------------------------------------- baseline


def run_baseline(config: ExperimentConfig, out_dir: str) -> PipelineResult:
    """Evaluate the untrained ensemble on a fresh question set."""
    (result,), pipeline = run_arms(config, out_dir, [Arm("baseline", config.env)])
    # all-zero readings: every seat's coefficients at their base values
    coeffs = calibrate_coefficients(np.zeros((3, config.env.num_agents)), config.calibration)
    _write_eval_artifacts(out_dir, result, coeffs)
    return pipeline


# ------------------------------------------------------------------- training


def train_pipeline(
    config: ExperimentConfig,
    zero_components: Sequence[str] = (),
):
    """Shared warm-up -> calibrate -> train core; returns trained state pieces.

    The warm-up rollouts run on their tilts under the untrained ensemble and
    give the per-agent coefficient scaling; zero_components names calibrated
    reward components to switch off.
    """
    env = DebateEnv(config.env)
    train_questions = env.generate_questions(config.train_questions, "train")
    train_tilts = env.batch_tilts(train_questions)
    warmup_questions, optimisation_questions = split_warmup(
        train_questions, config.calibration.warmup_fraction
    )
    warm = len(warmup_questions)
    seeds = [derive_key(config.env.seed, "warmup", qid) for qid in warmup_questions.ids.tolist()]
    _, answers = env.rollout_batch(warmup_questions, train_tilts[:warm], env.initial_policies(),
                                   seeds)
    readings = warmup_profile(answers, len(env.answer_space), config.metric)
    coeffs = calibrate_coefficients(readings, config.calibration).zeroed(*zero_components)
    state, buffer = train(
        env,
        optimisation_questions,
        train_tilts[warm:],
        coeffs,
        config.clip,
        config.metric,
        seed=config.env.seed,
        replay_config=config.replay,
    )
    return env, state, buffer, coeffs


def run_udpo(
    config: ExperimentConfig,
    out_dir: str,
    zero_components: Sequence[str] = (),
) -> PipelineResult:
    """Train the ensemble and evaluate it on held-out questions.

    Writes one policy file per honest agent, the per-iteration training
    curve, the replay-buffer contents, and a two-row summary comparing the
    untrained and trained ensembles on the same held-out set.
    """
    arms = [Arm("baseline", config.env), Arm("trained", config.env, trained=True)]
    env, state, buffer, coeffs = train_pipeline(config, zero_components)
    (_, trained_result), pipeline = run_arms(config, out_dir, arms, state.policies)
    digest = config_hash(config)
    for i in range(env.honest):
        save_policy(
            os.path.join(out_dir, f"policy_agent_{i}.txt"),
            env.answer_space,
            state.policies[i],
            i,
            digest,
        )
    write_training_csv(os.path.join(out_dir, "training_metrics.csv"), state.history)
    if buffer is not None:
        buffer.dump(os.path.join(out_dir, "replay_buffer.jsonl"))
    write_coefficients_csv(os.path.join(out_dir, "coefficients.csv"), coeffs)
    _write_eval_artifacts(out_dir, trained_result, coeffs)
    return pipeline


# --------------------------------------------------------------------- attack


def run_attack(
    config: ExperimentConfig,
    out_dir: str,
    m_values: Sequence[int],
) -> PipelineResult:
    """Compare trained and untrained ensembles under compromised seats.

    Trains once on the clean environment, then re-evaluates both arms with
    the last m seats replaced by adversaries, for each requested m.
    """
    clean_env = dataclasses.replace(config.env, compromised_count=0)
    # EnvConfig refuses a bad m, so every arm is checked before training
    envs = [("clean", clean_env)] + [
        (f"m{m}", dataclasses.replace(clean_env, compromised_count=m)) for m in m_values
    ]
    arms = [Arm(f"{ensemble}_{tag}", env, trained=ensemble == "trained")
            for tag, env in envs for ensemble in ("untrained", "trained")]
    _, state, _, _ = train_pipeline(dataclasses.replace(config, env=clean_env))
    return run_arms(config, out_dir, arms, state.policies)[1]


# ------------------------------------------------------------------- analysis


ANALYSIS_CHUNK = 4096  # trajectories per profiles_from_codes call; bounds its memory
ANALYSIS_REPORTS = ("separation.csv", "correlation.csv", "selective.csv", "strata.csv")


def _read_outcomes(
    paths: Sequence[str], metric_config: MetricConfig
) -> tuple[list[str], np.ndarray, dict[str, np.ndarray], int]:
    """Question ids, correctness and metric columns of the supervised records
    of the trajectory files, in input order, and the count of the others. The
    files' buffers and the chunks' columns are freed when this returns."""
    chunks = []  # (input positions, correct, metric columns) of each chunk
    ids: list[str] = []
    skipped = offset = 0
    for path in paths:
        trajectories = read_trajectories(path)
        for g in trajectories.groups:
            supervised = np.flatnonzero(g.truth != NO_TRUTH)
            skipped += len(g.truth) - len(supervised)
            in_input = offset + np.asarray(g.positions)
            for start in range(0, len(supervised), ANALYSIS_CHUNK):
                chunk = supervised[start : start + ANALYSIS_CHUNK]
                profiles = profiles_from_codes(g.codes[chunk], len(g.answer_space), metric_config)
                chunks.append((in_input[chunk],
                               profiles.winners == g.truth[chunk], metric_columns(profiles)))
                ids += [g.question_ids[j] for j in chunk.tolist()]
        offset += len(trajectories)
    if not chunks:
        return ids, np.zeros(0, dtype=bool), {}, skipped
    positions, hits, columns = zip(*chunks)
    order = np.argsort(np.concatenate(positions))
    values = {name: np.concatenate([c[name] for c in columns])[order] for name in columns[0]}
    return [ids[j] for j in order.tolist()], np.concatenate(hits)[order], values, skipped


def run_analysis(
    paths: Sequence[str],
    config: ExperimentConfig,
    out_dir: str,
) -> PipelineResult:
    """Build the statistics reports from trajectory files.

    Accepts any .jsonl in the trajectory format, including externally
    produced transcripts that mix answer spaces and grid shapes: each file's
    answer codes are profiled per shape group, ANALYSIS_CHUNK records at a
    time; the reports and the summary row read the chunks' metric columns,
    correctness and question ids, concatenated back into input order. Records
    without ground truth are excluded from accuracy-dependent reports with a
    count warning; degenerate inputs (too few records, or zero variance)
    downgrade individual reports to warnings instead of failing the run. Once
    the input is read, reports an earlier run left in out_dir are removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    warnings: list[str] = []
    question_ids, correct, values, skipped = _read_outcomes(paths, config.metric)
    separation, correlation, selective, strata = reports = [
        os.path.join(out_dir, name) for name in ANALYSIS_REPORTS
    ]
    for report in reports:
        if os.path.exists(report):
            os.remove(report)
    if skipped:
        warnings.append(
            f"excluded {skipped} trajectories without ground truth from "
            "accuracy-dependent reports"
        )
    if not question_ids:
        warnings.append("no usable trajectories: all reports skipped")
        return PipelineResult(rows=[], warnings=warnings)

    try:
        write_separation_csv(separation, separation_report(values, correct))
    except ValueError as exc:
        warnings.append(f"separation report skipped: {exc}")
        write_separation_csv(separation, SeparationReport(rows=()))

    try:
        labels, matrix = correlation_matrix(values, correct)
        write_correlation_csv(correlation, labels, matrix)
    except ValueError as exc:
        warnings.append(f"correlation matrix skipped: {exc}")

    u_sys = values["U_sys"]
    curve = selective_prediction_curve(u_sys, correct, question_ids, config.k_grid)
    write_selective_csv(selective, curve)
    write_strata_csv(strata, stratify_by_uncertainty(u_sys, correct, boundaries=config.strata_bins))

    row = SummaryRow.from_columns("analysis", correct, values)
    return PipelineResult(rows=[row], warnings=warnings)


# ---------------------------------------------------------------------- sweep


SWEEP_AXES = {"agents": "num_agents", "rounds": "rounds", "compromised": "compromised_count"}


def run_sweep(
    config: ExperimentConfig,
    out_dir: str,
    axis: str,
    values: Sequence[int],
) -> PipelineResult:
    """Baseline evaluation per axis value, one summary row each."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one axis value")
    # EnvConfig refuses a bad value, so every value is checked before the first evaluation
    arms = [Arm(f"{axis}={v}", dataclasses.replace(config.env, **{SWEEP_AXES[axis]: v}))
            for v in values]
    return run_arms(config, out_dir, arms)[1]
