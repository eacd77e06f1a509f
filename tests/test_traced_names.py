"""Every function the benchmark's traced run wraps still resolves.

perfbench/tracer.py looks each traced name up with ``vars(owner)[attr]``, so a
rename or a move in src/madlab breaks the traced run. This checks each name in
perfbench/layers.py's TRACED and WRITERS tables through the tracer's own
install and uninstall; conftest's layers fixture imports that file without
writing anything under perfbench/.
"""

import importlib
import inspect

import pytest

import madlab
from madlab import harness, metrics, optim, policy


def test_every_traced_name_resolves_like_the_tracer(layers):
    names = [name for name, _, _ in layers.TRACED] + [name for name, _ in layers.WRITERS]
    for name in names:
        module, qualname = name.split(".", 1)
        tracer = layers.Tracer()
        try:
            patched = tracer.install(name, f"madlab.{module}", qualname)
        except (KeyError, AttributeError) as exc:
            pytest.fail(f"traced name {name} no longer resolves: {exc!r}")
        finally:
            tracer.uninstall()
        assert patched >= 1, f"traced name {name} patched no binding"


def test_traced_amounts_read_the_arguments_they_expect(layers):
    # layers.py records gradient_step's batch size from its third argument and
    # each writer's bytes from the path in its first (ReplayBuffer.dump's
    # second, after self).
    assert list(inspect.signature(optim.gradient_step).parameters)[2] == "batch"
    for name, _ in layers.WRITERS:
        module, *owners, attr = name.split(".")
        holder = importlib.import_module(f"madlab.{module}")
        for owner in owners:
            holder = getattr(holder, owner)
        assert list(inspect.signature(getattr(holder, attr)).parameters)[len(owners)] == \
            "path_or_fp", name


def test_traced_batch_size_reads_the_batch_collect_batch_returns(layers):
    # gradient_step's amount is len(batch.trajectories): the batch's slot count
    env = policy.DebateEnv(policy.EnvConfig(num_agents=3, rounds=2, compromised_count=1))
    questions = env.generate_questions(7, "t")
    policies = env.initial_policies()
    batch = optim.collect_batch(env, questions, env.batch_tilts(questions), policies, 0,
                                rollout_seed=1, weights=[1.0] * 7)
    state = optim.TrainState(policies=policies, reference=policies, ref_version=0, coeffs=None)
    assert layers._batch_trajectories((env, state, batch), {}, None) == len(questions)


def test_modules_keep_the_bindings_the_tracer_test_patches():
    # perfbench's test_tracer_patches_every_binding_and_restores_them checks
    # that patching metrics.full_profile also patches the package's and these
    # modules' bindings; harness and optim keep their import for that test alone.
    for module in (madlab, harness, optim):
        assert vars(module)["full_profile"] is metrics.full_profile, module.__name__
