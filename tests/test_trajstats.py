import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from simcal.errors import ContractError
from simcal.simulators import Rollouts
from simcal.trajstats import (
    StatsSchema,
    compute_stats,
    fit_standardizer,
    real_observation,
)


def stat_dim(ds, da):
    """The documented statistic length, D_s * D_a + 2 * D_s."""
    return ds * da + 2 * ds


def traj(states, actions):
    """One episode of (T+1, D_s) states and (T, D_a) actions."""
    return np.asarray(states, float), np.asarray(actions, float)


def batch(trajs):
    """Equal-length episodes as one batch of rollouts."""
    trajs = list(trajs)
    n = len(trajs)
    flags = np.zeros(n, dtype=bool)
    return Rollouts(
        thetas=np.zeros((n, 0)),
        states=np.array([states for states, _ in trajs]),
        actions=np.array([actions for _, actions in trajs]),
        lengths=np.array([len(actions) for _, actions in trajs], dtype=int),
        terminated=flags, diverged=flags,
    )


def stats(t):
    """Statistics of one episode, through a one-row batch."""
    return compute_stats(batch([t]))[0]


def test_hand_computed_example():
    t = traj([[0.0], [1.0], [3.0]], [[1.0], [1.0]])
    got = stats(t)
    # tau = [1, 2]; cross = (1 + 2)/2; mean = 1.5; population var = 0.25
    np.testing.assert_allclose(got, [1.5, 1.5, 0.25])


def test_constant_states_all_zero():
    t = traj([[2.0, 3.0]] * 5, [[1.0]] * 4)
    np.testing.assert_allclose(stats(t), 0.0)


def test_cross_block_matches_direct_loop():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(21, 3))
    actions = rng.normal(size=(20, 2))
    got = stats(traj(states, actions))
    tau = np.diff(states, axis=0)
    direct = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            direct[i, j] = sum(tau[t, i] * actions[t, j] for t in range(20)) / 20
    np.testing.assert_allclose(got[:6], direct.ravel(), atol=1e-12)
    np.testing.assert_allclose(got[6:9], tau.mean(axis=0))
    np.testing.assert_allclose(got[9:], tau.var(axis=0))


def test_too_short_trajectory():
    with pytest.raises(ContractError):
        stats(traj([[0.0], [1.0]], [[1.0]]))


def test_offset_invariance():
    rng = np.random.default_rng(1)
    states = rng.normal(size=(11, 2))
    actions = rng.normal(size=(10, 1))
    a = stats(traj(states, actions))
    b = stats(traj(states + 17.3, actions))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pattern_repetition_invariance():
    rng = np.random.default_rng(2)
    tau = rng.normal(size=(10, 2))
    actions = rng.normal(size=(10, 1))
    states = np.vstack([np.zeros(2), np.cumsum(tau, axis=0)])
    once = stats(traj(states, actions))
    states2 = np.vstack([np.zeros(2), np.cumsum(np.tile(tau, (2, 1)), axis=0)])
    twice = stats(traj(states2, np.tile(actions, (2, 1))))
    np.testing.assert_allclose(once[:2], twice[:2], atol=1e-12)


@given(st.integers(1, 4), st.integers(1, 3))
def test_output_length(ds, da):
    rng = np.random.default_rng(ds * 10 + da)
    t = traj(rng.normal(size=(6, ds)), rng.normal(size=(5, da)))
    assert stats(t).shape == (stat_dim(ds, da),)


# -- standardizer -----------------------------------------------------------

def test_two_point_standardization():
    schema = fit_standardizer(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]), 1, 1)
    np.testing.assert_allclose(schema.mean, 1.0)
    np.testing.assert_allclose(schema.std, 1.0)
    np.testing.assert_allclose(schema.standardize(np.zeros(3)), -1.0)


def test_constant_dimension_floored():
    raw = np.array([[1.0, 5.0, 0.0], [1.0, 7.0, 0.0]])
    schema = fit_standardizer(raw, 1, 1)
    out = schema.standardize(raw)
    np.testing.assert_allclose(out[:, 0], 0.0)
    np.testing.assert_allclose(out[:, 2], 0.0)


def test_standardized_training_set_moments():
    rng = np.random.default_rng(3)
    raw = rng.normal(3.0, 2.5, size=(500, 9))
    schema = fit_standardizer(raw, 3, 1)
    std = schema.standardize(raw)
    assert np.max(np.abs(std.mean(axis=0))) < 1e-10
    assert np.max(np.abs(std.std(axis=0) - 1.0)) < 1e-10


def test_standardizer_needs_two_vectors():
    with pytest.raises(ContractError):
        fit_standardizer(np.zeros((1, 3)), 1, 1)


# -- real observation -------------------------------------------------------

def _random_traj(rng, ds=2, da=1, t=12):
    return traj(rng.normal(size=(t + 1, ds)), rng.normal(size=(t, da)))


def test_real_observation_single_trajectory():
    rng = np.random.default_rng(4)
    t = _random_traj(rng)
    schema = fit_standardizer(rng.normal(size=(20, stat_dim(2, 1))), 2, 1)
    np.testing.assert_allclose(
        real_observation(batch([t]), schema), schema.standardize(stats(t))
    )


def test_real_observation_idempotent_mean():
    rng = np.random.default_rng(5)
    t = _random_traj(rng)
    schema = fit_standardizer(rng.normal(size=(20, stat_dim(2, 1))), 2, 1)
    np.testing.assert_allclose(
        real_observation(batch([t] * 10), schema), real_observation(batch([t]), schema)
    )


def test_real_observation_empty_list():
    schema = fit_standardizer(np.zeros((2, 3)) + [[0], [1]], 1, 1)
    with pytest.raises(ContractError):
        real_observation(batch([]), schema)


def test_real_observation_separates_far_parameters():
    from simcal.simulators import builtin_controller, get_model, rollout

    model = get_model("cartpole")
    ctrl = builtin_controller("random_uniform", seed=6)
    near, far = [0.5, 0.3], [1.8, 1.6]

    def stats_for(theta, base, n=10):
        rollouts = rollout(model, [theta] * n, ctrl, seed=base + np.arange(n))
        rollouts.check()
        return compute_stats(rollouts)

    train = stats_for([1.0, 1.0], 100, n=50)
    schema = fit_standardizer(train, model.state_dim, model.action_dim)

    xr_near = [schema.standardize(np.mean(stats_for(near, 1000 * r), axis=0))
               for r in range(5)]
    xr_far = schema.standardize(np.mean(stats_for(far, 0), axis=0))
    center = np.mean(xr_near, axis=0)
    within = np.mean([np.linalg.norm(x - center) for x in xr_near])
    between = np.linalg.norm(xr_far - center)
    assert between > 3 * within


@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(2, 12),
       st.integers(1, 3), st.integers(1, 2))
@example(seed=0, n=0, t=2, ds=2, da=1)  # an empty batch gives (0, stat_dim)
def test_ragged_batch_equals_trimmed_rows(seed, n, t, ds, da):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, t + 1, size=n)
    # steps past each row's length hold unrelated values; they must not count
    rollouts = Rollouts(
        thetas=np.zeros((n, 0)),
        states=rng.normal(size=(n, t + 1, ds)),
        actions=rng.normal(size=(n, t, da)),
        lengths=lengths, terminated=np.zeros(n, dtype=bool),
        diverged=np.zeros(n, dtype=bool),
    )
    got = compute_stats(rollouts)
    assert got.shape == (n, stat_dim(ds, da))
    for i, length in enumerate(lengths):
        row = traj(rollouts.states[i, :length + 1], rollouts.actions[i, :length])
        np.testing.assert_allclose(got[i], stats(row),
                                   rtol=1e-12, atol=1e-12)


def test_batch_with_a_short_row_rejected():
    rollouts = batch([traj([[0.0], [1.0], [3.0]], [[1.0], [1.0]])] * 2)
    rollouts.lengths[1] = 1
    with pytest.raises(ContractError):
        compute_stats(rollouts)
