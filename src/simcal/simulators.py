"""Desk-scale black-box generative models behind one rollout interface.

Each model maps a parameter vector to a trajectory of states/actions via
deterministic-given-seed integration. Scripted controllers stand in for
trained policies: the inference method only needs an action source that
excites the dynamics, held identical between training-set generation and
"real" observation generation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergedTrajectoryError

GRAVITY = 9.8
STATE_LIMIT = 1e8  # beyond this we call the trajectory diverged


@dataclass
class Trajectory:
    states: np.ndarray          # (T+1, D_s)
    actions: np.ndarray         # (T, D_a)
    terminated_early: bool = False

    @property
    def length(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class ParamField:
    name: str
    low: float
    high: float


class GenerativeModel:
    """Base simulator: subclasses define dynamics, termination and the
    mutable parameter schema. Rollouts are pure functions of
    (theta, seed, controller)."""

    name: str = ""
    state_dim: int = 0
    action_dim: int = 0
    t_max: int = 200
    mutable_params: tuple = ()

    @property
    def param_names(self):
        return [p.name for p in self.mutable_params]

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != len(self.mutable_params):
            raise ContractError(
                f"{self.name}: expected {len(self.mutable_params)} parameters, "
                f"got {theta.shape[0]}"
            )
        for value, spec in zip(theta, self.mutable_params):
            if not spec.low <= value <= spec.high:
                raise ContractError(
                    f"{self.name}: parameter {spec.name}={value} outside "
                    f"[{spec.low}, {spec.high}]"
                )
        return theta

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def step(self, state: np.ndarray, action: np.ndarray, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def terminated(self, state: np.ndarray) -> bool:
        return False


# ---------------------------------------------------------------------------
# CartPole

def cartpole_step(state, force, *, length, masspole, masscart=1.0, dt=0.02):
    """One explicit-Euler step of the classic cart-pole equations.

    state = (x, x_dot, theta, theta_dot); force in newtons.
    """
    x, x_dot, theta, theta_dot = state
    if not np.all(np.isfinite(state)):
        raise DivergedTrajectoryError("non-finite cart-pole state")
    total_mass = masscart + masspole
    pm_length = masspole * length
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    temp = (force + pm_length * theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        length * (4.0 / 3.0 - masspole * cos_t ** 2 / total_mass)
    )
    x_acc = temp - pm_length * theta_acc * cos_t / total_mass
    return np.array([
        x + dt * x_dot,
        x_dot + dt * x_acc,
        theta + dt * theta_dot,
        theta_dot + dt * theta_acc,
    ])


class CartPole(GenerativeModel):
    """Pole balancing on a cart; mutable pole length and pole mass."""

    name = "cartpole"
    state_dim = 4
    action_dim = 1
    mutable_params = (
        ParamField("length", 0.01, 10.0),
        ParamField("masspole", 0.01, 10.0),
    )
    force_mag = 10.0
    dt = 0.02
    x_threshold = 2.4
    theta_threshold = 12.0 * np.pi / 180.0

    def initial_state(self, rng):
        return rng.uniform(-0.05, 0.05, size=4)

    def step(self, state, action, theta):
        force = self.force_mag * float(np.clip(action[0], -1.0, 1.0))
        return cartpole_step(state, force, length=theta[0], masspole=theta[1],
                             dt=self.dt)

    def terminated(self, state):
        return bool(abs(state[0]) > self.x_threshold
                    or abs(state[2]) > self.theta_threshold)


# ---------------------------------------------------------------------------
# Pendulum

class Pendulum(GenerativeModel):
    """Torque-actuated pendulum; the integration step dt is the mutable
    parameter (mass and length fixed at 1). State is (cos th, sin th,
    th_dot) so statistics see no angle-wrap jumps; th_dot is clamped to
    +-8 to keep coarse-dt rollouts finite."""

    name = "pendulum"
    state_dim = 3
    action_dim = 1
    mutable_params = (ParamField("dt", 0.001, 0.5),)
    max_speed = 8.0
    max_torque = 2.0
    mass = 1.0
    length = 1.0

    def initial_state(self, rng):
        angle = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(-1.0, 1.0)
        return np.array([np.cos(angle), np.sin(angle), speed])

    def step(self, state, action, theta):
        dt = theta[0]
        cos_t, sin_t, speed = state
        angle = np.arctan2(sin_t, cos_t)
        torque = self.max_torque * float(np.clip(action[0], -1.0, 1.0))
        acc = (3.0 * GRAVITY / (2.0 * self.length) * np.sin(angle)
               + 3.0 * torque / (self.mass * self.length ** 2))
        speed = np.clip(speed + dt * acc, -self.max_speed, self.max_speed)
        angle = angle + dt * speed
        return np.array([np.cos(angle), np.sin(angle), speed])


# ---------------------------------------------------------------------------
# Lotka-Volterra

class LotkaVolterra(GenerativeModel):
    """Predator-prey dynamics with four mutable rate constants and a
    small multiplicative forcing on prey growth as the action channel.
    Integrated with fixed-step RK4 (dt = 0.01): Euler is unstable for
    stiff rate combinations."""

    name = "lotka_volterra"
    state_dim = 2
    action_dim = 1
    mutable_params = (
        ParamField("prey_growth", 0.0, 2.0),
        ParamField("predation", 0.0, 2.0),
        ParamField("predator_death", 0.0, 2.0),
        ParamField("predator_growth", 0.0, 2.0),
    )
    dt = 0.01
    init_prey = 1.0
    init_predator = 0.5
    forcing_gain = 0.1

    def initial_state(self, rng):
        return np.array([self.init_prey, self.init_predator])

    def _deriv(self, state, u, theta):
        prey, pred = state
        a, b, c, d = theta
        dprey = a * prey - b * prey * pred + self.forcing_gain * u * prey
        dpred = -c * pred + d * prey * pred
        return np.array([dprey, dpred])

    def step(self, state, action, theta):
        u = float(np.clip(action[0], -1.0, 1.0))
        h = self.dt
        k1 = self._deriv(state, u, theta)
        k2 = self._deriv(state + 0.5 * h * k1, u, theta)
        k3 = self._deriv(state + 0.5 * h * k2, u, theta)
        k4 = self._deriv(state + h * k3, u, theta)
        return state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# Controllers

CONTROLLER_KINDS = ("random_uniform", "bang_bang_energy", "sinusoid")


@dataclass(frozen=True)
class ScriptedController:
    """Deterministic-given-seed action source shared by every model.

    Actions live in [-amplitude, amplitude]^D_a; the per-episode RNG
    mixes the controller seed with the rollout seed.
    """

    kind: str
    seed: int
    amplitude: float = 1.0

    def episode_rng(self, episode_seed: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, episode_seed])

    def act(self, state, t: int, rng: np.random.Generator, action_dim: int) -> np.ndarray:
        if self.kind == "random_uniform":
            return rng.uniform(-self.amplitude, self.amplitude, size=action_dim)
        if self.kind == "sinusoid":
            return np.full(action_dim,
                           self.amplitude * np.sin(2.0 * np.pi * t / 25.0))
        # bang_bang_energy: feedback keyed on the model's state layout
        if len(state) == 4:       # cart-pole: push toward the lean
            u = np.sign(state[2] + 0.5 * state[3]) or 1.0
        elif len(state) == 3:     # pendulum: pump energy with the swing
            u = np.sign(state[2]) or 1.0
        else:
            u = 1.0 if t % 50 < 25 else -1.0
        return np.full(action_dim, self.amplitude * u)


def builtin_controller(kind: str, seed: int, amplitude: float = 1.0) -> ScriptedController:
    if kind not in CONTROLLER_KINDS:
        raise ContractError(f"unknown controller kind {kind!r}")
    return ScriptedController(kind=kind, seed=seed, amplitude=amplitude)


# ---------------------------------------------------------------------------
# Rollout

def rollout(
    model: GenerativeModel,
    theta,
    controller: ScriptedController,
    horizon: int = 200,
    seed: int = 0,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the model under the controller's actions.

    Stops at ``horizon`` (at most 200 steps) or the model's termination
    predicate, whichever comes first.
    """
    if not 1 <= horizon <= 200:
        raise ContractError("horizon must be in [1, 200]")
    theta = model.check_theta(theta)
    rng = controller.episode_rng(seed)
    init_rng = np.random.default_rng([seed, zlib.crc32(model.name.encode())])
    state = (np.asarray(initial_state, dtype=float)
             if initial_state is not None else model.initial_state(init_rng))
    states = [state]
    actions = []
    terminated = False
    for t in range(horizon):
        action = np.asarray(controller.act(state, t, rng, model.action_dim))
        state = model.step(state, action, theta)
        if not np.all(np.isfinite(state)) or np.any(np.abs(state) > STATE_LIMIT):
            raise DivergedTrajectoryError(
                f"{model.name}: state diverged at step {t} for theta={theta.tolist()}"
            )
        states.append(state)
        actions.append(action)
        if model.terminated(state):
            terminated = True
            break
    return Trajectory(
        states=np.asarray(states), actions=np.asarray(actions),
        terminated_early=terminated,
    )


MODELS = {
    "cartpole": CartPole,
    "pendulum": Pendulum,
    "lotka_volterra": LotkaVolterra,
}


def get_model(name: str) -> GenerativeModel:
    if name not in MODELS:
        raise ContractError(f"unknown benchmark {name!r}")
    return MODELS[name]()
