"""The sequential rollout that tests compare the lockstep collector against."""

from __future__ import annotations

from entlab.envs import terminal_reward
from entlab.policy import sample_response
from entlab.rollout import Group, Trajectory, Turn
from env_reference import fresh_step


def sequential_group(policy, env, prompt_id, scheme, rngs):
    """Each rollout played alone to termination on its own generator, one after another: every response is
    sampled through a new snapshot of the TablePolicy, so nothing is shared across turns, and every turn is
    the fresh-_move reference step, built apart from the env's kept table."""
    trajectories = []
    for i, rng in enumerate(rngs):
        state, turns = env.reset(prompt_id), []
        while not state.done:
            response = sample_response(policy, state.policy_key, rng)
            nxt, valid = fresh_step(env, state, response.tokens)
            turns.append(Turn(rollout_index=i, turn_index=len(turns), state=state, response=response, valid=valid))
            state = nxt
        traj = Trajectory(prompt_id, turns, state)
        traj.reward = terminal_reward(traj, scheme)
        trajectories.append(traj)
    return Group(prompt_id, trajectories)
