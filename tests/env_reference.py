"""The reference transition that tests compare the env's kept successor rows and env.step against."""

from __future__ import annotations

from entlab.envs import EnvState


def fresh_step(env, state, tokens):
    """_move on the response's content (its tokens before the first terminator, all of them when max_len ended it)
    and a fresh EnvState of the same task one step on, built apart from the env's kept table."""
    if state.done:
        raise ValueError("step called on a terminated state")
    term = env.vocab.terminator_id
    features, valid, success, done = env._move(state, tokens[:tokens.index(term)] if term in tokens else tokens)
    return EnvState(env.kind, state.task_id, state.step_index + 1, features, done, success), valid
