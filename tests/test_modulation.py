"""Tests for the self-calibrated entropy modulation pipeline and its ablation modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entlab.advantage import AdvantageTable
from entlab.modulation import (
    DEGENERATE_RANGE,
    MODES,
    apply_modulation,
    group_minmax_normalize,
    modulate_batch,
    modulation_coeffs,
    response_entropy_proxy,
)
from entlab.policy import Response
from entlab.rollout import Group, ResponseSpan


def _span(i, t, entropies):
    n = len(entropies)
    return ResponseSpan(i, t, "s", Response(tokens=[0] * n, logprobs=[-1.0] * n, entropies=list(entropies)))


def _modulate(group, mode="aem", **kwargs):
    return modulate_batch([group], mode, **kwargs)[0]


def _group_from_entropies(per_span):
    """Group with one single-turn span per rollout, one entropy list each."""
    spans = [_span(i, 0, ent) for i, ent in enumerate(per_span)]
    return Group(prompt_id=0, trajectories=[], spans=spans)


def _random_group(rng, multi_turn=False, spread=1.5):
    n = int(rng.integers(2, 9))
    spans = []
    for i in range(n):
        turns = int(rng.integers(1, 4)) if multi_turn else 1
        for t in range(turns):
            length = int(rng.integers(1, 5))
            spans.append(_span(i, t, rng.uniform(0.0, spread, size=length).tolist()))
    return Group(prompt_id=0, trajectories=[], spans=spans)


def test_proxy_is_length_normalized():
    s = _span(0, 0, [0.2, 0.8, 0.5])
    assert response_entropy_proxy(s.response) == pytest.approx(0.5)


def test_minmax_normalization_and_degenerate_guard():
    normalized, degenerate = group_minmax_normalize([0.2, 0.5, 0.8])
    assert not degenerate
    assert normalized[0] == pytest.approx(0.0)
    assert normalized[2] == pytest.approx(1.0, rel=1e-7)
    flat, degenerate = group_minmax_normalize([0.50, 0.55, 0.59])
    assert degenerate and flat is None
    assert DEGENERATE_RANGE == 0.1


def test_forward_worked_values():
    alphas = modulation_coeffs([0.0, 0.5, 1.0], lam=1.0)
    np.testing.assert_allclose(alphas, [1.519442, 0.921588, 0.558971], atol=1e-5)


def test_reverse_worked_values():
    alphas = modulation_coeffs([0.0, 0.5, 1.0], lam=-1.0)
    np.testing.assert_allclose(alphas, [0.558971, 0.921588, 1.519442], atol=1e-5)


def test_self_calibration_mean_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 12))).tolist()
        alphas = modulation_coeffs(h, lam=float(rng.uniform(0.2, 3.0)))
        assert abs(sum(alphas) / len(alphas) - 1.0) < 1e-6


def test_alpha_strictly_decreasing_in_h_tilde():
    rng = np.random.default_rng(1)
    for _ in range(100):
        h = sorted(set(rng.uniform(0.0, 1.0, size=6).tolist()))
        alphas = modulation_coeffs(h, lam=1.0)
        assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_pipeline_matches_straight_line_rewrite():
    """The packaged pipeline agrees bit-for-bit with a flat transcription of it."""
    rng = np.random.default_rng(2)
    lam, eps = 1.0, 1e-8
    for _ in range(300):
        group = _random_group(rng, multi_turn=bool(rng.integers(2)))
        mod = _modulate(group, lam=lam, eps=eps)
        h_bars = [sum(s.response.entropies) / len(s.response.entropies) for s in group.spans]
        mn, mx = min(h_bars), max(h_bars)
        if mx - mn < 0.1:
            expect = [1.0] * len(h_bars)
        else:
            h_tilde = [(h - mn) / (mx - mn + eps) for h in h_bars]
            raw = [math.exp(-lam * h) for h in h_tilde]
            mean_raw = sum(raw) / len(raw)
            expect = [r / (mean_raw + eps) for r in raw]
        got = [mod.alpha[(s.rollout_index, s.turn_index)] for s in group.spans]
        assert got == expect  # bit-for-bit, no tolerance


def test_degenerate_group_gets_identity_coefficients():
    group = _group_from_entropies([[0.5], [0.52], [0.55]])
    mod = _modulate(group)
    assert mod.degenerate
    assert all(a == 1.0 for a in mod.alpha.values())
    assert all(ht is None for ht in mod.h_tilde.values())


def test_reverse_mode_flips_ordering():
    group = _group_from_entropies([[0.2], [0.5], [0.8]])
    fwd = _modulate(group, "aem")
    rev = _modulate(group, "reverse")
    f = [fwd.alpha[(i, 0)] for i in range(3)]
    r = [rev.alpha[(i, 0)] for i in range(3)]
    np.testing.assert_allclose(r, f[::-1], atol=1e-6)
    np.testing.assert_allclose(f, [1.519442, 0.921588, 0.558971], atol=1e-5)


def test_shuffle_mode_permutes_the_same_multiset():
    group = _group_from_entropies([[0.1], [0.4], [0.7], [1.0]])
    base = _modulate(group, "aem")
    shuf = _modulate(group, "shuffle", rng=np.random.default_rng(0))
    assert sorted(shuf.alpha.values()) == pytest.approx(sorted(base.alpha.values()))
    again = _modulate(group, "shuffle", rng=np.random.default_rng(0))
    assert shuf.alpha == again.alpha
    with pytest.raises(ValueError):
        _modulate(group, "shuffle")
    with pytest.raises(ValueError):  # checked up front, even with nothing to permute
        modulate_batch([], "shuffle")


def test_traj_norm_normalizes_per_trajectory():
    spans = [
        _span(0, 0, [0.0]),
        _span(0, 1, [1.0]),
        _span(1, 0, [0.3]),
        _span(1, 1, [0.32]),
    ]
    group = Group(prompt_id=0, trajectories=[], spans=spans)
    mod = _modulate(group, "traj_norm")
    # rollout 0 has range 1.0: active population of size two
    a00, a01 = mod.alpha[(0, 0)], mod.alpha[(0, 1)]
    expect = modulation_coeffs(group_minmax_normalize([0.0, 1.0])[0], lam=1.0)
    np.testing.assert_allclose([a00, a01], expect, rtol=1e-12)
    # rollout 1 has range 0.02: degenerate on its own
    assert mod.alpha[(1, 0)] == 1.0 and mod.alpha[(1, 1)] == 1.0
    assert not mod.degenerate  # only one of the two populations hit the guard


def test_batch_norm_pools_across_groups():
    g1 = _group_from_entropies([[0.0], [0.01]])
    g2 = _group_from_entropies([[1.0], [0.99]])
    sets = modulate_batch([g1, g2], mode="batch_norm")
    pooled = modulation_coeffs(
        group_minmax_normalize([0.0, 0.01, 1.0, 0.99])[0], lam=1.0
    )
    got = [sets[0].alpha[(0, 0)], sets[0].alpha[(1, 0)], sets[1].alpha[(0, 0)], sets[1].alpha[(1, 0)]]
    np.testing.assert_allclose(got, pooled, rtol=1e-12)
    # per-group both would be degenerate; pooling activates them
    assert _modulate(g1).degenerate and _modulate(g2).degenerate
    assert not sets[0].degenerate and not sets[1].degenerate


def test_modulate_batch_defers_to_per_group_modes():
    """In the modes whose population lies inside one group, a batch equals its groups one by one."""
    rng = np.random.default_rng(3)
    groups = [_random_group(rng, multi_turn=True) for _ in range(4)]
    for mode in ("aem", "reverse", "traj_norm"):
        sets = modulate_batch(groups, mode=mode)
        for group, got in zip(groups, sets):
            ref = _modulate(group, mode)
            assert got.alpha == ref.alpha and got.h_tilde == ref.h_tilde and got.degenerate == ref.degenerate


def test_unknown_mode_rejected():
    group = _group_from_entropies([[0.1], [0.9]])
    for mode in ("softmax", "off"):
        with pytest.raises(ValueError):
            _modulate(group, mode)
        with pytest.raises(ValueError):  # checked up front, even for an empty batch
            modulate_batch([], mode)


def test_empty_batch_gives_no_sets():
    for mode in MODES[1:]:
        assert modulate_batch([], mode, rng=np.random.default_rng(0)) == []


def test_apply_modulation_multiplies_span_advantages():
    group = _group_from_entropies([[0.0], [0.5], [1.0]])
    mod = _modulate(group)
    table = AdvantageTable(values={(0, 0): 1.0, (1, 0): -2.0, (2, 0): 0.5})
    out = apply_modulation(table, mod)
    for key in table.values:
        assert out.values[key] == table.values[key] * mod.alpha[key]


def _legacy_population(h_bars, lam, eps):
    h_tilde, degenerate = group_minmax_normalize(h_bars, eps)
    if degenerate:
        return [None] * len(h_bars), [1.0] * len(h_bars), True
    return list(h_tilde), modulation_coeffs(h_tilde, lam, eps), False


def _legacy_group(group, lam, eps, mode, rng):
    """Straight-line copy of the per-group modes as separate code paths, one per mode."""
    keys = [(s.rollout_index, s.turn_index) for s in group.spans]
    h_bars = [response_entropy_proxy(s.response) for s in group.spans]
    if mode in ("aem", "reverse", "shuffle"):
        h_tilde, alphas, degenerate = _legacy_population(h_bars, -lam if mode == "reverse" else lam, eps)
        if mode == "shuffle" and not degenerate:
            alphas = [alphas[int(j)] for j in rng.permutation(len(alphas))]
        return dict(zip(keys, h_tilde)), dict(zip(keys, alphas)), degenerate
    rollout_ids = []
    for key in keys:
        if key[0] not in rollout_ids:
            rollout_ids.append(key[0])
    h_tilde_out, alpha_out, all_degenerate = {}, {}, True
    for rid in rollout_ids:
        idx = [k for k, key in enumerate(keys) if key[0] == rid]
        h_tilde, alphas, degenerate = _legacy_population([h_bars[k] for k in idx], lam, eps)
        all_degenerate = all_degenerate and degenerate
        for pos, k in enumerate(idx):
            h_tilde_out[keys[k]] = h_tilde[pos]
            alpha_out[keys[k]] = alphas[pos]
    return h_tilde_out, alpha_out, all_degenerate


def _legacy_batch(groups, mode, lam, eps, rng):
    """(h_tilde, alpha, degenerate) per group, as the per-mode code paths computed them."""
    if mode != "batch_norm":
        return [_legacy_group(g, lam, eps, mode, rng) for g in groups]
    flat = [(g_idx, (s.rollout_index, s.turn_index), response_entropy_proxy(s.response))
            for g_idx, g in enumerate(groups) for s in g.spans]
    if not flat:
        return []
    h_tilde, alphas, degenerate = _legacy_population([h for _, _, h in flat], lam, eps)
    out = [({}, {}, degenerate) for _ in groups]
    for (g_idx, key, _), ht, a in zip(flat, h_tilde, alphas):
        out[g_idx][0][key] = ht
        out[g_idx][1][key] = a
    return out


def test_population_pass_matches_per_mode_code_paths():
    """One population pass is bit-identical to the per-mode paths: values, key order, degenerate, rng state."""
    rng = np.random.default_rng(11)
    n_live = n_dead = 0
    for trial in range(400):
        mode = MODES[1 + trial % 5]
        lam = 1.0 if trial % 3 else float(rng.uniform(0.25, 4.0))
        eps = 1e-8 if trial % 4 else 0.0
        groups = [_random_group(rng, multi_turn=True, spread=float(rng.choice([0.12, 1.5])))
                  for _ in range(int(rng.integers(1, 5)))]
        for group in groups:
            if rng.uniform() < 0.25:  # spans need not arrive rollout by rollout
                group.spans[:] = [group.spans[int(j)] for j in rng.permutation(len(group.spans))]
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = modulate_batch(groups, mode, lam=lam, eps=eps, rng=got_rng)
        want = _legacy_batch(groups, mode, lam, eps, want_rng)
        assert len(got) == len(want)
        for mset, (h_tilde, alpha, degenerate) in zip(got, want):
            assert list(mset.h_tilde.items()) == list(h_tilde.items())
            assert list(mset.alpha.items()) == list(alpha.items())
            assert mset.degenerate == degenerate
            n_live += not degenerate
            n_dead += degenerate
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert n_live > 100 and n_dead > 100
