"""Which entlab functions the traced run wraps, and the per-layer metrics built from their spans.

Counts come from the first traced unit (they repeat exactly, which the run
checks); times are medians over the traced units.  A ratio is always
reported next to its base count.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import SpanStats, Tracer


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def register(tracer: Tracer) -> None:
    """Wrap the public functions of each layer that the workloads call."""
    from entlab import advantage, envs, geometry, modulation, policy, probes, rollout, trainer

    def bump_version(*_) -> None:
        tracer.version += 1

    def softmax_key(args, kwargs) -> None:
        tracer.see("softmax", (tracer.version, tracer.ident(_arg(args, kwargs, 0, "policy")),
                               _arg(args, kwargs, 1, "state"), _arg(args, kwargs, 2, "prefix")))

    def value_key(args, kwargs) -> None:
        tracer.see("state_value", (tracer.version, tracer.ident(_arg(args, kwargs, 0, "policy")),
                                   _arg(args, kwargs, 2, "state")))

    def populations(args, kwargs, sets) -> None:
        # batch_norm pools the whole batch into one population; other modes use one per group.
        if _arg(args, kwargs, 1, "mode") == "batch_norm":
            tracer.count("populations", 1 if sets else 0)
            tracer.count("degenerate", 1 if sets and sets[0].degenerate else 0)
        else:
            tracer.count("populations", len(sets))
            tracer.count("degenerate", sum(1 for s in sets if s.degenerate))

    def gradient(args, kwargs, result) -> None:
        tracer.count("grad_entries", len(result[1]))
        bump_version()

    tracer.add(policy, "token_distribution", "policy.token_distribution", on_call=softmax_key)
    tracer.add(policy, "sample_response", "policy.sample_response",
               on_return=lambda a, k, r: tracer.count("sampled_tokens", len(r.tokens)))
    tracer.add(policy, "enumerate_responses", "policy.enumerate_responses",
               on_return=lambda a, k, r: tracer.count("paths", len(r)))
    tracer.add(envs, "make_env", "envs.make_env")
    for cls in vars(envs).values():
        if isinstance(cls, type) and cls.__module__ == envs.__name__ and "step" in vars(cls):
            tracer.add(cls, "step", "envs.step")
    tracer.add(rollout, "collect_group", "rollout.collect_group")
    tracer.add(advantage, "compute_advantages", "advantage.compute_advantages")
    tracer.add(advantage, "state_value", "advantage.state_value", on_call=value_key)
    tracer.add(modulation, "modulate_batch", "modulation.modulate_batch", on_return=populations)
    tracer.add(modulation, "apply_modulation", "modulation.apply_modulation")
    tracer.add(trainer, "train", "trainer.train", on_call=bump_version)
    tracer.add(trainer, "surrogate_loss", "trainer.surrogate_loss", on_return=gradient)
    tracer.add(geometry, "verify_drift_fd", "geometry.verify_drift_fd",
               name_of=lambda a, k: f"geometry.verify_drift_fd.{_arg(a, k, 0, 'kind')}")
    for name in ("doob_probe", "doob_exact_residuals", "consistency_probe"):
        tracer.add(probes, name, f"probes.{name}")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, plain: list, traced: list, make_env_s: float, calls_per_step: int) -> dict:
    """Per-layer metrics from the traced units, plus phase timings from the untraced ones."""
    stats = [SpanStats(tracer, lo, hi) for lo, hi in tracer.unit_ranges]
    first = stats[0]
    counts = tracer.unit_counts[0]

    def med(fn) -> float:
        return statistics.median(fn(s) for s in stats)

    def phase(key: str) -> float:
        return statistics.median(u.timings.get(key, 0.0) for u in plain)

    steps = [d for s in stats for d in s.step_durations("trainer.train", "rollout.collect_group", calls_per_step)]
    step_ms = np.array(steps) * 1000.0 if steps else np.zeros(1)
    softmax_calls = first.get("policy.token_distribution", "calls")
    value_calls = first.get("advantage.state_value", "calls")
    return {
        "policy.token_distribution.calls": softmax_calls,
        "policy.token_distribution.self_s": med(lambda s: s.get("policy.token_distribution", "self_s")),
        "policy.softmax_unique_frac": _frac(counts.get("softmax.distinct", 0), softmax_calls),
        "policy.sample_response.calls": first.get("policy.sample_response", "calls"),
        "policy.sample_response.self_s": med(lambda s: s.get("policy.sample_response", "self_s")),
        "policy.sampled_tokens": counts.get("sampled_tokens", 0),
        "policy.enumerate_responses.calls": first.get("policy.enumerate_responses", "calls"),
        "policy.enumerate_responses.paths": counts.get("paths", 0),
        "policy.enumerate_responses.self_s": med(lambda s: s.get("policy.enumerate_responses", "self_s")),
        "policy.logit_entries": traced[0].logit_entries,
        "envs.step.calls": first.get("envs.step", "calls"),
        "envs.step.self_s": med(lambda s: s.get("envs.step", "self_s")),
        "envs.make_env_s": make_env_s,
        "rollout.collect_group.calls": first.get("rollout.collect_group", "calls"),
        "rollout.collect_group.s": med(lambda s: s.get("rollout.collect_group", "incl_s")),
        "rollout.tokens_per_s": med(lambda s: _frac(counts.get("sampled_tokens", 0),
                                                    s.get("rollout.collect_group", "incl_s"))),
        "advantage.compute_advantages.s": med(lambda s: s.get("advantage.compute_advantages", "incl_s")),
        "advantage.state_value.calls": value_calls,
        "advantage.state_value.unique_frac": _frac(counts.get("state_value.distinct", 0), value_calls),
        "modulation.modulate_batch.s": med(lambda s: s.get("modulation.modulate_batch", "incl_s")),
        "modulation.apply_modulation.s": med(lambda s: s.get("modulation.apply_modulation", "incl_s")),
        "modulation.populations": counts.get("populations", 0),
        "modulation.degenerate_frac": _frac(counts.get("degenerate", 0), counts.get("populations", 0)),
        "trainer.aem_frac": statistics.median(_frac(u.timings.get("aem", 0.0), u.timings.get("total", 0.0))
                                              for u in plain),
        "trainer.rollout_s": phase("rollout"),
        "trainer.advantage_s": phase("advantage"),
        "trainer.aem_s": phase("aem"),
        "trainer.update_s": phase("update"),
        "trainer.surrogate_loss.calls": first.get("trainer.surrogate_loss", "calls"),
        "trainer.surrogate_loss.self_s": med(lambda s: s.get("trainer.surrogate_loss", "self_s")),
        "trainer.surrogate_loss.enumerate_s": med(lambda s: s.child_time(
            ("policy.enumerate_responses", "policy.token_distribution"), "trainer.surrogate_loss")),
        "trainer.grad_entries": counts.get("grad_entries", 0),
        "trainer.step_ms.p50": float(np.percentile(step_ms, 50)),
        "trainer.step_ms.p90": float(np.percentile(step_ms, 90)),
        "trainer.step_ms.n": len(steps),
        "geometry.verify_drift_fd.resp.s": med(lambda s: s.get("geometry.verify_drift_fd.resp", "incl_s")),
        "geometry.verify_drift_fd.regularized.s": med(
            lambda s: s.get("geometry.verify_drift_fd.regularized", "incl_s")),
        "geometry.verify_drift_fd.parametrized.s": med(
            lambda s: s.get("geometry.verify_drift_fd.parametrized", "incl_s")),
        "probes.doob_probe.s": med(lambda s: s.get("probes.doob_probe", "incl_s")),
        "probes.doob_exact_residuals.s": med(lambda s: s.get("probes.doob_exact_residuals", "incl_s")),
        "probes.consistency_probe.s": med(lambda s: s.get("probes.consistency_probe", "incl_s")),
        "trace.spans": first.spans,
        "trace.overhead_frac": statistics.median(u.scaled["work"] for u in traced)
        / statistics.median(u.scaled["work"] for u in plain) - 1.0,
    }
