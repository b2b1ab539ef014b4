"""The benchmark's workloads: inputs from a seed, one repeatable unit of work, and its checks.

Every workload repeats one unit of work for the measured seconds.  A unit is
a pure function of the seed, so its outputs must hash to the same digest on
every repeat, traced or not; at seed 0 the digest must also equal the one
pinned below, which ties the benchmark to the program's current numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

#: exact_response_entropy and pathwise_entropy must agree this closely.
ENTROPY_TOL = 1e-10
#: doob_exact_residuals values are pure float roundoff.
RESIDUAL_TOL = 1e-12
#: Each unit of a training workload repeats its entropy checks for at least
#: this long, so that checks_per_s is not a sub-millisecond reading.
MIN_CHECK_S = 0.05

#: sha256 of each workload's unit outputs at seed 0 (see Unit.digest).
PINNED_DIGESTS = {
    "keychain-paired": "d44aaf24fc6d5de2668a46d1a0a7e97ebdbb836f399818d6433eac8f87312682",
    "gridfetch-kl": "25c46a9fcc5fc7e93f034479c68fbce38539e9e93edc836e800c0d34020295bc",
    "gridfetch-oracle": "4e874ec3cfbcc9f4099cd7ccb36fd587a44783c8ac546ec0ea63707a2ed30248",
    "referee": "bc8f5c23e6dbedf8e748ce54362c51cc48a0db1590e50ed29d97479245d9b3fc",
}


@dataclass
class Unit:
    """What one unit of work produced and what its checks found.

    ``raw`` and ``scaled`` hold the unit's seconds of "work" (training, or a
    referee round) and of "check" (the oracle comparisons), as measured and
    as calibrated; the caller fills them in from its timer.
    """

    steps: int
    checks: int
    digest: str
    failures: list[str] = field(default_factory=list)
    max_abs_error: float = 0.0
    final_success: float | None = None
    timings: dict[str, float] = field(default_factory=dict)
    logit_entries: int = 0
    raw: dict[str, float] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)


def _final_success(metrics) -> float:
    """Mean success rate over the last quarter of steps."""
    q = max(1, len(metrics) // 4)
    return sum(m.success_rate for m in metrics[-q:]) / q


class TrainingWorkload:
    """One or more train() runs per unit, then exact-entropy checks on the trained policies."""

    def __init__(self, name: str, why: str, config: dict, variants: list[dict] | None = None) -> None:
        self.name = name
        self.why = why
        self.config = config
        self.variants = variants or [{}]
        self.configs: list = []

    def setup_doc(self) -> dict:
        return dict(self.config, **self.variants[0])

    def prepare(self, seed: int) -> None:
        from entlab import trainer

        self.configs = [trainer.TrainConfig(seed=seed, **self.config, **v) for v in self.variants]

    @property
    def calls_per_step(self) -> int:
        return self.configs[0].prompts_per_step

    def run_unit(self, workdir: str, tracing, timer) -> Unit:
        from entlab import trainer

        paths = [os.path.join(workdir, f"metrics_{i}.jsonl") for i in range(len(self.configs))]
        with tracing:
            results = [timer("work", trainer.train, cfg, metrics_path=path)
                       for cfg, path in zip(self.configs, paths)]

        digest = hashlib.sha256()
        for path in paths:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        timings: dict[str, float] = {}
        for result in results:
            for key, value in result.timings.items():
                timings[key] = timings.get(key, 0.0) + value
        # Counted before the checks: exact enumeration materializes missing logits.
        logit_entries = sum(len(r.policy.logits) + len(r.ref_policy.logits) for r in results)
        n_checks, worst, failures = timer("check", _entropy_checks, [r.policy for r in results])
        return Unit(
            steps=sum(cfg.steps for cfg in self.configs),
            checks=n_checks,
            digest=digest.hexdigest(),
            failures=failures,
            max_abs_error=worst,
            final_success=sum(_final_success(r.metrics) for r in results) / len(results),
            timings=timings,
            logit_entries=logit_entries,
        )


def _entropy_checks(policies) -> tuple[int, float, list[str]]:
    """Compare the two exact entropy routes at every state each policy visited.

    The comparisons repeat for MIN_CHECK_S; returns (comparisons, worst
    difference, failures).
    """
    from entlab import policy as pol

    pairs = [(p, s) for p in policies for s in sorted({state for state, _ in p.logits})]
    n = 0
    worst = 0.0
    failures: list[str] = []
    t0 = time.perf_counter()
    while True:
        for p, state in pairs:
            err = abs(pol.exact_response_entropy(p, state) - pol.pathwise_entropy(p, state))
            n += 1
            worst = max(worst, err)
            if not err <= ENTROPY_TOL:
                failures.append(f"entropy routes differ by {err:.3e} at {state}")
        if time.perf_counter() - t0 >= MIN_CHECK_S or not pairs:
            return n, worst, failures


class RefereeWorkload:
    """The oracle checks of `entlab verify --kind all` and the probes, on a policy trained in set-up."""

    name = "referee"
    why = "only workload that runs geometry and probes: verify --kind all, doob and consistency probes"
    #: The mid-training policy of demos/05_probes_on_checkpoint.py.
    config = {"steps": 300, "lr": 2.0, "reward_scheme": "binary", "prompts_per_step": 8,
              "env_overrides": {"chain_len": 1, "task_count": 64, "n_content": 3}}
    #: verify's trials are random sizes; 800 keep the round's work within ~9% across seeds.
    verify_trials = 800
    doob_samples = 100000
    consistency_samples = 48
    calls_per_step = 1

    def setup_doc(self) -> dict:
        return dict(self.config)

    def prepare(self, seed: int) -> None:
        from entlab import probes, trainer
        from entlab.envs import make_env

        self.seed = seed
        cfg = trainer.TrainConfig(seed=seed, **self.config)
        self.policy = trainer.train(cfg).policy
        env = make_env(cfg.env_kind, seed=cfg.env_seed, **cfg.env_overrides)
        self.states = probes.reachable_states(env)

    def _round(self, out: str):
        from entlab import cli, probes

        argv = ["verify", "--kind", "all", "--trials", str(self.verify_trials),
                "--seed", str(self.seed), "--out", out]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        doob = probes.doob_probe(self.policy, self.states[0], self.doob_samples, rng)
        residuals = [probes.doob_exact_residuals(self.policy, s) for s in self.states]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        consistency = probes.consistency_probe(self.policy, self.states, self.consistency_samples, rng)
        return code, doob, residuals, consistency

    def run_unit(self, workdir: str, tracing, timer) -> Unit:
        out = os.path.join(workdir, "verify")
        with tracing:
            # A round is both the unit of work and the oracle checks.
            code, doob, residuals, consistency = timer("work", self._round, out)

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "reports.jsonl"), "rb") as fh:
            reports = fh.read()
        failures = []
        if code != 0 or summary["n_fail"] != 0:
            failures.append(f"verify exit {code} with {summary['n_fail']} failing reports")
        if not doob.ok:
            failures.append(f"doob residual mean {doob.residual_mean} at {self.states[0]}")
        residual_values = [abs(v) for r in residuals for v in r.values()]
        failures += [f"exact residual {v:.3e}" for v in residual_values if not v <= RESIDUAL_TOL]

        digest = hashlib.sha256(reports)
        for doc in (summary, dataclasses.asdict(doob), dataclasses.asdict(consistency),
                    [sorted((list(k), v) for k, v in r.items()) for r in residuals]):
            digest.update(json.dumps(doc, sort_keys=True).encode())
        timer.raw["check"], timer.scaled["check"] = timer.raw["work"], timer.scaled["work"]
        return Unit(
            steps=1,
            checks=summary["n_reports"] + 1 + len(residual_values),
            digest=digest.hexdigest(),
            failures=failures,
            max_abs_error=max([summary["max_abs_error"], *residual_values]),
            logit_entries=len(self.policy.logits),
        )


_GRID = {"env_kind": "grid-fetch"}

WORKLOADS = {
    w.name: w
    for w in (
        TrainingWorkload(
            "keychain-paired",
            "acceptance transition config, aem off then on: rollout sampling and modulation, 7-path trees",
            {"env_overrides": {"chain_len": 1}, "reward_scheme": "binary", "lr": 2.0, "steps": 400},
            variants=[{"aem_mode": "off"}, {"aem_mode": "aem"}],
        ),
        TrainingWorkload(
            "gridfetch-kl",
            "grid-fetch with the KL regularizer: update dominated by the exact gradient path walk",
            dict(_GRID, kl_coef=0.01, steps=10),
        ),
        TrainingWorkload(
            "gridfetch-oracle",
            "grid-fetch with exact-value advantages and batch_norm modulation: enumeration for values only",
            dict(_GRID, estimator="oracle_value", kl_coef=0.0, aem_mode="batch_norm", steps=5),
        ),
        RefereeWorkload(),
    )
}
