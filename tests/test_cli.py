"""Tests for the command-line entry points and the experiment config files."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import pytest

import entlab.policy

from entlab.cli import _nesting_reports, main
from entlab.config import apply_overrides, config_from_doc, config_to_doc, load_config, save_config
from entlab.envs import make_env
from entlab.policy import TablePolicy, save_checkpoint
from entlab.probes import reachable_states
from entlab.trainer import StepMetrics, TrainConfig
from derivations import record_softmax_passes
from nesting_reference import nesting_reports

FAST_SET = [
    "--set", "steps=3",
    "--set", "group_size=4",
    "--set", "prompts_per_step=2",
    "--set", "lr=0.5",
    "--set", "reward_scheme=binary",
    "--set", "env_overrides.task_count=2",
    "--set", "env_overrides.chain_len=1",
]


def _train(out_dir, extra=()):
    return main(["train", "--out", str(out_dir), *FAST_SET, *extra])


def test_config_doc_round_trip(tmp_path):
    config = TrainConfig(lr=0.25, env_overrides={"task_count": 3})
    doc = config_to_doc(config)
    assert config_from_doc(doc) == config
    path = tmp_path / "config.json"
    save_config(config, str(path))
    assert load_config(str(path)) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_doc({"learning_rate": 0.1})


def test_apply_overrides_dot_paths_and_json_values():
    doc = config_to_doc(TrainConfig())
    out = apply_overrides(doc, ["lr=0.125", "env_kind=grid-fetch",
                                "env_overrides.size=3", "aem_mode=off"])
    assert out["lr"] == 0.125
    assert out["env_kind"] == "grid-fetch"
    assert out["env_overrides"] == {"size": 3}
    assert out["aem_mode"] == "off"
    assert doc["lr"] == TrainConfig().lr
    with pytest.raises(ValueError):
        apply_overrides(doc, ["lr"])
    with pytest.raises(ValueError):
        apply_overrides(doc, ["lr.nested=1"])


def test_train_writes_run_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(out) == 0
    assert "success_rate=" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.json", "manifest.json", "metrics.jsonl",
                     "policy_final.json", "policy_init.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["config"]["steps"] == 3
    assert manifest["outputs"] == ["config.json", "metrics.jsonl",
                                   "policy_final.json", "policy_init.json"]
    assert set(manifest["timings"]) == {"rollout", "advantage", "aem", "update", "record", "total"}
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_train_rerun_is_byte_identical(tmp_path):
    assert _train(tmp_path / "a") == 0
    assert _train(tmp_path / "b") == 0
    assert (tmp_path / "a/metrics.jsonl").read_bytes() == (tmp_path / "b/metrics.jsonl").read_bytes()
    assert (tmp_path / "a/config.json").read_bytes() == (tmp_path / "b/config.json").read_bytes()


def test_train_accepts_mask_sign(tmp_path):
    assert _train(tmp_path / "run", extra=["--mask-sign", "1"]) == 0


def test_train_with_config_file(tmp_path):
    config = TrainConfig(steps=2, lr=0.5, group_size=4, prompts_per_step=2,
                         env_overrides={"task_count": 2, "chain_len": 1})
    path = tmp_path / "config.json"
    save_config(config, str(path))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out),
                 "--set", "steps=4"]) == 0
    saved = load_config(str(out / "config.json"))
    assert saved.steps == 4
    assert saved.lr == 0.5


def test_verify_all_kinds(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--kind", "all", "--trials", "5", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    assert len(rows) == 20
    assert {row["kind"] for row in rows} == {"resp", "regularized", "parametrized", "nesting"}
    assert all(row["ok"] for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_fail"] == 0
    assert summary["n_reports"] == 20
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("trials", [0, 1, 2, 9, 800])
def test_nesting_pass_is_the_per_trial_loop(trials):
    """The trials grouped by size and evaluated in stacked passes give the per-trial loop's reports, in its
    order, field by field by type and bytes, and leave the generator where it leaves it."""
    def as_bytes(row):
        return [(key, type(value), np.float64(value).tobytes() if type(value) is float else value)
                for key, value in row.items()]
    for seed in range(10):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _nesting_reports(trials, rng, 1e-10), nesting_reports(trials, ref_rng, 1e-10)
        assert [as_bytes(row) for row in got] == [as_bytes(row) for row in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_verify_unattainable_tolerance_exits_2(tmp_path):
    out = tmp_path / "verify"
    rc = main(["verify", "--kind", "resp", "--trials", "3", "--out", str(out),
               "--tol-rel", "1e-18", "--tol-abs", "1e-18"])
    assert rc == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_fail"] == 3


def _structured_checkpoint(tmp_path):
    """Checkpoint for the default env whose states mix calm and noisy branches."""
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    for state in reachable_states(env):
        policy.logit_vector(state, ())[:] = (1.5, -0.5, -1.0)
        policy.logit_vector(state, (0,))[:] = (6.0, -6.0, 0.0)
    path = tmp_path / "policy.json"
    save_checkpoint(policy, str(path))
    return path


def test_probe_consistency_cli(tmp_path):
    ckpt = _structured_checkpoint(tmp_path)
    out = tmp_path / "probe"
    assert main(["probe-consistency", "--checkpoint", str(ckpt),
                 "--states", "8", "--samples", "48", "--out", str(out)]) == 0
    doc = json.loads((out / "consistency.json").read_text())
    assert doc["n_states"] == 8
    assert doc["pearson_r"] > 0.0
    assert "pairs" not in doc
    with open(out / "pairs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_minus_one", "mc_entropy_change"]
    assert len(rows) == 1 + doc["n_pairs"]


def test_probe_doob_cli(tmp_path):
    ckpt = _structured_checkpoint(tmp_path)
    out = tmp_path / "probe"
    assert main(["probe-doob", "--checkpoint", str(ckpt), "--samples", "5000",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "doob.json").read_text())
    assert doc["ok"] is True
    assert doc["exact_residual_max"] < 1e-12
    assert doc["state"] == "key-chain#0#0"


def test_probe_transition_cli(tmp_path):
    assert _train(tmp_path / "off", extra=["--set", "aem_mode=off"]) == 0
    assert _train(tmp_path / "aem") == 0
    out = tmp_path / "cmp"
    assert main(["probe-transition", "--baseline", str(tmp_path / "off"),
                 "--modulated", str(tmp_path / "aem"), "--out", str(out)]) == 0
    doc = json.loads((out / "transition.json").read_text())
    assert doc["n_steps"] == 3
    assert "baseline_late_entropy" in doc
    with open(out / "transition.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3


def test_ablate_cli(tmp_path):
    out = tmp_path / "ablate"
    assert main(["ablate", "--variants", "off,aem", "--seeds", "0,1",
                 "--out", str(out), *FAST_SET]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert [row[0] for row in rows[1:]] == ["off", "aem"]
    for variant in ("off", "aem"):
        for seed in (0, 1):
            assert (out / f"{variant}_seed{seed}" / "metrics.jsonl").exists()


def test_report_cli(tmp_path):
    """report writes each run's series and alpha scatter; a step's live_population_frac is the share of its
    scatter rows with an h_tilde (a population that passed the range guard), empty for a step with no spans."""
    run = tmp_path / "run"
    assert _train(run, extra=["--set", "group_size=8", "--set", "lr=4.0", "--set", "steps=6"]) == 0  # some live
    with open(run / "metrics.jsonl") as fh:
        lines = fh.readlines()
    doc = json.loads(lines[0])
    doc["spans"] = []
    lines[0] = json.dumps(doc) + "\n"
    with open(run / "metrics.jsonl", "w") as fh:
        fh.writelines(lines)
    out = tmp_path / "report"
    assert main(["report", "--run", str(run), "--out", str(out)]) == 0
    with open(out / "run_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 6
    assert rows[0] == ["step", "entropy", "success_rate", "mean_reward", "mean_alpha", "frac_positive_advantage",
                       "live_population_frac"]
    with open(out / "run_alpha_scatter.csv", newline="") as fh:
        scatter = list(csv.reader(fh))
    assert scatter[0] == ["step", "group", "rollout", "turn", "h_bar",
                          "h_tilde", "alpha", "advantage"]
    assert len(scatter) > 1
    live = {row[0]: [] for row in rows[1:]}
    for row in scatter[1:]:
        live[row[0]].append(row[5] != "")
    assert [row[-1] for row in rows[1:]] == ["" if not v else str(sum(v) / len(v)) for v in live.values()]
    assert rows[1][-1] == "" and any(float(row[-1]) > 0.0 for row in rows[2:])


def test_enumeration_budget_error_exits_1(tmp_path, capsys):
    assert _train(tmp_path / "run", ["--set", "env_overrides.key_len=20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "enumeration budget" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["train"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main(["train", "--out", str(tmp_path / "x"), "--set", "steps=0"]) == 1
    for bad in ("estimator=bogus", "env_kind=bogus", "env_overrides.bogus=1", "env_overrides=[1]",
                'env_overrides.key_len="x"', "env_overrides.key_len=2.5", "env_overrides.task_count=true",
                "group_size=2.5", "kl_coef=null", 'lr="x"', 'steps="3"', 'aem_lambda="x"', "seed=true",
                "loss=1"):
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "z"), "--set", bad]) == 1, bad
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (bad, lines)
        assert not (tmp_path / "z").exists()
    assert main(["train", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "y")]) == 1


#: Values out of range, one per row: each must be refused before the run directory exists.
#: key_len=0 used to hang with growing memory, so every row runs in a process of its own with a timeout.
RANGE_ERRORS = [
    ["lr=NaN"], ["aem_lambda=Infinity"], ["aem_eps=-1"], ["prompts_per_step=0"], ["ckpt_every=-1"], ["seed=-1"],
    ["env_overrides.key_len=0"], ["env_overrides.key_len=0", "kl_coef=0"], ["env_overrides.chain_len=0"],
    ["env_overrides.task_count=0", "kl_coef=0"], ["env_overrides.n_content=0"], ["env_overrides.horizon=0"],
    ["env_kind=grid-fetch", "env_overrides.width=0"], ["env_kind=grid-fetch", "env_overrides.height=0"],
    ["env_kind=grid-fetch", "env_overrides.moves_per_turn=0"], ["env_kind=grid-fetch", "env_overrides.horizon=0"],
    ["env_kind=grid-fetch", "env_overrides.width=1", "env_overrides.height=1"],
    ["env_kind=bandit-chain", "env_overrides.n_arms=0"], ["env_kind=bandit-chain", "env_overrides.chain_len=0"],
    ["env_kind=bandit-chain", "env_overrides.task_count=0"],
]


def _forked_main(argv: list[str], cwd, timeout: float) -> tuple[int, str]:
    """(exit code, stderr) of ``main(argv)`` run in a child forked from this process, which has entlab imported
    already, with its cwd, stdout and stderr its own; the child is killed if it runs past ``timeout`` seconds."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 70
            try:
                os.chdir(cwd)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                sys.stdout, sys.stderr = (open(fd, "w", closefd=False) for fd in (1, 2))
                code = main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        deadline = time.monotonic() + timeout
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.001)
        if not done[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise subprocess.TimeoutExpired(["entlab", *argv], timeout)
        err.seek(0)
        return os.waitstatus_to_exitcode(done[1]), err.read().decode()


def _assert_refused_before_out(argv: list[str], cwd, timeout: float) -> None:
    """Run ``entlab <argv> --out <cwd>/out`` in a process of its own: exit 1, one error line, no --out."""
    out = cwd / "out"
    code, stderr = _forked_main([*argv, "--out", str(out)], cwd, timeout)
    lines = stderr.splitlines()
    assert code == 1, (code, stderr)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


@pytest.mark.parametrize("sets", RANGE_ERRORS, ids=lambda sets: ",".join(sets))
def test_range_errors_exit_1_before_any_file(sets, tmp_path):
    _assert_refused_before_out(["train", *(a for item in sets for a in ("--set", item))], tmp_path, timeout=30)


#: Bad inputs of every command, one per row, besides train's range rules above; "{ckpt}" is a key-chain
#: checkpoint.  The train row is over the enumeration budget with no regularizer: every run's make_env enumerates.
#: Each must be refused before --out exists, so a run that starts work anyway is caught by the timeout.
COMMAND_ERRORS = [
    ["verify", "--trials", "0"], ["verify", "--trials", "x"], ["verify", "--kind", "resp", "--trials", "3", "--fd-step", "0"],
    ["verify", "--fd-step", "nan"], ["verify", "--fd-step", "inf"], ["verify", "--fd-step=-1e-6"],
    ["verify", "--tol-rel", "-1"], ["verify", "--tol-rel", "inf"], ["verify", "--tol-abs", "nan"],
    ["verify", "--tol-abs=-1e-8"], ["verify", "--seed", "-1"],
    ["report", "--run", "nonexistent"], ["report", "--run", "a/run", "--run", "b/run"],
    ["ablate", "--variants", "off,bogus", "--seeds", "0"], ["ablate", "--variants", "off", "--seeds", "0,-1"],
    ["probe-transition", "--baseline", "nonexistent", "--modulated", "nonexistent"],
    ["probe-doob", "--checkpoint", "{ckpt}", "--samples", "0"], ["probe-doob", "--checkpoint", "{ckpt}", "--samples", "1"],
    ["probe-doob", "--checkpoint", "{ckpt}", "--state", "bogus"], ["probe-doob", "--checkpoint", "{ckpt}", "--seed", "-1"],
    ["probe-doob", "--checkpoint", "{ckpt}", "--set", "env_kind=grid-fetch"],
    ["probe-doob", "--checkpoint", "{ckpt}", "--set", "env_overrides.key_len=3"],
    ["probe-doob", "--checkpoint", "missing.json"],
    ["probe-consistency", "--checkpoint", "{ckpt}", "--states", "0"],
    ["probe-consistency", "--checkpoint", "{ckpt}", "--samples", "1"],
    ["probe-consistency", "--checkpoint", "{ckpt}", "--set", "env_kind=grid-fetch"],
    ["probe-doob", "--checkpoint", "{ckpt}", "--set", "env_kind=bandit-chain"],
    ["probe-consistency", "--checkpoint", "{ckpt}", "--set", "env_kind=bandit-chain"],
    ["probe-doob", "--checkpoint", "{short_vector}"], ["probe-doob", "--checkpoint", "{long_prefix}"],
    ["probe-doob", "--checkpoint", "{bad_token}"], ["probe-consistency", "--checkpoint", "{short_vector}"],
    ["probe-doob", "--checkpoint", "{list_document}"], ["probe-doob", "--checkpoint", "{version_only}"],
    ["probe-doob", "--checkpoint", "{no_max_len}"], ["probe-doob", "--checkpoint", "{string_max_len}"],
    ["probe-doob", "--checkpoint", "{bool_vocab_size}"], ["probe-doob", "--checkpoint", "{float_terminator_id}"],
    ["probe-doob", "--checkpoint", "{entries_object}"], ["probe-consistency", "--checkpoint", "{string_max_len}"],
    ["ablate", "--variants", "aem,aem", "--seeds", "0,0"], ["ablate", "--variants", "aem,aem", "--seeds", "0"],
    ["ablate", "--variants", "aem", "--seeds", "0,0"],
    ["report", "--run", "{no_entropy_run}"], ["report", "--run", "{nan_entropy_run}"],
    ["report", "--run", "{short_span_run}"], ["report", "--run", "{empty_run}"],
    ["probe-transition", "--baseline", "{no_entropy_run}", "--modulated", "{no_entropy_run}"],
    ["probe-transition", "--baseline", "{empty_run}", "--modulated", "{empty_run}"],
    ["train", "--set", "kl_coef=0", "--set", "env_overrides.key_len=20"],
]
#: Copies of "{ckpt}" whose first entry is broken one way each (vocab 3, max_len 2).
BROKEN_ENTRIES = {
    "{short_vector}": lambda state, prefix, vec: [state, prefix, vec[:2]],
    "{long_prefix}": lambda state, prefix, vec: [state, [0, 0], vec],
    "{bad_token}": lambda state, prefix, vec: [state, [7], vec],
}


#: Copies of "{ckpt}" whose document around the entries is broken one way each.
BROKEN_DOCUMENTS = {
    "{list_document}": lambda doc: [doc],
    "{version_only}": lambda doc: {"format_version": doc["format_version"]},
    "{no_max_len}": lambda doc: {k: v for k, v in doc.items() if k != "max_len"},
    "{string_max_len}": lambda doc: dict(doc, max_len=str(doc["max_len"])),
    "{bool_vocab_size}": lambda doc: dict(doc, vocab_size=True),
    "{float_terminator_id}": lambda doc: dict(doc, terminator_id=float(doc["terminator_id"])),
    "{entries_object}": lambda doc: dict(doc, entries={}),
}


#: Run directories whose one metrics line is broken one way each, or (None) whose metrics file is empty.
BROKEN_RUNS = {
    "{no_entropy_run}": lambda doc: {k: v for k, v in doc.items() if k != "policy_entropy_estimate"},
    "{nan_entropy_run}": lambda doc: dict(doc, policy_entropy_estimate=float("nan")),
    "{short_span_run}": lambda doc: dict(doc, spans=[[0, 0, 0, 1.0, None, 1.0]]),
    "{empty_run}": lambda doc: None,
}


def _broken_run(tmp_path, name: str):
    record = StepMetrics(step=0, mean_reward=1.0, success_rate=1.0, policy_entropy_estimate=0.5, mean_alpha=1.0,
                         frac_positive_advantage=0.5, loss_value=0.0, spans=[[0, 0, 0, 0.5, None, 1.0, 0.5]])
    run = tmp_path / name.strip("{}")
    run.mkdir()
    doc = BROKEN_RUNS[name](record.to_doc())
    (run / "metrics.jsonl").write_text("" if doc is None else json.dumps(doc) + "\n")
    return run


def _broken_checkpoint(ckpt, name: str):
    doc = json.loads(ckpt.read_text())
    if name in BROKEN_DOCUMENTS:
        doc = BROKEN_DOCUMENTS[name](doc)
    else:
        doc["entries"][0] = BROKEN_ENTRIES[name](*doc["entries"][0])
    path = ckpt.with_name(name.strip("{}") + ".json")
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", COMMAND_ERRORS, ids=" ".join)
def test_command_errors_exit_1_before_any_file(argv, tmp_path):
    ckpt = _structured_checkpoint(tmp_path)
    paths = {"{ckpt}": ckpt, **{name: _broken_checkpoint(ckpt, name) for name in [*BROKEN_ENTRIES, *BROKEN_DOCUMENTS]},
             **{name: _broken_run(tmp_path, name) for name in BROKEN_RUNS}}
    _assert_refused_before_out([str(paths.get(a, a)) for a in argv], tmp_path, timeout=60)


def test_probe_doob_reads_one_snapshot(tmp_path, monkeypatch):
    """doob_probe and doob_exact_residuals share the command's snapshot: one batched softmax for the state,
    none through token_distribution."""
    ckpt = _structured_checkpoint(tmp_path)
    singles, passes = [], record_softmax_passes(monkeypatch)
    monkeypatch.setattr(entlab.policy, "token_distribution", lambda *args: singles.append(args))
    argv = ["probe-doob", "--checkpoint", str(ckpt), "--samples", "500", "--state", "key-chain#1#0"]
    assert main([*argv, "--out", str(tmp_path / "doob")]) == 0
    assert [state for derived in passes for _, _, state in derived] == ["key-chain#1#0"]
    assert singles == []


def test_probes_accept_an_empty_checkpoint(tmp_path):
    """An untrained policy (what train saves as policy_init.json) has no entries; every state reads uniform."""
    env = make_env("key-chain", seed=0)
    ckpt = tmp_path / "policy_init.json"
    save_checkpoint(TablePolicy(vocab=env.vocab, max_len=env.max_len), str(ckpt))
    out = tmp_path / "doob"
    assert main(["probe-doob", "--checkpoint", str(ckpt), "--samples", "500", "--out", str(out)]) == 0
    assert json.loads((out / "doob.json").read_text())["ok"] is True


def test_train_survives_a_step_with_every_group_filtered(tmp_path, capsys):
    """Under a uniform policy most binary-reward groups are uniform, so drop_uniform empties whole batches."""
    out = tmp_path / "run"
    sets = ["filter_mode=drop_uniform", "aem_mode=batch_norm", "reward_scheme=binary"]
    assert main(["train", "--out", str(out), *[a for s in sets for a in ("--set", s)]]) == 0
    docs = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert any(not doc["spans"] for doc in docs)


def _digests(out_dir) -> dict[str, str]:
    """sha256 of every file in a command's output directory; the manifest is hashed without timings."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            assert "timings" in doc
            doc.pop("timings")
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()[:16]
    return digests


def _command_outputs(tmp_path) -> dict[str, dict[str, str]]:
    """Run verify, the three probes and report on small seeded inputs; digests per command."""
    ckpt = _structured_checkpoint(tmp_path)
    sizes = ["--set", "group_size=8", "--set", "lr=4.0", "--set", "steps=6"]  # some alphas != 1
    assert _train(tmp_path / "off", extra=[*sizes, "--set", "aem_mode=off"]) == 0
    assert _train(tmp_path / "aem", extra=sizes) == 0
    runs = [
        ("verify", ["verify", "--kind", "all", "--trials", "3", "--seed", "1"]),
        ("verify-fail", ["verify", "--kind", "resp", "--trials", "2", "--tol-rel", "1e-18", "--tol-abs", "1e-18"]),
        ("probe-consistency", ["probe-consistency", "--checkpoint", str(ckpt), "--states", "6",
                               "--samples", "24", "--seed", "3"]),
        ("probe-doob", ["probe-doob", "--checkpoint", str(ckpt), "--samples", "500", "--seed", "2",
                        "--state", "key-chain#1#0"]),
        ("probe-transition", ["probe-transition", "--baseline", str(tmp_path / "off"),
                              "--modulated", str(tmp_path / "aem")]),
    ]
    digests = {}
    for name, argv in runs:
        out = tmp_path / "out" / name
        assert main([*argv, "--out", str(out)]) in (0, 2), name
        digests[name] = _digests(out)
    (tmp_path / "aem" / "summary.json").write_bytes((tmp_path / "out/verify/summary.json").read_bytes())
    out = tmp_path / "out" / "report"
    assert main(["report", "--run", str(tmp_path / "off"), "--run", str(tmp_path / "aem"), "--out", str(out)]) == 0
    digests["report"] = _digests(out)
    return digests


#: sha256 prefixes of what `_command_outputs` writes; any change to a file's bytes fails here.
PINNED_OUTPUTS = {
    "verify": {"manifest.json": "6bcfed73e5e561dc", "reports.jsonl": "43f0ba0e00cddece",
               "summary.json": "2fc0f2aa4f30d15d"},
    "verify-fail": {"manifest.json": "bcdf554323558d56", "reports.jsonl": "7308ac2f15adca4b",
                    "summary.json": "bd05c923e8f23254"},
    "probe-consistency": {"consistency.json": "202c38f8f5e69861", "manifest.json": "e9d68c58cabca7d3",
                          "pairs.csv": "d294db3f2861c918"},
    "probe-doob": {"doob.json": "5e27d1c9ce9a5fc6", "manifest.json": "0b8bdeaf67ba4ac1"},
    "probe-transition": {"manifest.json": "ace1b948b01eba8f", "transition.csv": "331c72aab0e2166f",
                         "transition.json": "55b64843b148eb6d"},
    "report": {"aem_alpha_scatter.csv": "9d444f840683c4e6", "aem_series.csv": "157e43a24b1af261",
               "aem_verify_summary.json": "2fc0f2aa4f30d15d", "manifest.json": "7777af050f5798e6",
               "off_alpha_scatter.csv": "09407b21619ee556", "off_series.csv": "302ec7d5304add93"},
}


def test_command_outputs_match_pinned_digests(tmp_path):
    assert _command_outputs(tmp_path) == PINNED_OUTPUTS
