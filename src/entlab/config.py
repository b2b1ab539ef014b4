"""Experiment config files: a flat JSON rendering of TrainConfig.

Files hold exactly the TrainConfig fields (env_overrides nested); unknown
keys are rejected so typos fail loudly.  Dot-path overrides let the CLI
patch any field, including nested env overrides, without editing the file.
"""

from __future__ import annotations

import dataclasses
import json

from .trainer import TrainConfig

_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


def config_to_doc(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_doc(doc: dict) -> TrainConfig:
    unknown = set(doc) - _FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**doc)


def load_config(path: str) -> dict:
    """The config file's JSON object, unchecked against TrainConfig so that overrides can still patch it."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def save_config(config: TrainConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_doc(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply KEY=VALUE overrides to a config document, dot paths for nesting.

    Values parse as JSON when possible (numbers, booleans, quoted strings)
    and fall back to plain strings, so `--set lr=0.1 --set env_kind=grid-fetch`
    both work.
    """
    out = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override path {key!r} descends into a non-object")
        node[parts[-1]] = value
    return out
