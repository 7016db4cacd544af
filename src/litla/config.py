"""Run configuration: a single TOML file drives every pipeline stage.

The file is TOML 1.0, read by the standard library's ``tomllib``. Every
section passes one check: it must be a table, unknown keys are rejected,
and every value must have the type of the field it sets, so a value of a
type no field takes (a date, a table where an array belongs) is rejected.
Relative paths resolve against the config file's directory.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Collection


class ConfigError(ValueError):
    pass


# --- typed blocks -----------------------------------------------------------------


@dataclass
class ExclusionPolicy:
    """The ``[exclusions]`` block of the run config. Languages and document
    types compare case-insensitively."""
    min_pages: int = 4
    allowed_languages: Collection[str] = field(default_factory=lambda: ["English"])
    excluded_doc_types: Collection[str] = field(
        default_factory=lambda: ["book", "keynote", "workshop paper", "unpublished"])
    drop_extended_versions: bool = False
    extended_version_ids: Collection[str] = field(default_factory=list)


@dataclass
class TopicsBlock:
    eps: float = 0.5
    min_pts: int = 5
    top_terms: int = 10
    trend_since: int = 2018
    emerging_k: int = 5


@dataclass
class LinkageBlock:
    epsilon: float = 0.15
    themes: dict = field(default_factory=dict)   # theme name -> keyword list


@dataclass
class CitenetBlock:
    decay: float = 0.2
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 500
    cd_window: int = 0            # 0 means "all later papers"
    cd_exclude_self: bool = True
    backbone_k: int = 40
    degree_xmin: int = 1

    def window(self) -> int | None:
        return None if self.cd_window <= 0 else self.cd_window


@dataclass
class CollabnetBlock:
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 500
    top_k: int = 50
    exclude_unknown: bool = True


@dataclass
class PredictBlock:
    n_trees: int = 50
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    neg_ratio: int = 5
    train_start: int = 0          # 0 means earliest feasible year
    top_n: int = 100


@dataclass
class RunConfig:
    records_path: Path
    output_dir: Path
    seed: int = 0
    queries_path: Path | None = None
    exclusions: ExclusionPolicy = field(default_factory=ExclusionPolicy)
    topics: TopicsBlock = field(default_factory=TopicsBlock)
    linkage: LinkageBlock = field(default_factory=LinkageBlock)
    citenet: CitenetBlock = field(default_factory=CitenetBlock)
    collabnet: CollabnetBlock = field(default_factory=CollabnetBlock)
    predict: PredictBlock = field(default_factory=PredictBlock)
    # [input] paths as written, relative to the config file's directory
    input_refs: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        # output_dir is where results land, not part of what they contain;
        # inputs count as written, so every checkout of a config hashes alike
        payload = asdict(self)
        del payload["output_dir"]
        refs = payload.pop("input_refs")
        payload["records_path"] = refs.get("records", payload["records_path"])
        payload["queries_path"] = refs.get("queries", payload["queries_path"])
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")).hexdigest()


# the analysis blocks: the RunConfig fields that default to a typed block
_BLOCK_TYPES = {f.name: f.default_factory for f in fields(RunConfig)
                if is_dataclass(f.default_factory)}
# every section's keys, each with a default of the type its values take
_SECTION_KEYS = {
    "run": {"seed": 0}, "input": {"records": "", "queries": ""}, "output": {"dir": ""},
    **{section: {f.name: f.default if f.default is not MISSING else f.default_factory()
                 for f in fields(cls)} for section, cls in _BLOCK_TYPES.items()}}


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _expected(value, default) -> str | None:
    """The type ``value`` should have, when it lacks the type of ``default``."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(default, int):
        return None if type(value) is int else "an integer"
    if isinstance(default, float):
        return None if type(value) in (int, float) else "a number"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    if isinstance(default, list):
        return None if _is_strings(value) else "an array of strings"
    return None


def _section(data: dict, section: str, defaults: dict) -> dict:
    """The ``[section]`` table of ``data`` (empty when absent). It takes only
    the keys of ``defaults``, each value with the type of its default, and
    its values pass through unconverted."""
    table = data.get(section, {})
    if not isinstance(table, dict):
        raise ConfigError(f"[{section}] must be a section")
    unknown = set(table) - set(defaults)
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {sorted(unknown)}")
    for key, default in defaults.items():
        if key not in table:
            continue
        value = table[key]
        if key == "themes":
            if not isinstance(value, dict):
                raise ConfigError(f"[{section}.themes] must map names to keyword arrays")
            for name, keywords in value.items():
                if not _is_strings(keywords):
                    raise ConfigError(f"[{section}.themes] {name} must be an array of strings, "
                                      f"got {keywords!r}")
        expected = _expected(value, default)
        if expected:
            raise ConfigError(f"[{section}] {key} must be {expected}, got {value!r}")
    return table


def load_config(path, output_override=None, seed_override=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    base = path.resolve().parent

    unknown = set(data) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections/keys: {sorted(unknown)}")
    tables = {section: _section(data, section, keys) for section, keys in _SECTION_KEYS.items()}

    run, inp, out = tables["run"], tables["input"], tables["output"]
    if "records" not in inp:
        raise ConfigError("[input] records is required")

    records_path = (base / inp["records"]).resolve()
    if not records_path.is_file():
        raise ConfigError(f"records file not found: {records_path}")
    queries_path = None
    if "queries" in inp:
        queries_path = (base / inp["queries"]).resolve()
        if not queries_path.is_file():
            raise ConfigError(f"queries file not found: {queries_path}")

    if output_override is not None:
        output_dir = Path(output_override)
    elif "dir" in out:
        output_dir = base / out["dir"]
    else:
        raise ConfigError("output directory required ([output] dir or --output)")

    seed = seed_override if seed_override is not None else run.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")

    return RunConfig(records_path=records_path, output_dir=output_dir,
                     seed=seed, queries_path=queries_path,
                     input_refs=dict(inp),
                     **{section: cls(**tables[section]) for section, cls in _BLOCK_TYPES.items()})
