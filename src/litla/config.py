"""Run configuration: a single TOML file drives every pipeline stage.

The file is TOML 1.0, read by the standard library's ``tomllib``. Every
value must have the type of the field it sets, so a value of a type no
field takes (a date, a table where an array belongs) is rejected. Unknown
keys are rejected, and relative paths resolve against the config file's
directory.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .records import ExclusionPolicy


class ConfigError(ValueError):
    pass


# --- typed blocks -----------------------------------------------------------------


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


_BLOCK_TYPES = {
    "exclusions": ExclusionPolicy,
    "topics": TopicsBlock,
    "linkage": LinkageBlock,
    "citenet": CitenetBlock,
    "collabnet": CollabnetBlock,
    "predict": PredictBlock,
}


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
    if isinstance(default, list):
        return None if _is_strings(value) else "an array of strings"
    return None


def _build_block(cls, data: dict, section: str):
    """The ``cls`` block of ``data``; each value must have the type of its
    field's default, and passes through unconverted."""
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name == "themes":
            if not isinstance(value, dict):
                raise ConfigError(f"[{section}.themes] must map names to keyword arrays")
            for name, keywords in value.items():
                if not _is_strings(keywords):
                    raise ConfigError(f"[{section}.themes] {name} must be an array of strings, "
                                      f"got {keywords!r}")
        default = f.default if f.default is not MISSING else f.default_factory()
        expected = _expected(value, default)
        if expected:
            raise ConfigError(f"[{section}] {f.name} must be {expected}, got {value!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


def load_config(path, output_override=None, seed_override=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    base = path.resolve().parent

    known_sections = {"run", "input", "output"} | set(_BLOCK_TYPES)
    unknown = set(data) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections/keys: {sorted(unknown)}")

    run = data.get("run", {})
    if not isinstance(run, dict) or set(run) - {"seed"}:
        raise ConfigError("[run] allows only seed")
    inp = data.get("input", {})
    if not isinstance(inp, dict) or set(inp) - {"records", "queries"}:
        raise ConfigError("[input] allows only records and queries")
    if "records" not in inp:
        raise ConfigError("[input] records is required")
    out = data.get("output", {})
    if not isinstance(out, dict) or set(out) - {"dir"}:
        raise ConfigError("[output] allows only dir")
    for section, block in (("input", inp), ("output", out)):
        for key, value in block.items():
            if not isinstance(value, str):
                raise ConfigError(f"[{section}] {key} must be a string, got {value!r}")

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

    blocks = {}
    for section, cls in _BLOCK_TYPES.items():
        section_data = data.get(section, {})
        if not isinstance(section_data, dict):
            raise ConfigError(f"[{section}] must be a section")
        blocks[section] = _build_block(cls, section_data, section)

    seed = seed_override if seed_override is not None else run.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")

    return RunConfig(records_path=records_path, output_dir=output_dir,
                     seed=seed, queries_path=queries_path,
                     input_refs=dict(inp), **blocks)
