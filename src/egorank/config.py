"""Declarative pipeline configuration.

One JSON file drives a whole run; every field can be overridden by a CLI
flag of the same name. Resource paths left null fall back to the files
shipped with the package.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .corpus import CONTENT_DATASETS, Platform, parse_timestamp
from .errors import ConfigError

# Wide-open default window: ingest everything unless the config narrows it.
DEFAULT_SINCE = datetime(1970, 1, 1, tzinfo=timezone.utc)
DEFAULT_UNTIL = datetime(9999, 12, 31, tzinfo=timezone.utc)

RESOURCE_KEYS = (
    "stop_list",
    "lemma_dictionary",
    "sentiment_lexicon",
    "negators",
    "boosters",
    "spelling_dictionary",
    "embeddings",
    "labeled_seed",
)


class PipelineConfig(NamedTuple):
    platform: Platform
    ego_id: str
    datasets: dict[int, Path]
    window: tuple[datetime, datetime]
    resources: dict[str, Path | None]
    bucket: str
    n_it: int
    threshold: int
    normalization: str
    allow_small: bool
    out_dir: Path
    workers: int

    def ingest_inputs(self) -> dict[str, Any]:
        """What ingest reads, files by content: the bundle's provenance.

        A null resource stands for the shipped default. ``bucket``,
        ``normalization``, the embeddings and the target-selection fields
        are read only after ingest, so they stay out.
        """
        return {
            "platform": self.platform.value,
            "ego_id": self.ego_id,
            "window": [self.window[0].isoformat(), self.window[1].isoformat()],
            "datasets": {str(no): _file_sha256(self.datasets[no])
                         for no in sorted(CONTENT_DATASETS + (5,))},
            "resources": {
                key: (_file_sha256(self.resources[key]) if self.resources.get(key) else None)
                for key in RESOURCE_KEYS if key != "embeddings"
            },
        }

    def validate(self) -> None:
        if self.n_it < 1:
            raise ConfigError(f"n_it must be >= 1, got {self.n_it}")
        if self.threshold < 1:
            raise ConfigError(f"threshold must be >= 1, got {self.threshold}")
        if self.normalization not in ("raw", "mean"):
            raise ConfigError(f"normalization must be 'raw' or 'mean', got {self.normalization!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.window[0] > self.window[1]:
            raise ConfigError("window since is after until")
        for no in CONTENT_DATASETS + (5,):
            path = self.datasets.get(no)
            if path is None:
                raise ConfigError(f"datasets.{no} is not configured")
            if not Path(path).is_file():
                raise ConfigError(f"datasets.{no} not found: {path}")
        for key, path in self.resources.items():
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"resource {key!r} not found: {path}")


def digest(record: Mapping[str, Any]) -> str:
    """sha256 of a JSON record in canonical form (sorted keys, no spaces)."""
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> str:
    # In 1 MiB blocks: a whole embeddings file read at once would add its
    # size to the process's peak memory.
    sha = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _as_path(value: Any, base: Path, name: str) -> Path | None:
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    p = Path(value)
    return p if p.is_absolute() else base / p


def _integer(raw: Mapping[str, Any], key: str, default: int) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _string(raw: Mapping[str, Any], key: str, default: str) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _object(raw: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """A JSON object field; absent or null reads as empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def _known_keys(value: Mapping[str, Any], name: str, known: tuple[str, ...]) -> None:
    """Reject a key of the JSON object ``name`` that is not in ``known``."""
    for key in value:
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}; "
                              f"expected one of {', '.join(sorted(known))}")


def _platform(value: Any) -> Platform:
    try:
        return Platform(value)
    except ValueError:
        raise ConfigError(f"unknown platform {value!r}") from None


def _timestamp(value: Any, name: str, default: datetime) -> datetime:
    """Parse one window bound; an absent or empty bound keeps ``default``."""
    if not value:
        return default
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be an ISO-8601 timestamp string, got {value!r}")
    try:
        return parse_timestamp(value)
    except ValueError:
        raise ConfigError(f"{name} is not an ISO-8601 timestamp: {value!r}") from None


def load_config(path: str | Path, overrides: Mapping[str, Any]) -> PipelineConfig:
    """Read a config file, apply CLI overrides on top, and validate the result.

    Relative paths inside the file resolve against the file's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file is not a JSON object: {path}")
    base = path.parent

    platform = _platform(raw.get("platform", "Facebook"))
    datasets: dict[int, Path] = {}
    for key, value in _object(raw, "datasets").items():
        try:
            no = int(key)
        except ValueError:
            no = 0
        if not 1 <= no <= 9:
            raise ConfigError(f"datasets key must be a dataset number 1-9, got {key!r}")
        resolved = _as_path(value, base, f"datasets.{key}")
        if resolved is not None:
            datasets[no] = resolved
    window_raw = _object(raw, "window")
    _known_keys(window_raw, "window", ("since", "until"))
    since = _timestamp(window_raw.get("since"), "window.since", DEFAULT_SINCE)
    until = _timestamp(window_raw.get("until"), "window.until", DEFAULT_UNTIL)
    allow_small = raw.get("allow_small", False)
    if not isinstance(allow_small, bool):
        raise ConfigError(f"allow_small must be true or false, got {allow_small!r}")
    resources_raw = _object(raw, "resources")
    _known_keys(resources_raw, "resources", RESOURCE_KEYS)
    resources = {key: _as_path(resources_raw.get(key), base, f"resources.{key}")
                 for key in RESOURCE_KEYS}

    cfg = PipelineConfig(
        platform=platform,
        ego_id=_string(raw, "ego_id", "ego"),
        datasets=datasets,
        window=(since, until),
        resources=resources,
        bucket=_string(raw, "bucket", "all"),
        n_it=_integer(raw, "n_it", 50),
        threshold=_integer(raw, "threshold", 5000),
        normalization=raw.get("normalization", "raw"),
        allow_small=allow_small,
        out_dir=_as_path(raw.get("out_dir", "out"), base, "out_dir") or base / "out",
        workers=_integer(raw, "workers", 1),
    )
    cfg = apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def apply_overrides(cfg: PipelineConfig, overrides: Mapping[str, Any]) -> PipelineConfig:
    """Apply flag values (already typed) over a loaded config."""
    updates: dict[str, Any] = {}
    simple = ("ego_id", "bucket", "n_it", "threshold", "normalization",
              "allow_small", "workers")
    for key in simple:
        if overrides.get(key) is not None:
            updates[key] = overrides[key]
    if overrides.get("platform") is not None:
        updates["platform"] = _platform(overrides["platform"])
    if overrides.get("out_dir") is not None:
        updates["out_dir"] = Path(overrides["out_dir"])
    if overrides.get("since") is not None or overrides.get("until") is not None:
        since = _timestamp(overrides.get("since"), "--since", cfg.window[0])
        until = _timestamp(overrides.get("until"), "--until", cfg.window[1])
        updates["window"] = (since, until)
    resources = {key: Path(overrides[key]) for key in RESOURCE_KEYS
                 if overrides.get(key) is not None}
    if resources:
        updates["resources"] = cfg.resources | resources
    return cfg._replace(**updates) if updates else cfg
