"""Declarative pipeline configuration.

One JSON file drives a whole run; every field but ``datasets`` can be
replaced by a CLI flag of the same name. Resource paths left null fall back
to the files shipped with the package.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from . import __version__
from .classify import ALL_BUCKETS, Bucket, Category, SentimentClass
from .corpus import CONTENT_DATASETS, Platform, parse_timestamp
from .errors import ConfigError
from .recommend import Normalization

# Wide-open default window: ingest everything unless the config narrows it.
DEFAULT_SINCE = datetime(1970, 1, 1, tzinfo=timezone.utc)
DEFAULT_UNTIL = datetime(9999, 12, 31, tzinfo=timezone.utc)

# N_it's lower bound, which allow_small relaxes.
MIN_N_IT = 50

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
    bucket: tuple[Bucket, ...]  # the buckets a run ranks and targets
    n_it: int
    threshold: int
    normalization: Normalization
    allow_small: bool
    out_dir: Path
    workers: int

    def ingest_inputs(self) -> dict[str, Any]:
        """What ingest reads, files by content, by the dotted name that a
        stale bundle's message prints: the bundle's fingerprint.

        ``version`` is the egorank that ingests, and a null resource stands
        for the shipped default. ``bucket``, ``normalization``, the
        embeddings and the target-selection fields are read only after
        ingest, so they stay out.
        """
        return {
            "version": __version__,
            "platform": self.platform.value,
            "ego_id": self.ego_id,
            "window": [self.window[0].isoformat(), self.window[1].isoformat()],
            **{f"datasets.{no}": file_sha256(self.datasets[no])
               for no in sorted(CONTENT_DATASETS + (5,))},
            **{f"resources.{key}": file_sha256(self.resources[key]) if self.resources.get(key)
               else None for key in RESOURCE_KEYS if key != "embeddings"},
        }


def file_sha256(path: Path) -> str:
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


def _file(value: Any, base: Path, name: str, label: str) -> Path | None:
    """A path field that, when set, must name an existing file."""
    resolved = _as_path(value, base, name)
    if resolved is not None and not resolved.is_file():
        raise ConfigError(f"{label} not found: {resolved}")
    return resolved


def _integer(raw: Mapping[str, Any], key: str, default: int) -> int:
    """A field that must be an integer >= 1."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
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


def _normalization(value: Any) -> Normalization:
    try:
        return Normalization(value)
    except ValueError:
        modes = " or ".join(repr(mode.value) for mode in Normalization)
        raise ConfigError(f"normalization must be {modes}, got {value!r}") from None


def _buckets(value: str) -> tuple[Bucket, ...]:
    """Parse 'all' or 'Category/Sentiment' into concrete buckets."""
    if value.strip().lower() == "all":
        return ALL_BUCKETS
    parts = value.split("/")
    if len(parts) != 2:
        raise ConfigError(f"bucket must be 'all' or 'Category/Sentiment', got {value!r}")
    try:
        return (Bucket(Category(parts[0].strip()), SentimentClass(parts[1].strip())),)
    except ValueError:
        raise ConfigError(
            f"unknown bucket {value!r}; categories are "
            f"{[c.value for c in Category]} and sentiments {[s.value for s in SentimentClass]}"
        ) from None


def _timestamp(value: Any, name: str, default: datetime) -> datetime:
    """Parse one window bound; an absent, null or empty-string bound keeps
    ``default``."""
    if value is None or value == "":
        return default
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be an ISO-8601 timestamp string, got {value!r}")
    try:
        return parse_timestamp(value)
    except ValueError:
        raise ConfigError(f"{name} is not an ISO-8601 timestamp: {value!r}") from None


def load_config(path: str | Path, flags: Mapping[str, Any]) -> PipelineConfig:
    """Read a config file with the flags that are set in place of its
    fields, checking each field as it is read.

    ``flags`` maps a flag's dest (``n_it``, ``since``, ``embeddings``) to its
    value, None when unset. A set flag's value reads as the same value in the
    file would, and the file's value it replaces is not read. Relative paths
    resolve against the file's directory, or, in a flag, the working
    directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file is not a JSON object: {path}")
    base = path.parent
    given = {key: value for key, value in flags.items() if value is not None}

    def base_of(key: str) -> Path:
        return Path() if key in given else base

    datasets: dict[int, Path] = {}
    for key, value in _object(raw, "datasets").items():
        if len(key) != 1 or not "1" <= key <= "9":
            raise ConfigError(f"datasets key must be a dataset number 1-9, got {key!r}")
        resolved = _file(value, base, f"datasets.{key}", f"datasets.{key}")
        if resolved is not None:
            datasets[int(key)] = resolved
    for no in CONTENT_DATASETS + (5,):
        if no not in datasets:
            raise ConfigError(f"datasets.{no} is not configured")
    # Flag dests are unique across the top level, window and resources, and
    # each reads only its own keys, so every set flag overlays all three.
    window = _object(raw, "window")
    _known_keys(window, "window", ("since", "until"))
    window = {**window, **given}
    since, until = (
        _timestamp(window.get(key), f"--{key}" if key in given else f"window.{key}", default)
        for key, default in (("since", DEFAULT_SINCE), ("until", DEFAULT_UNTIL)))
    if since > until:
        raise ConfigError("window since is after until")
    resources = _object(raw, "resources")
    _known_keys(resources, "resources", RESOURCE_KEYS)
    resources = {**resources, **given}
    raw = {**raw, **given}
    allow_small = raw.get("allow_small", False)
    if not isinstance(allow_small, bool):
        raise ConfigError(f"allow_small must be true or false, got {allow_small!r}")

    cfg = PipelineConfig(
        platform=_platform(raw.get("platform", "Facebook")),
        ego_id=_string(raw, "ego_id", "ego"),
        datasets=datasets,
        window=(since, until),
        resources={key: _file(resources.get(key), base_of(key), f"resources.{key}",
                              f"resource {key!r}")
                   for key in RESOURCE_KEYS},
        bucket=_buckets(_string(raw, "bucket", "all")),
        n_it=_integer(raw, "n_it", 50),
        threshold=_integer(raw, "threshold", 5000),
        normalization=_normalization(raw.get("normalization", "raw")),
        allow_small=allow_small,
        out_dir=_as_path(raw.get("out_dir", "out"), base_of("out_dir"), "out_dir") or base / "out",
        workers=_integer(raw, "workers", 1),
    )
    # Last, so a fault in any other field is reported first.
    if cfg.n_it < MIN_N_IT and not cfg.allow_small:
        raise ConfigError(
            f"n_it = {cfg.n_it} violates the {MIN_N_IT} <= N_it <= network-size bound "
            "(pass --allow-small to relax the lower bound)")
    return cfg
