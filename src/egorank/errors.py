"""Exception hierarchy for the egorank pipeline.

The CLI exit-code contract needs two families, and a raise site picks
one by what the user must fix:

- :class:`ConfigError` (exit code 1): the configuration, a flag or a
  parameter is unusable, or a configured file is absent or holds nothing
  to load (a missing dataset, an empty lemma dictionary or lexicon, an
  out-of-range ``n_it``).
- :class:`DataError` (exit code 2): an input file is malformed or its
  contents are unusable (a missing column, a seed corpus with no example
  of a category, a word vector with a non-finite component).

Two subclasses of :class:`DataError` exist for what they carry, not for
a new exit code. :class:`BadRowError` formats ``"{path}: row {row}:
{detail}"``, for a fault in one row of a CSV or embedding file.
:class:`RankingTooSmallError` is caught by type, so that a sweep over
all buckets can skip a thin ranking. Everything derives from
:class:`EgorankError`, so callers can catch broadly. No class stores
anything but its message. Every dataset, resource and embeddings file is
read under :func:`utf8_text`, so bytes that are not UTF-8 exit 2 naming it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class EgorankError(Exception):
    """Base class for all egorank errors."""


class ConfigError(EgorankError):
    """Unusable configuration: missing files, bad flags, out-of-range values."""


class DataError(EgorankError):
    """Malformed or unusable input data."""


class BadRowError(DataError):
    def __init__(self, path: object, row: int, detail: str):
        super().__init__(f"{path}: row {row}: {detail}")


class RankingTooSmallError(DataError):
    def __init__(self, bucket: object, have: int, want: int):
        super().__init__(
            f"bucket {bucket}: ranking holds {have} members but {want} were requested")


@contextmanager
def utf8_text(path: object) -> Iterator[None]:
    """Turn a decoding error in the block into a DataError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
