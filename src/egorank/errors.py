"""Exception hierarchy for the egorank pipeline.

Two families matter to the CLI exit-code contract: :class:`ConfigError`
(unusable configuration or parameters, exit code 1) and :class:`DataError`
(malformed or unusable input data, exit code 2). Everything derives from
:class:`EgorankError` so callers can catch broadly.
"""

from __future__ import annotations


class EgorankError(Exception):
    """Base class for all egorank errors."""


class ConfigError(EgorankError):
    """Unusable configuration: missing files, bad flags, out-of-range values."""


class DataError(EgorankError):
    """Malformed or unusable input data."""


# --- corpus / CSV ingestion -------------------------------------------------

class MissingColumnError(DataError):
    def __init__(self, name: str, path: str | None = None):
        self.name = name
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"missing required column '{name}'{where}")


class BadTimestampError(DataError):
    def __init__(self, path: object, row: int, value: str):
        self.row = row
        self.value = value
        super().__init__(f"{path}: row {row}: unparseable timestamp {value!r}")


class BadRowError(DataError):
    def __init__(self, path: object, row: int, detail: str):
        self.row = row
        self.detail = detail
        super().__init__(f"{path}: row {row}: {detail}")


class EmptyFileError(DataError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"empty file (no header row): {path}")


class MissingDatasetError(ConfigError):
    def __init__(self, dataset_no: int):
        self.dataset_no = dataset_no
        super().__init__(f"MissingDataset({dataset_no}): no file configured or file absent")


class BadParamsError(ConfigError):
    pass


# --- resources ----------------------------------------------------------------

class MissingStopListError(ConfigError):
    def __init__(self) -> None:
        super().__init__("no stop-word list loaded")


class MissingLemmaDictionaryError(ConfigError):
    def __init__(self) -> None:
        super().__init__("no lemma dictionary loaded")


class MissingLexiconError(ConfigError):
    def __init__(self) -> None:
        super().__init__("no sentiment lexicon loaded")


# --- embeddings ---------------------------------------------------------------

class BadHeaderError(DataError):
    pass


class DimMismatchError(DataError):
    def __init__(self, path: object, row: int, detail: str):
        self.row = row
        super().__init__(f"{path}: row {row}: {detail}")


class DuplicateWordError(DataError):
    def __init__(self, path: object, row: int, word: str):
        self.row = row
        self.word = word
        super().__init__(f"{path}: row {row}: duplicate word {word!r}")


class ZeroVectorError(DataError):
    def __init__(self, path: object, row: int, word: str):
        self.row = row
        self.word = word
        super().__init__(
            f"{path}: row {row}: zero vector for {word!r}; its cosine distance is undefined")


# --- classification -----------------------------------------------------------

class MissingCategoryError(DataError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"training data has no examples for category {name!r}")


class DependentDatasetError(EgorankError):
    def __init__(self, dataset_no: int):
        self.dataset_no = dataset_no
        super().__init__(
            f"dataset {dataset_no} holds dependent documents; "
            "they inherit the parent's category instead of being classified"
        )


class OrphanDocumentError(DataError):
    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        super().__init__(f"document {doc_id!r} has no labeled parent to inherit from")


# --- scoring ------------------------------------------------------------------

class EmptyBucketError(EgorankError):
    def __init__(self, side: str):
        self.side = side
        super().__init__(f"no {side} documents")


class EmptyCorpusError(DataError):
    def __init__(self) -> None:
        super().__init__("no non-inert documents to index")


# --- target selection ---------------------------------------------------------

class NItOutOfRangeError(ConfigError):
    pass


class RankingTooSmallError(DataError):
    def __init__(self, have: int, want: int):
        self.have = have
        self.want = want
        super().__init__(f"ranking holds {have} members but {want} were requested")
