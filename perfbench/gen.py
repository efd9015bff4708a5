"""Seeded input generator for the benchmark workloads.

It writes only the formats the egorank README documents (activity and
member CSVs, the text embedding format, the resource lists and a config)
and imports nothing from egorank, so the program under test never helps
to build its own inputs.

Every scored word is a pseudo-word of three consonant-vowel syllables.
Such a word is alphabetic (a digit would make ``looks_english`` flag the
document), ends in a vowel (so no suffix rule of the lemmatizer applies),
and is neither a stop word nor in the lemma table written here. The
generator therefore knows the exact token list, category and sentiment of
every document, hence its bucket:

* the category classifier is trained from a labelled seed corpus whose
  only words are six topic words per category, and each document carries
  two topic words of its own category;
* the sentiment lexicon holds only the planted sentiment words, with no
  negators or boosters, and each document carries exactly one of them;
* English function words ("glue") pass the 0.34 English-word ratio and
  are the whole stop list, so they vanish before scoring. Documents meant
  to be flagged non-English simply carry no glue.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATEGORIES = ("Technology", "Politics", "Sports", "Business", "Entertainment")
SENTIMENTS = ("Positive", "Negative")
# Bucket index b is (CATEGORIES[b // 2], SENTIMENTS[b % 2]), the program's order.
BUCKETS = tuple((c, s) for c in CATEGORIES for s in SENTIMENTS)

GLUE = ("the", "a", "an", "to", "of", "in", "on", "for", "with", "at",
        "it", "is", "are", "this", "that", "and")
GLUE_RATIO = 0.55  # glue words per scored word; keeps the English share near 0.36
TOPIC_WORDS = 6
SENTIMENT_WORDS = 4
SEED_ROWS_PER_CATEGORY = 8

_CONSONANTS = "bdfghjklmnprtvz"
_VOWELS = "aeiou"
_SYLLABLES = len(_CONSONANTS) * len(_VOWELS)
WORD_SPACE = _SYLLABLES ** 3
WORD_LEN = 6

ACTIVITY_HEADER = ["post_id", "content", "user_name", "user_id", "react_count",
                   "share_count", "language", "time", "parent_post_id"]
MEMBER_HEADER = ["member_id", "display_name", "kind", "activity_types", "connections_count"]
MEMBER_KINDS = ("Friend", "Follower", "Following", "Connection", "Page")
EMBED_CHUNK_ROWS = 2048
THRESHOLD = 5000  # connections above which a selected member is a default influencer


@dataclass(frozen=True)
class Shape:
    """Size and spread of one generated corpus."""

    members: int
    docs_per_member: int
    ego_keys: tuple[int, ...]  # ego documents per bucket, in BUCKETS order
    content_vocab: int
    content_tokens: tuple[int, int]  # inclusive range of distinct content words per doc
    zipf: bool  # Zipf(1) draws over the content vocabulary, else uniform
    embed_words: int
    dim: int
    flagged_docs: int = 0
    member_noise: float = 0.1  # share of a member's docs outside their own bucket
    groups: int = 2
    mega: int = 3
    unknown_connections: int = 3
    n_it: int = 5


@dataclass(frozen=True)
class Doc:
    doc_id: str
    owner_id: str
    dataset_no: int
    bucket: int | None  # None for a document flagged non-English
    tokens: tuple[str, ...]


@dataclass
class Truth:
    """What the generator knows about the inputs it wrote."""

    shape: Shape
    config: Path
    docs: list[Doc]
    members: dict[str, tuple[str, int | None]]  # member id -> (kind, connections)
    vectors: dict[str, list[float]]  # every word that occurs in a document

    @property
    def eligible(self) -> set[str]:
        return {m for m, (kind, _) in self.members.items() if kind != "Group"}

    def bucket_sides(self, bucket: int) -> tuple[list[Doc], list[Doc]]:
        """(key docs, target docs) that the scoring stage sees in a bucket."""
        keys = [d for d in self.docs if d.bucket == bucket and d.dataset_no <= 4]
        targets = [d for d in self.docs if d.bucket == bucket and d.dataset_no >= 6]
        return keys, targets

    def expected_ranking(self, bucket: int) -> set[str]:
        keys, targets = self.bucket_sides(bucket)
        if not keys:
            return set()
        return {d.owner_id for d in targets} & self.eligible

    def work(self, buckets) -> dict:
        """Scoring work per bucket, counted from the generated token lists.

        Word pairs are key words x target words (every word has a vector);
        distinct pairs are unordered and counted per bucket, which is the
        scope of the program's distance cache.
        """
        doc_pairs = word_pairs = distinct = 0
        per_bucket = {}
        for b in buckets:
            keys, targets = self.bucket_sides(b)
            if not keys or not targets:
                continue
            k_words = sum(len(set(d.tokens)) for d in keys)
            t_words = sum(len(set(d.tokens)) for d in targets)
            u_k = set().union(*(d.tokens for d in keys))
            u_t = set().union(*(d.tokens for d in targets))
            shared = len(u_k & u_t)
            doc_pairs += len(keys) * len(targets)
            word_pairs += k_words * t_words
            distinct += len(u_k) * len(u_t) - shared * (shared - 1) // 2
            per_bucket["%s/%s" % BUCKETS[b]] = [len(keys), len(targets)]
        return {"doc_pairs": doc_pairs, "word_pairs": word_pairs,
                "distinct_word_pairs": distinct, "keys_x_targets": per_bucket}


def pseudo_word(n: int) -> str:
    out = []
    for _ in range(3):
        n, r = divmod(n, _SYLLABLES)
        out.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(out)


def _vocabulary(rng: random.Random, count: int) -> list[str]:
    # An affine map with a stride coprime to WORD_SPACE gives distinct words.
    offset = rng.randrange(WORD_SPACE)
    return [pseudo_word((i * 7919 + offset) % WORD_SPACE) for i in range(count)]


def generate(shape: Shape, seed: int, out: Path) -> Truth:
    """Write one corpus, its resources, embeddings and config under ``out``."""
    if len(shape.ego_keys) != len(BUCKETS):
        raise ValueError("ego_keys needs one count per bucket")
    out.mkdir(parents=True)
    rng = random.Random(seed)
    n_topic = TOPIC_WORDS * len(CATEGORIES)
    n_senti = SENTIMENT_WORDS * len(SENTIMENTS)
    n_used = n_topic + n_senti + shape.content_vocab
    if shape.embed_words < n_used:
        raise ValueError("embedding vocabulary smaller than the document vocabulary")
    words = _vocabulary(rng, shape.embed_words)
    topic = [words[c * TOPIC_WORDS:(c + 1) * TOPIC_WORDS] for c in range(len(CATEGORIES))]
    senti = [words[n_topic + s * SENTIMENT_WORDS:n_topic + (s + 1) * SENTIMENT_WORDS]
             for s in range(len(SENTIMENTS))]
    content = words[n_topic + n_senti:n_used]
    cum_weights = None
    if shape.zipf:
        cum_weights = list(np.cumsum(1.0 / np.arange(1, len(content) + 1)))

    def scored_words(bucket: int) -> list[str]:
        cat, sen = divmod(bucket, 2)
        # Distinct content words keep each document's scoring work independent of the seed.
        n = rng.randint(*shape.content_tokens)
        drawn: dict[str, None] = {}
        while len(drawn) < n:
            drawn.update(dict.fromkeys(rng.choices(content, cum_weights=cum_weights, k=n - len(drawn))))
        return list(drawn) + rng.choices(topic[cat], k=2) + [rng.choice(senti[sen])]

    def text(scored: list[str], english: bool) -> str:
        glue = rng.choices(GLUE, k=math.ceil(GLUE_RATIO * len(scored)) + 1) if english else []
        mixed = scored + glue
        rng.shuffle(mixed)
        return " ".join(mixed) + "."

    member_ids = [f"m{i:04d}" for i in range(1, shape.members + 1)]
    docs: list[Doc] = []
    rows: dict[int, list[list[str]]] = {no: [] for no in (1, 2, 3, 4, 6, 7, 8, 9)}
    posts_by_category: dict[tuple[str, int], list[str]] = {}  # (side, category) -> post ids

    def emit(owner: str, dataset_no: int, bucket: int | None, parent: str = "",
             english: bool = True) -> str:
        post_id = f"p{len(docs) + 1:06d}"
        scored = scored_words(bucket if bucket is not None else rng.randrange(len(BUCKETS)))
        when = f"2024-{1 + len(docs) % 12:02d}-{1 + len(docs) % 28:02d}T{len(docs) % 24:02d}:00:00+00:00"
        rows[dataset_no].append([post_id, text(scored, english), owner, owner,
                                 str(len(docs) % 17), str(len(docs) % 5), "en", when, parent])
        # Scored tokens are the non-glue words in text order.
        tokens = tuple(w for w in rows[dataset_no][-1][1].rstrip(".").split() if w not in GLUE)
        docs.append(Doc(f"d{dataset_no}-{post_id}", owner, dataset_no, bucket, tokens))
        return post_id

    def emit_side(owner: str, bucket: int, side: str) -> None:
        post_no, message_no, share_no, comment_no = (1, 4, 2, 3) if side == "ego" else (6, 9, 7, 8)
        parents = posts_by_category.setdefault((side, bucket // 2), [])
        roll = rng.random()
        if roll < 0.65 or not parents:
            parents.append(emit(owner, post_no, bucket))
        elif roll < 0.8:
            emit(owner, message_no, bucket)
        else:
            # A dependent row inherits its parent's category, keeps its own sentiment.
            emit(owner, share_no if roll < 0.9 else comment_no, bucket,
                 parent=rng.choice(parents))

    for bucket, count in enumerate(shape.ego_keys):
        for _ in range(count):
            emit_side("ego", bucket, "ego")
    noise = round(shape.docs_per_member * shape.member_noise)
    for i, member in enumerate(member_ids):
        home = i % len(BUCKETS)
        plan = [home] * (shape.docs_per_member - noise)
        plan += [(home + 1 + (i + j) % (len(BUCKETS) - 1)) % len(BUCKETS) for j in range(noise)]
        rng.shuffle(plan)
        for bucket in plan:
            emit_side(member, bucket, "member")
    for _ in range(shape.flagged_docs):
        emit(rng.choice(member_ids), 6, None, english=False)

    for no, dataset_rows in rows.items():
        with (out / f"dataset_{no}.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ACTIVITY_HEADER)
            writer.writerows(dataset_rows)

    members: dict[str, tuple[str, int | None]] = {}
    groups = set(member_ids[-shape.groups:]) if shape.groups else set()
    others = [m for m in member_ids if m not in groups]
    picked = rng.sample(others, shape.mega + shape.unknown_connections)
    mega, unknown = set(picked[:shape.mega]), set(picked[shape.mega:])
    with (out / "members.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEMBER_HEADER)
        for i, member in enumerate(member_ids):
            kind = "Group" if member in groups else MEMBER_KINDS[i % len(MEMBER_KINDS)]
            if member in mega:
                connections = rng.randint(6000, 20000)
            elif member in unknown:
                connections = None
            else:
                connections = rng.randint(20, 4500)
            members[member] = (kind, connections)
            writer.writerow([member, f"member{i + 1:04d}", kind, "Post;Comment",
                             "" if connections is None else connections])

    _write_resources(out, topic, senti)
    kept = _write_embeddings(out / "embeddings.txt", words, shape.dim,
                             np.random.default_rng(seed), n_used)
    config = {
        "platform": "Facebook",
        "ego_id": "ego",
        "datasets": {str(no): f"dataset_{no}.csv" for no in rows} | {"5": "members.csv"},
        "window": {"since": "2023-01-01T00:00:00+00:00", "until": "2026-01-01T00:00:00+00:00"},
        "resources": {
            "embeddings": "embeddings.txt",
            "labeled_seed": "seed_categories.csv",
            "stop_list": "stop_words.txt",
            "lemma_dictionary": "lemmas.tsv",
            "sentiment_lexicon": "sentiment_lexicon.tsv",
            "negators": "negators.txt",
            "boosters": "boosters.txt",
            "spelling_dictionary": None,
        },
        "bucket": "all",
        "n_it": shape.n_it,
        "threshold": THRESHOLD,
        "normalization": "raw",
        "allow_small": True,
        "seed": seed,
        "out_dir": "out",
        "workers": 1,
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    vectors = {w: kept[i].tolist() for i, w in enumerate(words[:n_used])}
    return Truth(shape=shape, config=config_path, docs=docs, members=members, vectors=vectors)


def _write_resources(out: Path, topic: list[list[str]], senti: list[list[str]]) -> None:
    (out / "stop_words.txt").write_text("\n".join(GLUE) + "\n", encoding="utf-8")
    # The lemmatizer refuses an empty table; these forms never occur.
    (out / "lemmas.tsv").write_text("children\tchild\nmice\tmouse\n", encoding="utf-8")
    lexicon = [f"{w}\t2.0" for w in senti[0]] + [f"{w}\t-2.0" for w in senti[1]]
    (out / "sentiment_lexicon.tsv").write_text("\n".join(lexicon) + "\n", encoding="utf-8")
    (out / "negators.txt").write_text("", encoding="utf-8")
    (out / "boosters.txt").write_text("", encoding="utf-8")
    with (out / "seed_categories.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "category"])
        for category, words in zip(CATEGORIES, topic):
            # Equal row counts and lengths keep the priors and denominators equal.
            for _ in range(SEED_ROWS_PER_CATEGORY):
                writer.writerow([" ".join(words), category])


def _write_embeddings(path: Path, words: list[str], dim: int,
                      rng: np.random.Generator, keep: int) -> np.ndarray:
    """Write ``len(words)`` rows of ``dim`` six-decimal components in (-1, 1).

    Each component is a fixed-width ``+0.dddddd`` or ``-0.dddddd`` field, so
    a chunk of rows is assembled as one byte array. Returns the first
    ``keep`` rows as the floats the program parses from the file.
    """
    kept = []
    with path.open("wb") as fh:
        fh.write(f"{len(words)} {dim}\n".encode())
        for lo in range(0, len(words), EMBED_CHUNK_ROWS):
            chunk = words[lo:lo + EMBED_CHUNK_ROWS]
            q = rng.integers(-999_999, 1_000_000, size=(len(chunk), dim))
            cells = np.empty((len(chunk), dim, 10), dtype=np.uint8)
            cells[..., 0] = ord(" ")
            cells[..., 1] = np.where(q < 0, ord("-"), ord("+"))
            cells[..., 2] = ord("0")
            cells[..., 3] = ord(".")
            magnitude = np.abs(q)
            for k in range(6):
                cells[..., 4 + k] = magnitude // 10 ** (5 - k) % 10 + ord("0")
            rows = np.empty((len(chunk), WORD_LEN + dim * 10 + 1), dtype=np.uint8)
            rows[:, :WORD_LEN] = np.frombuffer("".join(chunk).encode(), np.uint8).reshape(-1, WORD_LEN)
            rows[:, WORD_LEN:-1] = cells.reshape(len(chunk), dim * 10)
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes())
            if lo < keep:
                kept.append(q[:keep - lo] / 1e6)
    return np.concatenate(kept)
