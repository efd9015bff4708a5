import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from egorank import resources
from egorank.classify import SentimentAnalyzer
from egorank.lexproc import Lemmatizer
from egorank.simdex import SimilarityModels, WordVectorStore


def word_store(embeddings):
    """A WordVectorStore of a word -> vector dict, rows normalised as the loader does."""
    if not embeddings:
        return WordVectorStore(unit=np.zeros((0, 0)), index={})
    vectors = np.array(list(embeddings.values()), dtype=np.float64)
    return WordVectorStore(unit=vectors / np.linalg.norm(vectors, axis=1)[:, None],
                           index={word: row for row, word in enumerate(embeddings)})


def build_models(docs, vectors):
    """SimilarityModels of ``docs``, with df and n counted over its non-inert
    docs as ingest counts them."""
    df = Counter(w for d in docs for w in set(d.tokens))
    n = sum(1 for d in docs if d.tokens)
    return SimilarityModels.build(df, n, vectors, docs)


@pytest.fixture(scope="session")
def stop_words():
    return resources.load_stop_words()


@pytest.fixture(scope="session")
def lemmatizer():
    return Lemmatizer(resources.load_lemma_table())


@pytest.fixture(scope="session")
def analyzer():
    return SentimentAnalyzer(resources.load_sentiment_lexicon(), resources.load_negators(),
                             resources.load_boosters())


@pytest.fixture(scope="session")
def lexicon():
    return resources.load_sentiment_lexicon()


@pytest.fixture(scope="session")
def negators():
    return resources.load_negators()


@pytest.fixture(scope="session")
def boosters():
    return resources.load_boosters()
