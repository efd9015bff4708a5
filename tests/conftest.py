import functools
import os
import re
import subprocess
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


def run_python(*argv, python=sys.executable, path=(), env=None, drop=(), cwd=None, input=None,
               text=True, timeout=300):
    """Run ``python argv...`` with its output captured, and return the
    completed process.

    The child's environment is this process's, less the names in ``drop``,
    updated with ``env``. Its PYTHONPATH is always ``src/``, then the
    entries of ``path``, then this process's PYTHONPATH if it has one,
    whatever ``python`` is."""
    child = {k: v for k, v in os.environ.items() if k not in drop} | (env or {})
    child["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *map(str, path), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([str(python), *argv], env=child, cwd=cwd, input=input,
                          capture_output=True, text=text, timeout=timeout)


@functools.cache
def other_pythons():
    """A parameter for every CPython 3.10+ on this host but the running one
    (by real path), with its version as the id: found as ``python3.N`` on
    PATH and as pyenv's ``versions/3.*/bin/python``. Each is run once, and
    one that cannot start, such as the pyenv shim of a version not selected,
    is dropped. With none found, one skipped parameter."""
    candidates = [path for folder in os.get_exec_path()
                  for path in sorted(Path(folder).glob("python3.*"))
                  if re.fullmatch(r"python3\.[0-9]+", path.name)]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates += sorted(pyenv.glob("versions/3.*/bin/python"))
    probe = ("import os, platform, sys; print(platform.python_implementation(), "
             "sys.version_info >= (3, 10), platform.python_version(), "
             "os.path.realpath(sys.executable))")
    here, found = os.path.realpath(sys.executable), {}
    for path in candidates:
        try:
            proc = run_python("-c", probe, python=path, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.startswith("CPython True "):
            _, _, version, executable = proc.stdout.rstrip("\n").split(" ", 3)
            if executable != here:
                found.setdefault(executable, version)
    return [pytest.param(executable, id=version) for executable, version in found.items()] or [
        pytest.param(None, marks=pytest.mark.skip(reason="no other CPython 3.10+ on this host"))]


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
