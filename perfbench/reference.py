"""Fixed reference work for rescaling pass times to the host's current speed.

Usage: python3 perfbench/reference.py

It starts the interpreter and imports numpy, as every egorank invocation
does. Then it does the kind of compute an egorank pass does: regex
tokenising, dict counting, and a pure-Python loop over word pairs with
cached numpy cosine distances. It prints the seconds that compute took, so
the caller can split its wall time into start-up and compute. Its inputs
are fixed and it imports nothing from egorank, so no change to the program
alters its time; only the host does.
"""

import random
import re
import time

import numpy as np

WORD = re.compile(r"[a-z]+")


def main() -> float:
    rng = random.Random(0)
    words = ["".join(rng.choice("bcdfghjklmnpqrstvwz") for _ in range(7)) for _ in range(400)]
    vectors = {w: np.array([rng.uniform(-1, 1) for _ in range(50)]) for w in words}
    docs = [" ".join(rng.choice(words).title() for _ in range(12)) for _ in range(400)]
    bags = []
    for doc in docs:
        bag: dict[str, int] = {}
        for token in WORD.findall(doc.lower()):
            bag[token] = bag.get(token, 0) + 1
        bags.append(bag)
    cache: dict = {}
    total = 0.0
    for key in bags[:6]:
        for target in bags[6:]:
            for a in sorted(key):
                for b in sorted(target):
                    pair = (a, b) if a <= b else (b, a)
                    distance = cache.get(pair)
                    if distance is None:
                        v1, v2 = vectors[a], vectors[b]
                        cosine = float(np.dot(v1, v2)) / (
                            float(np.linalg.norm(v1)) * float(np.linalg.norm(v2)))
                        distance = cache[pair] = max(1.0 - cosine, 1e-6)
                    total += (key[a] + target[b]) / distance
    return total


if __name__ == "__main__":
    started = time.perf_counter()
    main()
    print(f"{time.perf_counter() - started:.6f}")
