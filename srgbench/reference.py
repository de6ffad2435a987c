"""A fixed unit of reference work, timed to track the host's speed.

The work mixes what the srg2048 package spends its time on: a pure-Python
loop over big-int bitsets with popcounts (the coclique search and checks),
numpy popcounts over packed rows (the graph build and verification) and
string formatting (the exports).  It uses nothing from the package, so a
change to the program never changes the reference.
"""

from __future__ import annotations

import random
import time

import numpy as np

_rng = random.Random(2048)
ROWS = [_rng.getrandbits(2048) for _ in range(256)]
PACKED = np.random.default_rng(2048).integers(0, 2**63, size=(2048, 32), dtype=np.uint64)


def work() -> int:
    acc = 0
    for i, a in enumerate(ROWS):
        for b in ROWS[i + 1 : i + 161]:
            acc += (a & b).bit_count()
    degrees = dict.fromkeys(range(2048), 0)
    for step in range(60000):
        v = (step * 769) & 2047
        if degrees[v] < 276:
            degrees[v] += 1
    for r in range(0, 96, 16):
        acc += int(np.bitwise_count(PACKED[r : r + 16, None, :] & PACKED[None, :, :]).sum(dtype=np.int64))
    acc += len(",".join(map(str, range(40000))))
    return acc + sum(degrees.values())


def sample() -> float:
    """Seconds taken by one unit of reference work."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
