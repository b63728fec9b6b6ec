"""Deterministic 64-bit seed derivation.

Experiments fan a single user seed out to many independent generators
(per class, per trial, per grid point). The split uses the splitmix64
finalizer so every derived stream is a pure function of the master seed
and the integer path to it, independent of execution order.

A class vector's stream is derived as mix64(seed, i) -> numpy SeedSequence
-> PCG64. Building one SeedSequence per class costs more than the class's
draws, so `mix64_array` and `seed_sequence_words` run the first two steps
for a whole index array in uint64/uint32 numpy arithmetic, and
`pcg64_generators` hands the resulting state words to PCG64's own seeding.
Each generator is bit for bit the one `np.random.Generator(np.random.PCG64(
mix64(seed, i)))` makes.

Because no stream depends on when it is drawn, independent draws may run on
another core: `run_ahead` makes the next items of a sequence on a worker
thread while the caller uses (or makes) the current one, and yields the
items in order.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import os
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence constants (O'Neill's seed_seq_fe), pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64(*parts):
    """Fold integer parts into one 64-bit seed, splittable-generator style."""
    h = 0
    for part in parts:
        h = _splitmix64(h ^ (int(part) & _MASK))
    return h


def mix64_array(seed, indices):
    """mix64(seed, i) for every i of an int64 index array, as uint64."""
    u64 = np.uint64
    # int64 -> uint64 wraps modulo 2**64, the scalar version's masking
    x = np.atleast_1d(np.asarray(indices, dtype=np.int64)).astype(u64) ^ u64(mix64(seed))
    x += u64(0x9E3779B97F4A7C15)
    x ^= x >> u64(30)
    x *= u64(0xBF58476D1CE4E5B9)
    x ^= x >> u64(27)
    x *= u64(0x94D049BB133111EB)
    x ^= x >> u64(31)
    return x


def seed_sequence_words(seeds):
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for each seed.

    seeds holds integers in [0, 2**64); the result has shape
    seeds.shape + (4,), a scalar seed counting as shape (1,). This is
    numpy's documented algorithm: the seed's little-endian uint32 words are
    hash-mixed into a 4-word pool, and 8 uint32 output words are hashed
    from the pool and paired into 4 uint64.
    A seed below 2**32 has one entropy word where others have two; the
    pool hashes a missing word exactly as it hashes a zero word, so both
    take the same path.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    u32 = np.uint32
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = (const * _MULT_A) & _MASK32
        value *= u32(const)
        value ^= value >> u32(16)
        return value

    def mix(x, y):
        out = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        out ^= out >> u32(16)
        return out

    zero = np.zeros(seeds.shape, dtype=u32)
    entropy = [(seeds & np.uint64(_MASK32)).astype(u32), (seeds >> np.uint64(32)).astype(u32)]
    pool = [hashmix(word) for word in entropy + [zero] * (_POOL - len(entropy))]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    words = np.empty(seeds.shape + (2 * _POOL,), dtype=u32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ u32(const)
        const = (const * _MULT_B) & _MASK32
        value *= u32(const)
        words[..., i] = value ^ (value >> u32(16))
    # pair uint32 words little-endian first, as numpy does on any host
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence whose only state is four precomputed uint64 words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's 4 uint64 state words are precomputed")
        return self.words


def pcg64_generators(seeds):
    """Yield np.random.Generator(np.random.PCG64(int(s))) for each seed, in order.

    The state words of all seeds are derived in one vectorized pass; PCG64
    then runs its own seeding from them, so every stream is bit-identical to
    the per-seed construction. One generator exists at a time.
    """
    for words in seed_sequence_words(seeds):
        yield np.random.Generator(np.random.PCG64(_StateWords(words)))


def run_ahead(make, items, alternate=False, lead=1):
    """Make make(item) for each item of the sized sequence items; yield them in order.

    With two or more items and two or more usable CPUs, outside a process
    started by multiprocessing (a pool's worker, whose siblings hold the
    other CPUs), one worker thread starts when run_ahead is called and
    makes the first `lead` items before the first is asked for; each item
    the caller takes hands the worker the next. So while the caller uses
    item i, the worker has items i + 1 to i + lead in the making or ready.
    With `alternate` the caller's thread makes every other item itself
    instead (items 0, 2, 4, ...), and the worker keeps `lead` of the odd
    items ahead. With lead 1, at most two items are in the making or in
    use at once either way. Otherwise every item is made on the caller's
    thread when it is asked for. The results are the same either way as
    long as make(item) does not depend on the thread or the time it runs.
    An error in make is raised where its item is taken, so the first
    failing item in order is the one raised; errors of the items after
    it, which a serial loop would never have made, are dropped. Closing
    the returned generator, or dropping it, waits for the item in the
    making, cancels the rest and stops the worker.
    """
    if len(items) < 2 or not _worker_allowed():
        return (make(item) for item in items)
    made = _made_ahead(make, items, alternate, lead)
    next(made)  # starts the worker now, not when the first item is asked for
    return made


def _made_ahead(make, items, alternate, lead):
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
    try:
        worker = iter(range(1 if alternate else 0, len(items), 2 if alternate else 1))
        ahead = collections.deque(pool.submit(make, items[i]) for i in itertools.islice(worker, lead))
        yield
        for i, item in enumerate(items):
            if alternate and i % 2 == 0:
                yield make(item)
                continue
            done = ahead.popleft().result()
            ahead.extend(pool.submit(make, items[j]) for j in itertools.islice(worker, 1))
            yield done
    finally:
        pool.shutdown(cancel_futures=True)


def _worker_allowed():
    """Whether a worker thread may start: two or more usable CPUs, and not
    a process started by multiprocessing (a pool's worker, whose siblings
    hold the other CPUs)."""
    # A process started by multiprocessing has it loaded; looking it up
    # rather than importing it keeps the import out of every other process.
    mp = sys.modules.get("multiprocessing")
    return (mp is None or mp.parent_process() is None) and _usable_cpus() >= 2


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
