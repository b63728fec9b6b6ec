"""Tests for the seed derivation and its vectorized form."""

import threading
import time

import numpy as np
import pytest

from hrrkit import seeds


@pytest.mark.parametrize("seed", [-1, 0, 2**64 + 5])
def test_mix64_array_matches_scalar(seed):
    idx = np.concatenate([np.arange(-3, 500), [np.iinfo(np.int64).max, np.iinfo(np.int64).min]])
    got = seeds.mix64_array(seed, idx)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [seeds.mix64(seed, int(i)) for i in idx]


def test_mix64_array_of_a_scalar_index():
    assert seeds.mix64_array(9, 4).tolist() == [seeds.mix64(9, 4)]


def reference_words(s):
    return np.random.SeedSequence(int(s)).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_seed_sequence_words_at_word_boundaries(seed):
    got = seeds.seed_sequence_words([seed])
    assert got.shape == (1, 4) and got.dtype == np.uint64
    np.testing.assert_array_equal(got[0], reference_words(seed))


def test_seed_sequence_words_of_mix64_outputs():
    mixed = seeds.mix64_array(2024, np.arange(1000))
    got = seeds.seed_sequence_words(mixed)
    assert got.shape == (1000, 4)
    np.testing.assert_array_equal(got, np.stack([reference_words(s) for s in mixed]))


def test_seed_sequence_words_of_nothing():
    assert seeds.seed_sequence_words(np.empty(0, dtype=np.uint64)).shape == (0, 4)


def test_generators_repeat_per_seed_streams():
    mixed = [0, 2**32 + 7, seeds.mix64(5, 3), 2**64 - 1]
    gens = list(seeds.pcg64_generators(mixed))
    assert len(gens) == len(mixed)
    for rng, s in zip(gens, mixed):
        ref = np.random.Generator(np.random.PCG64(s))
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(33), ref.standard_normal(33))
        np.testing.assert_array_equal(rng.integers(0, 2**62, 5), ref.integers(0, 2**62, 5))


def on_main(item):
    return item, threading.current_thread() is threading.main_thread()


class TestRunAhead:
    @pytest.mark.parametrize("alternate", [False, True])
    def test_items_in_order_on_the_expected_threads(self, alternate, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        got = list(seeds.run_ahead(on_main, range(7), alternate=alternate))
        assert [item for item, _ in got] == list(range(7))
        want = [i % 2 == 0 for i in range(7)] if alternate else [False] * 7
        assert [main for _, main in got] == want

    @pytest.mark.parametrize("alternate", [False, True])
    @pytest.mark.parametrize("cpus, items", [(1, range(5)), (2, range(1)), (2, [])])
    def test_one_cpu_or_one_item_runs_inline(self, cpus, items, alternate, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        got = [(main, threading.active_count()) for _, main in seeds.run_ahead(on_main, items, alternate)]
        assert got == [(True, before)] * len(items)

    @pytest.mark.parametrize("alternate", [False, True])
    def test_at_most_two_items_at_once(self, alternate, monkeypatch):
        # an item is live from the start of its making until the caller is done with it
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert self.peak_live_items(alternate, 1, range(6), 0.01) <= 2

    @pytest.mark.parametrize("alternate", [False, True])
    def test_a_longer_lead_keeps_at_most_lead_plus_one_items(self, alternate, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        assert self.peak_live_items(alternate, 3, range(10), 0.02) <= 4

    @staticmethod
    def peak_live_items(alternate, lead, items, use_s):
        lock, live, peak = threading.Lock(), [0], [0]

        def make(item):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            time.sleep(0.01)
            return item

        for _ in seeds.run_ahead(make, items, alternate, lead):
            time.sleep(use_s)
            with lock:
                live[0] -= 1
        return peak[0]

    @pytest.mark.parametrize("alternate", [False, True])
    def test_the_worker_starts_at_the_call_and_makes_only_its_lead(self, alternate, monkeypatch):
        monkeypatch.setattr(seeds, "_usable_cpus", lambda: 2)
        made = []
        before = threading.active_count()
        items = seeds.run_ahead(made.append, range(12), alternate, lead=3)
        assert threading.active_count() == before + 1
        deadline = time.monotonic() + 30
        while len(made) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # room to overrun the lead, if it could
        assert made == ([1, 3, 5] if alternate else [0, 1, 2])
        items.close()
        assert threading.active_count() == before

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(seeds.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(seeds.os, "cpu_count", lambda: None)
        assert seeds._usable_cpus() == 1
