import numpy as np
import pytest

import stancecast as sc
from stancecast.errors import CountExceedsPoolError


def test_full_pool_sample_is_whole_pool():
    rng = sc.Rng(1)
    assert rng.sample([5, 2, 9], 3).tolist() == [2, 5, 9]


def test_empty_sample():
    rng = sc.Rng(1)
    assert rng.sample([1, 2, 3], 0).tolist() == []
    assert rng.sample([], 0).tolist() == []


def test_count_exceeds_pool():
    with pytest.raises(CountExceedsPoolError):
        sc.Rng(1).sample([1, 2], 3)


def test_sample_repeatable_across_runs():
    picks = [sc.Rng(123).sample(list(range(10)), 3).tolist() for _ in range(3)]
    assert picks[0] == picks[1] == picks[2]
    assert picks[0] == sorted(picks[0])


def test_sample_independent_of_container_type():
    a = sc.Rng(9).sample(list(range(20)), 5)
    b = sc.Rng(9).sample(np.arange(20, dtype=np.int64), 5)
    assert a.tolist() == b.tolist()


def test_streams_differ_but_replay():
    base = [sc.Rng(7, stream=i).random() for i in range(4)]
    again = [sc.Rng(7, stream=i).random() for i in range(4)]
    assert base == again
    assert len(set(base)) == 4


def test_zero_count_consumes_no_state():
    a = sc.Rng(5)
    b = sc.Rng(5)
    a.sample(list(range(10)), 0)
    assert a.random() == b.random()


def test_negative_seed_normalized():
    assert sc.Rng(-1).seed == 2**64 - 1
    assert sc.Rng(-1).random() == sc.Rng(2**64 - 1).random()


def test_bulk_draws_equal_single_draws():
    a = sc.Rng(7, stream=3)
    b = sc.Rng(7, stream=3)
    singles = [a.random() for _ in range(50)]
    bulk = [x for k in (0, 1, 7, 42) for x in b.random(k).tolist()]
    assert bulk == singles
    assert a.random() == b.random()
