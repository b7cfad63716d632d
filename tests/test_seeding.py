from __future__ import annotations

import numpy as np
import pytest

from wignerlab import ConfigurationError, SeedSpec


def test_same_stream_reproduces_draws():
    a = SeedSpec(123, 4).generator().standard_normal(16)
    b = SeedSpec(123, 4).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    draws = [SeedSpec(123, k).generator().standard_normal(8) for k in range(6)]
    for i in range(len(draws)):
        for k in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[k])


def test_distinct_master_seeds_differ():
    a = SeedSpec(1, 0).generator().standard_normal(8)
    b = SeedSpec(2, 0).generator().standard_normal(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("bad", [(-1, 0), (0, -2)])
def test_negative_values_rejected(bad):
    with pytest.raises(ConfigurationError):
        SeedSpec(*bad)


def test_non_integer_rejected():
    with pytest.raises(ConfigurationError):
        SeedSpec(1.5)


@pytest.mark.parametrize("bad", [(True, False), (1, True), ("3",), (np.bool_(True),)])
def test_bools_and_strings_rejected(bad):
    # the spec fields' number rule: bools are not integers
    with pytest.raises(ConfigurationError):
        SeedSpec(*bad)


def test_numpy_integers_become_ints():
    spec = SeedSpec(np.uint32(7), np.int64(3))
    assert spec == SeedSpec(7, 3)
    assert type(spec.master_seed) is int and type(spec.stream_index) is int
