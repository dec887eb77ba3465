"""Tests for the exact Clifford generators."""

import numpy as np
import pytest

from adspet.clifford import ETA, gamma


def test_anticommutators_exact():
    # Gaussian-integer entries, so the relations hold with zero tolerance.
    for a in range(5):
        for b in range(5):
            anti = gamma(a) @ gamma(b) + gamma(b) @ gamma(a)
            assert np.array_equal(anti, -2.0 * ETA[a, b] * np.eye(4))


def test_hermiticity_pattern():
    assert np.array_equal(gamma(0), gamma(0).conj().T)
    for i in range(1, 5):
        assert np.array_equal(gamma(i), -gamma(i).conj().T)


def test_squares():
    assert np.array_equal(gamma(0) @ gamma(0), np.eye(4))
    for i in range(1, 5):
        assert np.array_equal(gamma(i) @ gamma(i), -np.eye(4))


def test_gamma_read_only_and_index_errors():
    with pytest.raises((ValueError, RuntimeError)):
        gamma(0)[0, 0] = 5.0
    for bad in (-1, 5, 2.0, "1"):
        with pytest.raises(IndexError):
            gamma(bad)
