"""Zadoff-Chu sequence property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.lte.zadoff_chu import zadoff_chu

from tests.lte.oracles import cyclic_autocorrelation


@pytest.mark.parametrize("root", [25, 29, 34])
def test_constant_amplitude(root):
    z = zadoff_chu(root, 63)
    assert np.allclose(np.abs(z), 1.0)


@pytest.mark.parametrize("root", [25, 29, 34])
def test_zero_autocorrelation(root):
    corr = cyclic_autocorrelation(zadoff_chu(root, 63))
    assert corr[0] == pytest.approx(1.0)
    assert np.max(corr[1:]) < 1e-10


@given(st.integers(min_value=1, max_value=62))
def test_cazac_for_any_coprime_root(root):
    if np.gcd(root, 63) != 1:
        return
    corr = cyclic_autocorrelation(zadoff_chu(root, 63))
    assert np.max(corr[1:]) < 1e-9


def test_different_roots_low_cross_correlation():
    a = zadoff_chu(25, 63)
    b = zadoff_chu(29, 63)
    cross = abs(np.vdot(a, b)) / 63
    assert cross < 0.2


def test_non_coprime_root_rejected():
    with pytest.raises(ValueError):
        zadoff_chu(21, 63)  # gcd(21, 63) = 21


def test_even_length_rejected():
    with pytest.raises(ValueError):
        zadoff_chu(3, 64)


def test_nonpositive_length_rejected():
    with pytest.raises(ValueError):
        zadoff_chu(1, 0)
