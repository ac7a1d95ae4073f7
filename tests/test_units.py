import numpy as np
import pytest

from sfwm import GAMMA_HZ, units


def test_gamma_is_six_megahertz():
    assert GAMMA_HZ == 6.0e6
    assert units.frequency_to_hz(1.0) == 6.0e6


def test_frequency_round_trip_machine_precision():
    rng = np.random.default_rng(7)
    x = rng.uniform(-500, 500, 200)
    back = units.frequency_from_hz(units.frequency_to_hz(x))
    np.testing.assert_allclose(back, x, rtol=1e-15)


def test_time_round_trip_machine_precision():
    rng = np.random.default_rng(8)
    t = rng.uniform(0.1, 1e5, 200)
    back = units.time_to_ns(units.time_from_ns(t))
    np.testing.assert_allclose(back, t, rtol=1e-15)


def test_one_inverse_gamma_in_ns():
    assert units.time_to_ns(1.0) == pytest.approx(26.5258, rel=1e-5)
