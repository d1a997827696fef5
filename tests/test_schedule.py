"""Schedule construction: boundary conditions, range safety, derivatives."""

from dataclasses import dataclass

import numpy as np
import pytest

from cdqfi.schedule import (
    SAFE_AMPLITUDE,
    base_schedule,
    correction_envelope,
    learned_schedule,
    reference_schedule,
)


@dataclass(frozen=True)
class AmplitudeReport:
    infimum_ratio: float
    violations: int
    worst_margin: float

    @property
    def safe(self) -> bool:
        return self.violations == 0


def verify_safe_amplitude(amplitude: float) -> AmplitudeReport:
    """Check K * env(t) <= min(lambda0, 1 - lambda0) on a dense grid.

    Reports the empirical infimum of min(lambda0, 1-lambda0)/env over the
    interior grid; amplitudes above it push the schedule out of [0, 1].
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    ts = np.linspace(0.0, 1.0, 10_001)
    lam0, _ = base_schedule(ts)
    env, _ = correction_envelope(ts)
    headroom = np.minimum(lam0, 1.0 - lam0)
    interior = env > 0
    margins = headroom - amplitude * env
    return AmplitudeReport(
        infimum_ratio=float((headroom[interior] / env[interior]).min()),
        violations=int(np.sum(margins < -1e-15)),
        worst_margin=float(margins.min()),
    )


class TestReference:
    def test_boundaries(self):
        lam, dlam = reference_schedule(np.array([0.0, 1.0]))
        np.testing.assert_allclose(lam, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(dlam, [0.0, 0.0], atol=1e-15)

    def test_midpoint(self):
        lam, dlam = reference_schedule(0.5)
        np.testing.assert_allclose(lam, 0.5, atol=1e-15)
        np.testing.assert_allclose(dlam, np.pi / 2, atol=1e-15)

    def test_derivative_against_finite_difference(self):
        t = np.linspace(0.05, 0.95, 19)
        _, dlam = reference_schedule(t)
        d = 1e-6
        fd = (reference_schedule(t + d)[0] - reference_schedule(t - d)[0]) / (2 * d)
        np.testing.assert_allclose(dlam, fd, atol=1e-9)


class TestLearned:
    def test_zero_correction_gives_base(self):
        t = np.linspace(0, 1, 11)
        lam, _ = learned_schedule(t, np.zeros_like(t), np.zeros_like(t))
        np.testing.assert_allclose(lam, 3 * t**2 - 2 * t**3, atol=1e-15)
        np.testing.assert_allclose(lam[5], 0.5, atol=1e-15)

    def test_saturation_limit(self):
        lam, _ = learned_schedule(0.5, 1e3, 0.0)
        np.testing.assert_allclose(lam, 0.5 + 3 * 0.0625, atol=1e-12)

    def test_boundaries_for_any_u(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.uniform(-50, 50, size=2)
            du = rng.uniform(-100, 100, size=2)
            lam, dlam = learned_schedule(np.array([0.0, 1.0]), u, du)
            np.testing.assert_allclose(lam, [0.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(dlam, [0.0, 0.0], atol=1e-12)

    def test_range_random_sampling(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, 100_000)
        u = rng.uniform(-50, 50, 100_000)
        lam, _ = learned_schedule(t, u, np.zeros_like(u))
        assert lam.min() >= 0.0
        assert lam.max() <= 1.0

    def test_derivative_matches_finite_difference_for_smooth_u(self):
        # u(t) produced by a fixed random smooth function stands in for the net
        rng = np.random.default_rng(2)
        c = rng.standard_normal(4)

        def u_fn(t):
            return c[0] + c[1] * t + c[2] * np.sin(3 * t) + c[3] * t**2

        def du_fn(t):
            return c[1] + 3 * c[2] * np.cos(3 * t) + 2 * c[3] * t

        t = np.linspace(0.02, 0.98, 49)
        _, dlam = learned_schedule(t, u_fn(t), du_fn(t))
        d = 1e-6
        fd = (
            learned_schedule(t + d, u_fn(t + d), du_fn(t + d))[0]
            - learned_schedule(t - d, u_fn(t - d), du_fn(t - d))[0]
        ) / (2 * d)
        np.testing.assert_allclose(dlam, fd, atol=1e-7)


class TestSafeAmplitude:
    def test_shipped_amplitude_safe(self):
        report = verify_safe_amplitude(SAFE_AMPLITUDE)
        assert report.safe
        assert report.infimum_ratio >= SAFE_AMPLITUDE - 1e-9

    def test_overshoot_violates_near_endpoints(self):
        # headroom/envelope tends to 3 at both endpoints, so 3.5 must fail
        report = verify_safe_amplitude(3.5)
        assert not report.safe
        assert report.worst_margin < 0

    def test_zero_amplitude_trivially_safe(self):
        assert verify_safe_amplitude(0.0).safe

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            verify_safe_amplitude(-1.0)
