import numpy as np
import pytest

from memelements import (ConfigError, DomainError, Excitation, NumericalError, PolynomialCurve,
                         SampleGrid, classify, excite, grid)


class TestExcitation:
    def test_defaults(self):
        exc = Excitation()
        assert exc.amplitude == 1.0
        assert exc.omega == 1.0
        assert exc.offset == 1.0
        assert exc.period == pytest.approx(2.0 * np.pi)
        assert exc.sweep_range == (0.0, 2.0)

    def test_offset_tracks_amplitude(self):
        exc = Excitation(amplitude=2.5)
        assert exc.offset == 2.5
        assert exc.sweep_range == (0.0, 5.0)

    def test_explicit_offset(self):
        exc = Excitation(amplitude=1.0, offset=3.0)
        assert exc.sweep_range == (2.0, 4.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Excitation(amplitude=0.0)
        with pytest.raises(DomainError):
            Excitation(omega=-1.0)


class TestExcite:
    def test_level_zero_is_raised_cosine(self):
        exc = Excitation()
        t = np.linspace(0.0, 2.0 * np.pi, 257)
        assert np.allclose(excite(exc, t), 1.0 - np.cos(t), atol=1e-15)

    def test_derivative_cycle(self):
        exc = Excitation()
        t = np.linspace(0.0, 2.0 * np.pi, 64)
        for level, expect in (
            (1, np.sin(t)),
            (2, np.cos(t)),
            (3, -np.sin(t)),
            (4, -np.cos(t)),
            (5, np.sin(t)),
        ):
            assert np.allclose(excite(exc, t, level), expect, atol=1e-15), level

    def test_omega_scaling(self):
        exc = Excitation(amplitude=2.0, omega=3.0)
        t = 0.4
        assert excite(exc, t, 1) == pytest.approx(2.0 * 3.0 * np.sin(3.0 * t))
        assert excite(exc, t, 2) == pytest.approx(2.0 * 9.0 * np.cos(3.0 * t))

    def test_zero_before_switch_on(self):
        exc = Excitation()
        t = np.array([-1.0, -1e-9, 0.0, 1.0])
        vals = excite(exc, t)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[2] == 0.0
        assert vals[3] == pytest.approx(1.0 - np.cos(1.0))
        assert excite(exc, -0.5, 3) == 0.0

    def test_scalar_in_scalar_out(self):
        exc = Excitation()
        out = excite(exc, 0.25, 1)
        assert isinstance(out, float)
        assert out == pytest.approx(np.sin(0.25))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_times(self, value):
        # the first time that is not finite is named; -inf once read as before switch-on
        for level in (0, 1, 3):
            with pytest.raises(DomainError, match=f"times must be finite, got {value!r}"):
                excite(Excitation(), value, level)
            with pytest.raises(DomainError, match=f"got {value!r}"):
                excite(Excitation(), np.array([0.5, value, np.nan]), level)

    def test_level_beyond_float_range_names_it(self):
        # A * omega^2 = 1e310 is not a float; omega = 1e100 still works
        exc = Excitation(omega=1e155)
        assert excite(exc, 0.0, 1) == 0.0
        with pytest.raises(NumericalError, match=r"drive level 2 .*amplitude 1.*omega 1e\+155"):
            excite(exc, 0.0, 2)

    def test_classify_at_a_huge_omega_raises_numerical_error(self):
        cubic = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))
        with pytest.raises(NumericalError, match="drive level"):
            classify((-2, -2), cubic, Excitation(omega=1e155))
        assert classify((-2, -2), cubic, Excitation(omega=1e100)).verdict.value == "locally_active"


class TestGrid:
    def test_closed_uniform_grid(self):
        exc = Excitation()
        g = grid(exc, 4096)
        assert len(g.t_values) == 4097
        assert g.t_values[0] == 0.0
        assert g.t_values[-1] == pytest.approx(exc.period)
        steps = np.diff(g.t_values)
        assert np.allclose(steps, steps[0], rtol=1e-9)
        assert g.spacing == pytest.approx(exc.period / 4096)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, bad):
        t = np.linspace(0.0, 2.0 * np.pi, 65)
        t[5] = bad
        with pytest.raises(ConfigError, match=rf"finite.*t\[5\] = {bad!r} is off the grid"):
            SampleGrid(t_values=t)

    def test_accepts_the_large_grids_it_makes(self):
        # linspace rounds i * step with an error growing about like i * eps,
        # which passes 1e-9 of the step near n = 1.1e6; as a fraction of the
        # period, each sample stays within 1 eps of i/n
        g = grid(Excitation(omega=1e3), 2 ** 23)
        assert g.count == 2 ** 23

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3, 1e300])
    @pytest.mark.parametrize("n", [64, 65, 257, 4095, 4096, 2 ** 16, 2 ** 20])
    def test_accepts_every_grid_it_makes(self, n, omega):
        g = grid(Excitation(omega=omega), n)
        assert g.count == n and len(g) == n + 1
        assert g.spacing == g.t_values[1] - g.t_values[0]

    def test_count_is_read_off_the_times(self):
        g = SampleGrid(t_values=np.linspace(0.0, 1.0, 101))
        assert g.count == 100
        with pytest.raises(AttributeError):
            g.count = 64
        with pytest.raises(TypeError):
            SampleGrid(t_values=np.linspace(0.0, 1.0, 101), count=100)

    @pytest.mark.parametrize("t, why", [
        (np.linspace(0.0, 1.0, 64), r"at least 64 intervals, got shape \(64,\)"),
        (np.linspace(0.0, 1.0, 65).reshape(5, 13), r"one-dimensional.*shape \(5, 13\)"),
        (np.linspace(1.0, 2.0, 65), r"t\[0\] = 1.0 is off the grid"),
        (np.linspace(0.0, -1.0, 65), r"t\[64\] = -1.0 is off the grid"),
        (np.zeros(65), r"t\[64\] = 0.0 is off the grid"),
    ])
    def test_rejects_times_off_the_grid(self, t, why):
        with pytest.raises(ConfigError, match=why):
            SampleGrid(t_values=t)

    def test_rejects_a_step_bounded_drift(self):
        # every step lies within 3 n eps of the mean step, which a bound on
        # the steps alone accepts; yet the steps drift samples up to 7.9e5 eps
        # of the period off i*T/n, and odd_symmetry, which pairs sample i
        # with sample n - i, then calls the cubic's depth-1 locus not odd
        eps = np.finfo(float).eps
        n = 2 ** 20
        steps = 1.0 + 2.0 * n * eps * np.sign(np.arange(n) - n / 4 + 0.5)
        assert np.max(np.abs(steps / steps.mean() - 1.0)) <= 3.03 * n * eps
        t = np.append(0.0, np.cumsum(steps)) / steps.sum() * (2.0 * np.pi)
        with pytest.raises(ConfigError, match="uniform.* is off the grid"):
            SampleGrid(t_values=t)

    def test_rejects_subnormal_steps(self):
        with pytest.raises(ConfigError, match="uniform"):
            grid(Excitation(omega=1e305), 2 ** 20)

    @pytest.mark.parametrize("n", [10 ** 15, 10 ** 19])
    def test_a_grid_too_large_to_allocate_is_a_config_error(self, cubic, n):
        # numpy refuses these without allocating: 10**15 samples ask 7 PiB,
        # and 10**19 pass its size limit
        for call in (lambda: grid(Excitation(), n), lambda: classify((-1, -1), cubic, grid_n=n)):
            with pytest.raises(ConfigError, match=f"grid of {n} intervals is too large to allocate"):
                call()

    def test_minimum_resolution(self):
        exc = Excitation()
        with pytest.raises(ConfigError):
            grid(exc, 32)
