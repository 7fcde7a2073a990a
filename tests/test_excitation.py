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
        with pytest.raises(ConfigError, match="finite"):
            SampleGrid(t_values=t, count=64)

    def test_accepts_the_large_grids_it_makes(self):
        # linspace rounds i * step with an error growing about like i * eps,
        # which passes 1e-9 of the step near n = 1.1e6
        g = grid(Excitation(omega=1e3), 2 ** 23)
        assert g.count == 2 ** 23

    def test_rejects_subnormal_steps(self):
        with pytest.raises(ConfigError, match="uniform"):
            grid(Excitation(omega=1e305), 2 ** 20)

    def test_minimum_resolution(self):
        exc = Excitation()
        with pytest.raises(ConfigError):
            grid(exc, 32)
