import numpy as np
import pytest

from kwlab.errors import DomainError
from kwlab.fields import named_field, random_fourier


def test_cos1_range(t2_64):
    f = named_field(t2_64, "cos1")
    assert f.max == pytest.approx(1.0, abs=1e-12)
    assert f.min == pytest.approx(-1.0, abs=1e-12)
    assert f.max - f.min == pytest.approx(2.0, abs=1e-12)


def test_const_needs_value(t2_32):
    with pytest.raises(DomainError):
        named_field(t2_32, "const")
    f = named_field(t2_32, "const", value=-1.5)
    assert f.sup_norm == 1.5 and f.max == f.min


def test_two_mode_offset(t2_64):
    f = named_field(t2_64, "two_mode", offset=0.25)
    g = named_field(t2_64, "two_mode")
    assert np.max(np.abs(f.values - g.values - 0.25)) < 1e-14


def test_shift_max_zero_subtracts_the_max(t2_64):
    f = named_field(t2_64, "cos1", shift_max_zero=True)
    g = named_field(t2_64, "cos1")
    assert f.max == 0.0
    assert np.array_equal(f.values, g.values - g.max)


def test_unknown_name_rejected(t2_32):
    with pytest.raises(DomainError):
        named_field(t2_32, "mystery")


class TestRandomFourier:
    def test_deterministic_bitwise(self, t2_64):
        a = random_fourier(t2_64, seed=7, decay_p=3.0)
        b = random_fourier(t2_64, seed=7, decay_p=3.0)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self, t2_64):
        a = random_fourier(t2_64, seed=7, decay_p=3.0)
        b = random_fourier(t2_64, seed=8, decay_p=3.0)
        assert not np.array_equal(a.values, b.values)

    def test_sup_normalized_and_mean_zero(self, t2_64):
        f = random_fourier(t2_64, seed=7, decay_p=3.0)
        assert f.sup_norm == pytest.approx(1.0, abs=1e-12)
        assert abs(float(np.mean(f.values))) < 1e-12

    def test_rejects_slow_decay(self, t2_32):
        with pytest.raises(DomainError):
            random_fourier(t2_32, seed=1, decay_p=1.0)

    @pytest.mark.parametrize("given", [dict(seed=1), dict(decay_p=3.0)],
                             ids=["no-decay_p", "no-seed"])
    def test_named_needs_seed_and_decay_p(self, t2_32, given):
        with pytest.raises(DomainError, match="random_fourier needs seed and decay_p"):
            named_field(t2_32, "random_fourier", **given)

    def test_smoothness_increases_with_p(self, t2_64):
        from kwlab import spectral

        rough = random_fourier(t2_64, seed=7, decay_p=1.5)
        smooth = random_fourier(t2_64, seed=7, decay_p=4.0)
        assert (spectral.laplacian(smooth).sup_norm
                < spectral.laplacian(rough).sup_norm)
