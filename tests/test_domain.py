import numpy as np
import pytest

from kwlab import (
    ScalarField,
    TorusDomain,
    ball_mask,
    integrate,
    make_cutoff,
    make_torus,
    spectral,
    sublevel_mask,
)
from kwlab.errors import DomainError

from oracles import refine_domain, smooth_random_field


def test_make_torus_basic():
    dom = make_torus(2, [64, 64], [1.0, 1.0])
    assert dom.volume == 1.0
    assert dom.npoints == 64 * 64
    dom4 = make_torus(4, [16] * 4, [1.0] * 4)
    assert dom4.volume == 1.0
    assert dom4.npoints == 65536
    assert (dom.d, dom4.d) == (2, 4)


@pytest.mark.parametrize("bad", [
    dict(d=3, sizes=[8, 8, 8], lengths=[1, 1, 1]),
    dict(d=2, sizes=[7, 8], lengths=[1, 1]),
    dict(d=2, sizes=[8, 6], lengths=[1, 1]),
    dict(d=2, sizes=[8, 8], lengths=[0.0, 1]),
    dict(d=2, sizes=[8], lengths=[1, 1]),
])
def test_make_torus_rejects(bad):
    with pytest.raises(DomainError):
        make_torus(**bad)


@pytest.mark.parametrize("sizes, lengths", [
    ((8, 8, 8), (1.0, 1.0, 1.0)),
    ((7, 7), (1.0, 1.0)),
    ((8, 8), (1.0,)),
], ids=["3-axis", "odd", "lengths"])
def test_torus_domain_rejects(sizes, lengths):
    # a directly built TorusDomain checks its grid as make_torus's does
    with pytest.raises(DomainError):
        TorusDomain(sizes, lengths)


def test_torus_domain_coerces_lists():
    # lists, the form a parsed config or JSON header gives, become the
    # tuples that field shapes and the plan cache compare and hash
    dom = TorusDomain([8, 8], [1.0, 1.0])
    assert dom == make_torus(2, [8, 8], [1.0, 1.0])
    assert (dom.sizes, dom.lengths) == ((8, 8), (1.0, 1.0))
    f = ScalarField(dom, np.cos(2 * np.pi * dom.coords()[0]) + np.zeros(dom.sizes))
    assert np.allclose(spectral.laplacian(f).values, -4 * np.pi**2 * f.values)


def test_integrate_constant(t2_64):
    assert integrate(ScalarField.constant(t2_64, 3.0)) == pytest.approx(3.0, abs=1e-12)


def test_integrate_trig_mode_exact(t2_64):
    x = t2_64.coords()
    f = ScalarField(t2_64, np.broadcast_to(np.sin(2 * np.pi * x[0]), t2_64.sizes).copy())
    assert abs(integrate(f)) < 1e-12


def test_integrate_refinement_oracle(t2_32):
    f = smooth_random_field(t2_32, seed=11)
    fine = refine_domain(t2_32)
    f_fine = smooth_random_field(fine, seed=11)
    coarse, refined = integrate(f), integrate(f_fine)
    assert coarse == pytest.approx(refined, rel=1e-10, abs=1e-10)


def test_integrate_linearity(t2_32):
    f = smooth_random_field(t2_32, seed=1)
    g = smooth_random_field(t2_32, seed=2)
    lhs = integrate(ScalarField(t2_32, 2.5 * f.values - 1.5 * g.values))
    rhs = 2.5 * integrate(f) - 1.5 * integrate(g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_field_rejects_nonfinite(t2_32):
    vals = np.zeros(t2_32.sizes)
    vals[0, 0] = np.nan
    with pytest.raises(DomainError):
        ScalarField(t2_32, vals)


class TestCutoff:
    def test_plateau_and_support(self, t2_64):
        phi = make_cutoff(t2_64, (0.5, 0.5), 0.1, 0.2)
        dist = t2_64.periodic_distance((0.5, 0.5))
        assert np.all(phi.values[dist <= 0.1] == 1.0)
        assert np.all(phi.values[dist >= 0.2] == 0.0)
        assert phi.min >= 0.0 and phi.max <= 1.0
        # farthest point of the unit torus from the center
        far = np.unravel_index(np.argmax(dist), t2_64.sizes)
        assert phi.values[far] == 0.0

    def test_center_value(self, t2_64):
        phi = make_cutoff(t2_64, (0.25, 0.75), 0.1, 0.2)
        dist = t2_64.periodic_distance((0.25, 0.75))
        assert phi.values[np.unravel_index(np.argmin(dist), t2_64.sizes)] == 1.0

    def test_radii_validation(self, t2_64):
        with pytest.raises(DomainError):
            make_cutoff(t2_64, (0, 0), 0.2, 0.1)
        with pytest.raises(DomainError):
            make_cutoff(t2_64, (0, 0), 0.1, 0.6)

    def test_laplacian_grid_converged(self):
        # |Δφ| finite and within 5% between N=64 and N=128
        from kwlab import spectral

        sups = []
        for N in (64, 128):
            dom = make_torus(2, [N, N], [1.0, 1.0])
            phi = make_cutoff(dom, (0.5, 0.5), 0.15, 0.35)
            lap = spectral.laplacian(phi)
            sups.append(lap.sup_norm)
        assert np.isfinite(sups).all()
        assert abs(sups[1] - sups[0]) <= 0.05 * abs(sups[1])


class TestMasks:
    def test_full_and_empty(self, t2_32):
        full = sublevel_mask(ScalarField.constant(t2_32, -1.0), -0.5)
        assert np.count_nonzero(full.mask) * t2_32.cell_weight == pytest.approx(t2_32.volume)
        empty = sublevel_mask(ScalarField.constant(t2_32, 1.0), -0.5)
        assert empty.empty

    def test_measure_matches_analytic_arc_fraction(self):
        # {sin(2πx) < 0.4} on [0,1): fraction 1 − (π − 2·asin(0.4))/(2π)
        dom = make_torus(2, [256, 256], [1.0, 1.0])
        x = dom.coords()
        S = ScalarField(dom, np.broadcast_to(np.sin(2 * np.pi * x[0]) - 0.5,
                                             dom.sizes).copy())
        m = sublevel_mask(S, -0.1)
        frac = 1.0 - (np.pi - 2 * np.arcsin(0.4)) / (2 * np.pi)
        assert abs(np.count_nonzero(m.mask) * dom.cell_weight - frac) <= 2.0 / 256

    def test_monotone_in_threshold(self, t2_32):
        S = smooth_random_field(t2_32, seed=5)
        inner = sublevel_mask(S, -0.2)
        outer = sublevel_mask(S, 0.1)
        assert np.all(outer.mask[inner.mask])

    def test_ball_subset_of_sublevel(self, t2_64, sin_minus_half):
        m_minus = sublevel_mask(sin_minus_half, -0.1)
        K = ball_mask(t2_64, (0.0, 0.75), 0.05)
        assert np.all(m_minus.mask[K.mask])
