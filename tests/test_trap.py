import math

import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar
from scipy.integrate import quad
from scipy.special import i0e, ive

from braggtrap import trap
from braggtrap.errors import QuadratureError
from braggtrap.trap import (
    GAUSSIAN_WIDTH_RATIO,
    AtomTrapConfig,
    check_ranges,
    chi_of_t,
    chi_terms,
    derive_trap,
    gravity_phase,
    tau_accumulated,
    tau_closed_form,
    tau_tilde,
)

TWO_PI = 2.0 * math.pi


def random_config(rng) -> AtomTrapConfig:
    nu_z = rng.uniform(30.0, 300.0)
    gamma = rng.uniform(0.2, 3.0)
    return AtomTrapConfig(
        atom_mass=rng.uniform(0.3, 3.0) * 1.4431e-25,
        scattering_length=rng.uniform(1.0, 10.0) * 1e-9,
        n_atoms=int(rng.integers(100, 5000)),
        omega_x=TWO_PI * nu_z * gamma,
        omega_y=TWO_PI * nu_z * gamma,
        omega_z=TWO_PI * nu_z,
        oscillations=0.5,
    )


class TestConfigValidation:
    def test_defaults_are_rb87(self):
        cfg = AtomTrapConfig()
        assert cfg.atom_mass == pytest.approx(1.4431e-25)
        assert cfg.scattering_length == pytest.approx(5.2e-9)
        assert cfg.omega_z == pytest.approx(TWO_PI * 100.0)
        assert cfg.omega_z_tilde == cfg.omega_z
        assert cfg.aspect_ratio == pytest.approx(0.2, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AtomTrapConfig(omega_z=-1.0)
        with pytest.raises(ValueError):
            AtomTrapConfig(scattering_length=0.0)

    def test_rejects_asymmetric_radial(self):
        with pytest.raises(ValueError):
            AtomTrapConfig(omega_x=TWO_PI * 20.0, omega_y=TWO_PI * 21.0)

    def test_rejects_bad_oscillations(self):
        with pytest.raises(ValueError):
            AtomTrapConfig(oscillations=0.3)
        with pytest.raises(ValueError):
            AtomTrapConfig(oscillations=-0.5)


class TestDeriveTrap:
    def test_internal_consistency(self):
        # mu and R_i re-derivable from the config to 1e-12 relative
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        omega_0 = (cfg.omega_x * cfg.omega_y * cfg.omega_z) ** (1.0 / 3.0)
        mu = 0.5 * hbar * omega_0 * (
            15.0 * cfg.n_atoms * cfg.scattering_length
            * math.sqrt(cfg.atom_mass * omega_0 / hbar)
        ) ** 0.4
        assert d.mu == pytest.approx(mu, rel=1e-12)
        for r, omega in ((d.r_x, cfg.omega_x), (d.r_y, cfg.omega_y), (d.r_z, cfg.omega_z)):
            assert r == pytest.approx(math.sqrt(2.0 * mu / (cfg.atom_mass * omega**2)), rel=1e-12)
        assert d.sigma_z == pytest.approx(d.b * d.r_z, rel=1e-14)
        assert d.z_amp == pytest.approx(hbar * cfg.k0 / (cfg.atom_mass * cfg.omega_z), rel=1e-12)
        assert d.z_sag == pytest.approx(-cfg.gravity / cfg.omega_z**2, rel=1e-12)

    def test_width_ratio_constant(self):
        assert GAUSSIAN_WIDTH_RATIO == pytest.approx(
            (2.0 / (225.0 * math.pi)) ** 0.1 / math.sqrt(2.0), rel=1e-14
        )
        # commonly quoted as ~1/sqrt(7); the exact constant sits 4% above it
        assert abs(GAUSSIAN_WIDTH_RATIO * math.sqrt(7.0) - 1.0) < 0.05

    def test_model_ratio(self, rng):
        # Gaussian and Thomas-Fermi rates differ by a constant ~8%
        for _ in range(20):
            cfg = random_config(rng)
            ratio = derive_trap(cfg, "gaussian").chi_max / derive_trap(cfg, "thomas_fermi").chi_max
            assert ratio == pytest.approx(1.08, abs=0.01)
            assert 1.07 <= ratio <= 1.10

    def test_chi_max_volume_scaling(self):
        # explicit 1/(Rx Ry Rz) dependence: doubled radii -> chi_max / 8
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        g_int = 4.0 * math.pi * hbar**2 * cfg.scattering_length / cfg.atom_mass
        direct = g_int / ((4.0 * math.pi * d.b**2) ** 1.5 * hbar * d.r_x * d.r_y * d.r_z)
        assert d.chi_max == pytest.approx(direct, rel=1e-12)
        doubled = g_int / (
            (4.0 * math.pi * d.b**2) ** 1.5 * hbar * (2 * d.r_x) * (2 * d.r_y) * (2 * d.r_z)
        )
        assert doubled == pytest.approx(d.chi_max / 8.0, rel=1e-12)

    def test_rb87_regression(self):
        # frozen after first computation; guarded by test_internal_consistency
        d = derive_trap(AtomTrapConfig(), "gaussian")
        assert d.mu == pytest.approx(5.067198274849586e-32, rel=1e-10)
        assert d.r_x == pytest.approx(6.668695224298021e-06, rel=1e-10)
        assert d.r_z == pytest.approx(1.333739044859604e-06, rel=1e-10)
        assert d.chi_max == pytest.approx(0.29720851908071283, rel=1e-10)
        assert derive_trap(AtomTrapConfig(), "thomas_fermi").chi_max == pytest.approx(
            0.2745703823003329, rel=1e-10
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            derive_trap(AtomTrapConfig(n_atoms=1), "gaussian")
        with pytest.raises(ValueError):
            derive_trap(AtomTrapConfig(), "parabolic")

    def test_unrepresentable_scales_name_their_field(self):
        # omega_z^2 overflows, or underflows to a zero divisor, in r_z
        for nu in (1e300, 1e-300):
            with pytest.raises(ValueError, match="r_z .* omega_z = "):
                derive_trap(AtomTrapConfig(omega_z=2.0 * math.pi * nu))

    def test_unrepresentable_interrogation_names_its_field(self):
        # M omega_z_tilde underflows to a zero divisor of the amplitude,
        # omega_z_tilde^2 overflows in the gravity phase, and a^2 overflows
        tiny = AtomTrapConfig(omega_z_tilde=TWO_PI * 1e-300)
        huge = AtomTrapConfig(omega_z_tilde=TWO_PI * 1e300)
        far = AtomTrapConfig(k0=1e300)
        for call, match in (
            (lambda: tau_tilde(tiny), "z_amp .* omega_z_tilde = "),
            (lambda: check_ranges(tiny), "z_amp .* omega_z_tilde = "),
            (lambda: gravity_phase(huge), "gravity_phase .* omega_z_tilde = "),
            (lambda: tau_tilde(far), r"a\^2 .* k0 = 1e\+300"),
            (lambda: check_ranges(far, "thomas_fermi"), r"a\^2 .* k0 = 1e\+300"),
        ):
            with pytest.raises(ValueError, match=match):
                call()
        check_ranges(AtomTrapConfig(omega_z_tilde=TWO_PI * 50.0))
        # only runs that use the gravity phase reject it; the trap scales
        # themselves stay in range
        check_ranges(huge)


class TestChiOfT:
    def test_full_overlap(self):
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        assert chi_of_t(d, cfg, 0.0) == pytest.approx(-d.chi_max, rel=1e-12)

    def test_full_separation(self):
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        # z_amp/sigma_z ~ 36 here, so the overlap term is utterly negligible
        assert chi_of_t(d, cfg, cfg.period / 4) == pytest.approx(d.chi_max, rel=1e-12)

    def test_zero_crossing(self):
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        t_cross = math.asin(d.sigma_z * math.sqrt(math.log(2.0)) / d.z_amp) / cfg.omega_z
        assert abs(chi_of_t(d, cfg, t_cross)) < 1e-12 * d.chi_max

    def test_bounded_and_spm_cpm_split(self):
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        for t in np.linspace(0.0, 2.0 * cfg.period, 401):
            chi_s, chi_c = chi_terms(d, cfg, float(t))
            assert chi_s == d.chi_max
            assert 0.0 <= chi_c <= d.chi_max
            chi = chi_of_t(d, cfg, float(t))
            assert -d.chi_max - 1e-15 <= chi <= d.chi_max + 1e-15
            assert chi == pytest.approx(chi_s - 2.0 * chi_c, rel=1e-14)


class TestTauAccumulated:
    def test_zero_window(self):
        assert tau_accumulated(AtomTrapConfig(), "gaussian", 0.0) == 0.0

    def test_periodicity(self):
        cfg = AtomTrapConfig()
        base = tau_accumulated(cfg, "gaussian", 0.5 * cfg.period)
        for m in (0.5, 1.0, 2.0):
            assert tau_accumulated(cfg, "gaussian", m * cfg.period) == pytest.approx(
                2.0 * m * base, rel=1e-12
            )

    def test_half_period_equals_two_quarters(self):
        # chi(t) is symmetric about T/4 on [0, T/2]
        cfg = AtomTrapConfig()
        quarter = tau_accumulated(cfg, "gaussian", 0.25 * cfg.period)
        half = tau_accumulated(cfg, "gaussian", 0.5 * cfg.period)
        assert half == pytest.approx(2.0 * quarter, rel=1e-9)

    def test_every_half_period_integrates_alike(self):
        # direct quadrature over later half-periods, not the cached segment
        cfg = AtomTrapConfig()
        d = derive_trap(cfg, "gaussian")
        half = 0.5 * cfg.period
        first, _ = quad(lambda t: chi_of_t(d, cfg, t), 0.0, half, epsabs=1e-12, limit=300)
        for k in (1, 3):
            later, _ = quad(lambda t: chi_of_t(d, cfg, t), k * half, (k + 1) * half,
                            epsabs=1e-12, limit=300)
            assert later == pytest.approx(first, rel=1e-9)

    def test_regression_headline_trap(self):
        # frozen Gaussian-model value for the Rb-87 default trap
        cfg = AtomTrapConfig()
        assert tau_accumulated(cfg, "gaussian", 0.5 * cfg.period) == pytest.approx(
            0.0014390983947411562, rel=1e-8
        )

    def test_closed_form_bounds_matching_window(self, rng):
        # chi <= chi_max pointwise, so the Thomas-Fermi quadrature over the
        # window the separated-mode estimate models (m half-periods) cannot
        # exceed it whenever the modes really separate
        for _ in range(6):
            cfg = random_config(rng)
            d = derive_trap(cfg, "thomas_fermi")
            if d.z_amp / d.sigma_z <= 2.0:
                continue
            for m in (0.5, 1.0, 2.0):
                numeric = tau_accumulated(cfg, "thomas_fermi", m * 0.5 * cfg.period)
                assert numeric <= tau_closed_form(cfg, m) * (1.0 + 1e-9)

    def test_cross_check_within_30_percent(self):
        # separated-mode estimate vs quadrature over its window, both models
        cfg = AtomTrapConfig()
        closed = tau_closed_form(cfg, 0.5)
        for model in ("gaussian", "thomas_fermi"):
            numeric = tau_accumulated(cfg, model, 0.25 * cfg.period)
            assert numeric == pytest.approx(closed, rel=0.30)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            tau_accumulated(AtomTrapConfig(), "gaussian", -1.0)

    def test_rejects_non_finite_window(self):
        for upto in (math.nan, math.inf):
            with pytest.raises(ValueError, match="upto"):
                tau_accumulated(AtomTrapConfig(), "gaussian", upto)


class TestClosedFormQuadrature:
    """The chi(t) integral without scipy: the overlap's cosine series from
    the FFT of periodic trapezoid samples, integrated in closed form over
    whole half periods and the rest of the window."""

    def test_hbar_matches_scipy_bitwise(self):
        assert trap.hbar == scipy.constants.hbar

    def test_period_mean_is_bessel_closed_form(self):
        # A&S 9.6.34: exp(-a^2 sin^2 u) = e^-x [I_0(x) + 2 sum_k I_k(x) cos 2ku],
        # x = a^2/2; scipy's ive is nan at a = 1e5, so c_k is checked below it
        for a in (0.0, 0.1, 1.0, 5.0, 35.7, 94.0, 1e3, 1e5):
            coeffs, previous = trap._overlap_series(a * a)
            x = 0.5 * a * a
            assert abs(coeffs[0] - previous[0]) <= 1e-14
            assert coeffs[0] == pytest.approx(i0e(x), rel=1e-13, abs=1e-16)
            if a <= 1e3:  # the series stops where its tail is negligible
                k = np.arange(1, 11)
                got = np.pad(coeffs, (0, 11))[k]
                assert np.abs(got - 2.0 * ive(k, x)).max() <= 1e-15

    def test_matches_quad_over_seeded_configs(self):
        # 120 configs: both models, prep and interrogation trajectories,
        # whole, quarter, partial and multi-period windows
        rng = np.random.default_rng(14)
        fractions = (1.0, 0.5, None, 2.0, None, 0.03)
        worst = 0.0
        for i in range(120):
            base = random_config(rng)
            cfg = AtomTrapConfig(
                atom_mass=base.atom_mass, scattering_length=base.scattering_length,
                n_atoms=base.n_atoms, omega_x=base.omega_x, omega_y=base.omega_y,
                omega_z=base.omega_z,
                omega_z_tilde=base.omega_z * rng.uniform(0.3, 2.0))
            model = ("gaussian", "thomas_fermi")[i % 2]
            interrogation = i % 3 == 0
            d = derive_trap(cfg, model)
            omega = cfg.omega_z_tilde if interrogation else cfg.omega_z
            half = math.pi / omega
            frac = fractions[i % len(fractions)]
            upto = (rng.uniform(0.0, 3.0) if frac is None else frac) * half
            n_full, rest = divmod(upto, half)
            eps = 1e-15 * d.chi_max * half

            def chi(t):
                return chi_of_t(d, cfg, t, interrogation)

            ref = n_full * quad(chi, 0.0, half, epsabs=eps, epsrel=1e-13, limit=500)[0]
            if rest:
                ref += quad(chi, 0.0, rest, epsabs=eps, epsrel=1e-13, limit=500)[0]
            got = trap._integrate_chi(d, cfg, upto, interrogation)
            worst = max(worst, abs(got - ref) / (d.chi_max * upto))
        assert worst <= 1e-12

    def test_whole_periods_multiply_exactly(self, rng):
        for _ in range(10):
            cfg = random_config(rng)
            for model in ("gaussian", "thomas_fermi"):
                half = tau_accumulated(cfg, model, 0.5 * cfg.period)
                for m in (0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 7.5):
                    assert tau_accumulated(cfg, model, m * cfg.period) == 2.0 * m * half

    def test_doubling_cap_raises(self, monkeypatch):
        # the default trap's overlap dip needs a few hundred nodes; below
        # that the last change exceeds the budget, for whole half periods
        # and for the rest of a window alike
        cfg = AtomTrapConfig()
        monkeypatch.setattr(trap, "_MAX_NODES", 32)
        for periods in (0.5, 0.3):
            with pytest.raises(QuadratureError) as info:
                tau_accumulated(cfg, "gaussian", periods * cfg.period)
            assert info.value.achieved > info.value.requested

    def test_unresolved_dip_stays_within_budget(self):
        # at 1e-6 Hz the dip is 1e-6 of a period wide: the node count stops
        # at its cap, where the last change is within the error budget
        cfg = AtomTrapConfig().with_omega_z(TWO_PI * 1e-6)
        d = derive_trap(cfg, "gaussian")
        exact = d.chi_max * cfg.period * (1.0 - 2.0 * i0e(0.5 * (d.z_amp / d.sigma_z) ** 2))
        got = tau_accumulated(cfg, "gaussian", cfg.period)
        assert abs(got - exact) <= 1e-6 * d.chi_max * cfg.period


class TestTauTilde:
    def test_equal_traps_match_half_period(self):
        cfg = AtomTrapConfig()
        assert tau_tilde(cfg, "gaussian") == pytest.approx(
            tau_accumulated(cfg, "gaussian", 0.5 * cfg.period), rel=1e-12
        )

    def test_changed_trap_rescales_trajectory(self):
        # oracle: direct quadrature of the interrogation-trap rate
        cfg = AtomTrapConfig(omega_z_tilde=TWO_PI * 60.0)
        d = derive_trap(cfg, "gaussian")
        expected, _ = quad(
            lambda t: chi_of_t(d, cfg, t, interrogation=True),
            0.0, math.pi / cfg.omega_z_tilde, epsabs=1e-12, limit=300,
        )
        assert tau_tilde(cfg, "gaussian") == pytest.approx(expected, rel=1e-8)
        amp = hbar * cfg.k0 / (cfg.atom_mass * cfg.omega_z_tilde)
        _, chi_c = chi_terms(d, cfg, 0.25 * cfg.period_tilde, interrogation=True)
        assert chi_c == pytest.approx(d.chi_max * math.exp(-(amp / d.sigma_z) ** 2), rel=1e-12)


class TestTauClosedForm:
    def test_overflow_is_value_error(self):
        # gamma^2 overflows at gamma = 1e300
        with pytest.raises(ValueError, match="tau_closed_form .* omega_x = "):
            tau_closed_form(AtomTrapConfig().with_aspect_ratio(1e300))

    def test_atom_number_scaling(self):
        cfg = AtomTrapConfig(n_atoms=500)
        cfg8 = AtomTrapConfig(n_atoms=4000)
        assert tau_closed_form(cfg8, 1.0) / tau_closed_form(cfg, 1.0) == pytest.approx(
            8.0 ** (-3.0 / 5.0), rel=1e-12
        )

    def test_linear_in_m(self):
        cfg = AtomTrapConfig()
        assert tau_closed_form(cfg, 1.0) == pytest.approx(2.0 * tau_closed_form(cfg, 0.5), rel=1e-14)
        assert tau_closed_form(cfg, 0.0) == 0.0

    def test_regression_headline_trap(self):
        assert tau_closed_form(AtomTrapConfig(), 0.5) == pytest.approx(
            0.0006864259557508319, rel=1e-12
        )

    def test_unit_system_invariance(self):
        # oracle: re-evaluate in a (g, um, ms) unit system, including hbar
        cfg = AtomTrapConfig()

        def closed(a, mass, planck, omega_z, gamma, n, m):
            core = (15.0 * a * gamma**2 * math.sqrt(mass / planck)) ** 0.4
            return 2.0 * m * math.pi / 7.0 * core * (omega_z / n**3) ** 0.2

        si = closed(cfg.scattering_length, cfg.atom_mass, hbar, cfg.omega_z,
                    cfg.aspect_ratio, cfg.n_atoms, 0.5)
        rescaled = closed(
            cfg.scattering_length * 1e6,        # m -> um
            cfg.atom_mass * 1e3,                # kg -> g
            hbar * 1e3 * 1e12 / 1e3,            # J s -> g um^2 / ms
            cfg.omega_z * 1e-3,                 # rad/s -> rad/ms
            cfg.aspect_ratio, cfg.n_atoms, 0.5,
        )
        assert tau_closed_form(cfg, 0.5) == pytest.approx(si, rel=1e-12)
        assert rescaled == pytest.approx(si, rel=1e-12)


class TestGravityPhase:
    def test_unchanged_trap(self):
        assert gravity_phase(AtomTrapConfig()) == 0.0

    def test_sign_flip(self):
        lo = AtomTrapConfig(omega_z_tilde=TWO_PI * 80.0)
        hi = AtomTrapConfig(omega_z_tilde=TWO_PI * 120.0)
        assert gravity_phase(lo) > 0.0
        assert gravity_phase(hi) < 0.0

    def test_reference_value(self):
        cfg = AtomTrapConfig(k0=1.611e7, gravity=9.81, omega_z_tilde=TWO_PI * 80.0)
        expected = 2.0 * 1.611e7 * 9.81 * (1.0 / (TWO_PI * 80.0) ** 2 - 1.0 / (TWO_PI * 100.0) ** 2)
        assert gravity_phase(cfg) == pytest.approx(expected, rel=1e-12)
        assert gravity_phase(cfg) == pytest.approx(450.357, abs=0.001)
