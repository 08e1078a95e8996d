"""LogGP fitting: recovery from synthetic and simulated data."""

import numpy as np
import pytest

from repro.net import LogGPParams
from repro.roofline import FloodSample, MessageRoofline, fit_loggp


def _synthetic_samples(params, sizes, ns, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    roof = MessageRoofline(params)
    out = []
    for n in ns:
        for B in sizes:
            bw = float(roof.bandwidth(B, n))
            if noise:
                bw *= float(np.exp(rng.normal(0, noise)))
            out.append(FloodSample(nbytes=B, msgs_per_sync=n, bandwidth=bw))
    return out


TRUE = LogGPParams(L=2e-6, o=4e-7, g=2.5e-7, G=1 / 32e9)
SIZES = [64.0 * 8**k for k in range(6)]
NS = (1, 8, 64, 512)


class TestRecovery:
    def test_exact_recovery_from_clean_data(self):
        """Identifiable quantities recover exactly: G; the small-message
        spacing max(o, g) (o and g trade off inside the max); and the
        n=1 fixed cost L + o."""
        fit = fit_loggp(_synthetic_samples(TRUE, SIZES, NS))
        assert fit.params.G == pytest.approx(TRUE.G, rel=1e-9)
        assert max(fit.params.o, fit.params.g) == pytest.approx(
            max(TRUE.o, TRUE.g), rel=1e-9
        )
        assert fit.params.L + fit.params.o == pytest.approx(
            TRUE.L + TRUE.o, rel=1e-9
        )
        assert fit.residual_rms < 1e-9

    def test_peak_bandwidth_recovered(self):
        fit = fit_loggp(_synthetic_samples(TRUE, SIZES, NS))
        assert fit.params.peak_bandwidth == pytest.approx(32e9, rel=0.05)

    def test_noisy_data_still_close(self):
        fit = fit_loggp(_synthetic_samples(TRUE, SIZES, NS, noise=0.05))
        assert fit.params.G == pytest.approx(TRUE.G, rel=0.15)
        assert fit.residual_rms < 0.15

    def test_round_trip_through_the_roofline_with_array_n(self):
        """Samples drawn from MessageRoofline over a (B, n) grid in one
        call fit back to parameters whose roofline redraws them."""
        Bs, ns = np.meshgrid(SIZES, NS)
        bws = MessageRoofline(TRUE).bandwidth(Bs, ns)
        samples = [
            FloodSample(nbytes=float(B), msgs_per_sync=int(n), bandwidth=float(bw))
            for B, n, bw in zip(Bs.ravel(), ns.ravel(), bws.ravel())
        ]
        fit = fit_loggp(samples)
        redrawn = MessageRoofline(fit.params).bandwidth(Bs, ns)
        np.testing.assert_allclose(redrawn, bws, rtol=0.05)
        assert fit.residual_rms < 0.02

    def test_fit_from_simulated_flood(self, pm_cpu):
        """End to end: fit the simulator's measured curve (the paper's
        'diagonal ceilings inferred from empirical data')."""
        from repro.machines import perlmutter_cpu
        from repro.workloads.flood import run_flood

        samples = []
        for n in (1, 16, 256):
            for B in (64, 4096, 262144, 4194304):
                r = run_flood(perlmutter_cpu(), "two_sided", B, n, iters=2)
                samples.append(r.as_sample())
        fit = fit_loggp(samples)
        # Peak near the 32 GB/s IF link; worst-case point error bounded.
        assert 28e9 < fit.params.peak_bandwidth < 36e9
        assert fit.residual_rms < 0.35

    def test_simulated_one_sided_flood_fits_exactly(self, pm_cpu):
        """A one-sided flood is a rounded roofline (its per-sync cost folds
        into L), so the fit reproduces every measured point."""
        from repro.workloads.flood import run_flood

        samples = [
            run_flood(pm_cpu, "one_sided", B, n, iters=2).as_sample()
            for n in (1, 16, 256)
            for B in (64, 4096, 262144, 4194304)
        ]
        fit = fit_loggp(samples)
        assert fit.residual_rms < 1e-6
        assert fit.params.peak_bandwidth == pytest.approx(32e9, rel=1e-9)


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ValueError, match=">= 4"):
            fit_loggp(_synthetic_samples(TRUE, SIZES[:1], (1,))[:3])

    def test_bad_sample_values(self):
        bad = [FloodSample(nbytes=-1, msgs_per_sync=1, bandwidth=1e9)] * 5
        with pytest.raises(ValueError):
            fit_loggp(bad)

    def test_max_relative_error_property(self):
        fit = fit_loggp(_synthetic_samples(TRUE, SIZES, NS))
        assert fit.residual_rms >= 0
        assert fit.n_samples == len(SIZES) * len(NS)
