"""End-to-end acceptance checks.

Thirteen criteria, one test each, covering the analytic identities, the
eigensolver contracts, the minor/overlap machinery, the Monte Carlo
estimates at macroscopic through sub-microscopic resolution, spacing
statistics, regularity integrals, and byte-level determinism.  Every
statistical check runs the pinned master seed 42 at the stated sample
budget and tolerance; each test prints one summary line with the
measured numbers and its wall time.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

from wignerlab import (
    ExperimentSpec,
    SeedSpec,
    coefficients,
    eigh,
    good_event,
    overlaps,
    rho_sc,
    run_experiment,
    sample_gue,
    schur_resolvent_residual,
)
from wignerlab.checks import (
    chain_violation,
    interlacing_gap,
    regularity_gap,
    semicircle_identity_gap,
    semicircle_normalization_gap,
)

SEED = 42


class _Budget:
    """Context timer asserting the criterion's runtime budget."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} [{self.elapsed:.1f}s / budget {self.seconds:.0f}s]")
            assert self.elapsed < self.seconds
        return False


def test_criterion_01_semicircle_identity():
    with _Budget("criterion 1: semicircle identity", 1.0):
        resid = semicircle_identity_gap(np.linspace(-1.9, 1.9, 381))
        assert resid <= 1e-6
        # scipy's quad is the independent oracle for the package's own rule
        total, _ = integrate.quad(rho_sc, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) <= 1e-8
        assert semicircle_normalization_gap() <= 1e-8
        print(f"  identity residual {resid:.2e}, normalization residual {abs(total - 1.0):.2e}")


def test_criterion_02_eigensolver_contracts():
    with _Budget("criterion 2: eigensolver contracts", 30.0):
        sizes = (4, 8, 16, 32, 64, 128, 256)
        worst_recon = worst_orth = worst_inter = 0.0
        for i in range(50):
            n = sizes[i % len(sizes)]
            matrix = sample_gue(n, SeedSpec(SEED, 1000 + i))
            dense = matrix.dense()
            mu, v = eigh(matrix)
            recon = np.linalg.norm((v * mu) @ v.conj().T - dense)
            worst_recon = max(worst_recon, recon / np.linalg.norm(dense))
            worst_orth = max(worst_orth, float(np.max(np.abs(v.conj().T @ v - np.eye(n)))))
            worst_inter = max(worst_inter, interlacing_gap(matrix, i % n))
        assert worst_recon <= 1e-9
        assert worst_orth <= 1e-10
        assert worst_inter <= 1e-10
        print(
            f"  reconstruction {worst_recon:.2e}, orthogonality {worst_orth:.2e}, "
            f"interlacing {worst_inter:.2e} over 50 matrices"
        )


def test_criterion_03_schur_overlap_identities():
    with _Budget("criterion 3: Schur/overlap identities", 10.0):
        worst_parseval = worst_schur = 0.0
        rng = SeedSpec(SEED, 2000).generator()
        for i in range(100):
            n = 32
            matrix = sample_gue(n, SeedSpec(SEED, 2001 + i))
            j = i % n
            data = overlaps(matrix, j)
            a = np.delete(matrix.dense()[:, j], j)
            rhs = n * float(np.vdot(a, a).real)
            worst_parseval = max(worst_parseval, abs(float(np.sum(data.xi)) - rhs) / rhs)
            z = complex(rng.uniform(-1.5, 1.5), 10 ** rng.uniform(-3, 0))
            worst_schur = max(worst_schur, schur_resolvent_residual(matrix, j, z))
        assert worst_parseval <= 1e-10
        assert worst_schur <= 1e-9
        print(f"  Parseval {worst_parseval:.2e}, Schur residual {worst_schur:.2e} over 100 draws")


def test_criterion_04_coefficient_machinery():
    with _Budget("criterion 4: coefficient chains and derivatives", 10.0):
        rng = SeedSpec(SEED, 3000).generator()
        n, eps, h = 64, 0.5, 1e-6
        checked = 0
        worst_chain = 0.0
        worst_fd = 0.0
        while checked < 1000:
            lam = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            E = rng.uniform(-1.0, 1.0)
            if not good_event(lam, E, eps, n):
                continue
            checked += 1
            worst_chain = max(worst_chain, chain_violation(lam, E, eps, n))
            co = coefficients(lam, E, eps, n)
            hi = coefficients(lam, E + h, eps, n)
            lo = coefficients(lam, E - h, eps, n)
            fd_c = (hi.c - lo.c) / (2.0 * h)
            fd_d = (hi.d - lo.d) / (2.0 * h)
            rel_c = float(np.max(np.abs(fd_c - co.c_prime))) / float(np.max(np.abs(co.c_prime)))
            rel_d = float(np.max(np.abs(fd_d - co.d_prime))) / float(np.max(np.abs(co.d_prime)))
            worst_fd = max(worst_fd, rel_c, rel_d)
        assert worst_chain <= 1e-12
        assert worst_fd <= 1e-4
        print(
            f"  chain violation {worst_chain:.2e}, derivative mismatch {worst_fd:.2e} "
            f"over {checked} good-event spectra"
        )


def test_criterion_05_macroscopic_semicircle():
    with _Budget("criterion 5: macroscopic window, single sample", 10.0):
        spec = ExperimentSpec(kind="dos", n=512, samples=1, energy=0.0, eta=[1.0], seed=SEED)
        row = run_experiment(spec).rows[0]
        dev = abs(row.mean - 0.3150) / 0.3150
        assert dev <= 0.05
        print(f"  N[-0.5,0.5]/(N*1) = {row.mean:.6f}, reference 0.3150, deviation {dev:.4f}")


def test_criterion_06_microscopic_averaged_dos():
    with _Budget("criterion 6: microscopic averaged density of states", 300.0):
        spec = ExperimentSpec(
            kind="dos", n=128, samples=2000, energy=0.0, eta=[{"over_n": 2}], seed=SEED
        )
        row = run_experiment(spec).rows[0]
        ref = 1.0 / math.pi
        dev = abs(row.mean - ref) / ref
        assert dev <= 0.10
        print(f"  estimate {row.mean:.6f} vs 1/pi = {ref:.6f}, deviation {dev:.4f}")


def test_criterion_07_desk_scale_stieltjes():
    with _Budget("criterion 7: expected Im Stieltjes at eta = 0.1/N", 600.0):
        spec = ExperimentSpec(
            kind="im_stieltjes", n=128, samples=4000, energy=[0.0, 1.0],
            eta=[{"over_n": 0.1}], seed=SEED,
        )
        rows = run_experiment(spec).rows
        for row, ref in zip(rows, (1.0, math.sqrt(3.0) / 2.0)):
            dev = abs(row.mean - ref) / ref
            assert dev <= 0.15
            print(f"  E={row.energy}: estimate {row.mean:.4f} vs {ref:.4f}, deviation {dev:.4f}")


def test_criterion_08_wegner_boundedness():
    with _Budget("criterion 8: count second moments stay bounded", 600.0):
        spec = ExperimentSpec(
            kind="wegner", n=128, samples=5000, energy=0.0,
            eta=[{"over_n": 1}, {"over_n": 0.1}, {"over_n": 0.01}], seed=SEED,
        )
        rows = run_experiment(spec).rows
        ratios = [r.ratio for r in rows if r.extras["statistic"] == "count_sq_mean"]
        spread = max(ratios) / min(ratios)
        assert spread <= 3.0
        print(f"  E N^2/(N eta) ratios {[round(v, 4) for v in ratios]}, spread {spread:.3f}")


def test_criterion_09_energy_derivative_stability():
    with _Budget("criterion 9: common-random-number energy derivative", 900.0):
        spec = ExperimentSpec(
            kind="derivative", n=[64, 128, 256], samples=3000, energy=[0.0, 1.0],
            eta=[{"over_n": 0.5}], seed=SEED,
            extra={"delta_e": {"kind": "over_n", "coef": 0.5}},
        )
        rows = run_experiment(spec).rows
        envelopes = {}
        for row in rows:
            if row.energy == 1.0:
                envelopes[row.n] = row.extras["bound_2se"]
            else:
                # symmetry: the derivative at the spectrum centre vanishes
                assert abs(row.mean) <= 2.0 * row.stderr
        spread = max(envelopes.values()) / min(envelopes.values())
        assert spread <= 2.0
        print(
            "  |d/dE|/N confidence envelopes "
            + ", ".join(f"N={n}: {v:.5f}" for n, v in sorted(envelopes.items()))
            + f", spread {spread:.3f}; E=0 means within 2 stderr of 0"
        )


def test_criterion_10_spacing_sine_kernel_probe():
    with _Budget("criterion 10: unfolded spacings vs GUE surmise", 300.0):
        spec = ExperimentSpec(kind="spacing", n=256, samples=200, seed=SEED)
        row = run_experiment(spec).rows[0]
        ks = row.extras["ks_distance"]
        assert ks <= 0.03
        print(
            f"  KS distance {ks:.5f} over {row.extras['pooled_count']} pooled spacings, "
            f"mean spacing {row.mean:.4f}"
        )


def test_criterion_11_nearest_eigenvalue_linear_scaling():
    with _Budget("criterion 11: nearest-eigenvalue probability scales linearly", 600.0):
        spec = ExperimentSpec(
            kind="delta_moments", n=128, samples=10000, energy=0.0, seed=SEED,
            extra={"eps": 0.5, "moment_orders": [0], "deltas": [0.5, 0.1, 0.02]},
        )
        rows = run_experiment(spec).rows
        probs = [
            (r.eta, r.mean, r.ratio)
            for r in rows
            if r.extras["statistic"] == "nearest_eigenvalue_prob"
        ]
        ratios = [p[2] for p in probs]
        spread = max(ratios) / min(ratios)
        assert spread <= 2.0
        print(
            "  P(N|lambda - E| <= delta)/delta: "
            + ", ".join(f"delta={d:g}: {q:.4f}" for d, _, q in probs)
            + f", spread {spread:.3f}"
        )


def test_criterion_12_regularity_integrals():
    with _Budget("criterion 12: Gaussian regularity integrals", 1.0):
        gap = regularity_gap()
        assert gap <= 1e-4
        print(f"  largest relative gap of I6, I4, I2pp from 120, 12, 8: {gap:.2e}")


def test_criterion_13_byte_determinism():
    with _Budget("criterion 13: byte-identical CSV across thread counts", 120.0):
        dos = ExperimentSpec(
            kind="dos", n=48, samples=100, energy=[0.0, 0.5], eta=[{"over_n": 2}], seed=SEED
        )
        assert run_experiment(dos, workers=1).to_csv() == run_experiment(dos, workers=8).to_csv()
        spacing = ExperimentSpec(kind="spacing", n=48, samples=40, seed=SEED)
        assert (
            run_experiment(spacing, workers=1).to_csv()
            == run_experiment(spacing, workers=8).to_csv()
        )
        print("  dos and spacing runs byte-identical with 1 and 8 workers")
