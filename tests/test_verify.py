"""Stacked verification checks against per-point reference loops.

Each reference below repeats a check the way it reads for one sample at a
time: same stream, same draws in the same order, one kernel call per
sample.  The stacked checks must agree with them to the last bits.
"""

import numpy as np

from entspace import verify
from entspace.chart import ALPHA_WORDS, BETA_WORDS
from entspace.fano import local_unitary_action
from entspace.linalg4 import I4, dag, exp_antihermitian, exp_commuting_paulis
from entspace.sampling import (
    ensemble_chunks,
    random_antihermitian,
    sample_local_unitary,
    verify_stream,
)
from entspace.separability import analyze

EPS = np.finfo(float).eps


def _reference_expm_paths(n, seed):
    g = verify_stream(seed, 3)
    worst = 0.0
    for _ in range(min(n, 600)):
        angles = g.uniform(-2 * np.pi, 2 * np.pi, 3)
        words = ALPHA_WORDS if g.random() < 0.5 else BETA_WORDS
        closed = exp_commuting_paulis(angles, words)
        series = exp_antihermitian(-0.5j * sum(t * w for t, w in zip(angles, words)))
        worst = max(worst, np.max(np.abs(closed - series)))
        gram = np.max(np.abs(dag(series) @ series - I4))
        worst = max(worst, gram, abs(np.linalg.det(series) - 1.0))
        x = random_antihermitian(g, scale=2.0)
        worst = max(worst, np.max(np.abs(exp_antihermitian(x) @ exp_antihermitian(-x) - I4)))
    return worst


def _reference_local_unitary_invariance(n, seed):
    worst = 0.0
    for start, states in ensemble_chunks("hs", seed, min(n, 300)):
        for i, rho in enumerate(states):
            rotated = local_unitary_action(rho, sample_local_unitary(seed, start + i))
            r0, r1 = analyze(rho), analyze(rotated)
            for name in ("s2_pt", "s3_pt", "s4_pt", "det_c", "det_m", "c112"):
                worst = max(worst, abs(getattr(r0, name) - getattr(r1, name)))
    return worst


def test_expm_paths_matches_the_per_point_loop():
    for n, seed in ((10000, 1), (37, 5)):
        result = verify._check_expm_paths(n, seed, 1e-9)
        assert result.samples == min(n, 600) and result.passed
        ref = _reference_expm_paths(n, seed)
        assert abs(result.max_residual - ref) <= 4 * EPS * ref


def test_local_unitary_invariance_matches_the_per_point_loop():
    for n, seed in ((10000, 1), (23, 5)):
        result = verify._check_local_unitary_invariance(n, seed, 1e-9)
        assert result.samples == min(n, 300) and result.passed
        ref = _reference_local_unitary_invariance(n, seed)
        assert abs(result.max_residual - ref) <= 4 * EPS * ref
