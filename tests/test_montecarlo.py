"""Monte-Carlo harness: batched kernels, scans and record streams."""

import numpy as np
import pytest

from entspace import tolerances as tol
from entspace.errors import DomainError
from entspace.linalg4 import char_poly_coeffs, herm_eigenvalues, partial_transpose
from entspace.montecarlo import (
    RunConfig,
    SampleRecord,
    char_poly_batch,
    oracle_masks,
    pt_batch,
    reanalyze_record,
    sample_records,
    separable_fraction,
    tally_routes,
    verdict_from_coeffs,
    verdict_masks,
)
from entspace.sampling import ensemble_chunks, ensemble_state, philox_stream, sample_hs_state
from entspace.separability import (
    BELL_PHI_PLUS,
    BOUNDARY,
    ENTANGLED,
    SEPARABLE,
    analyze,
    ppt_verdict,
    werner_state,
)
from entspace.verify import run_suite


def test_run_config_validation():
    RunConfig(ensemble="hs", samples=10, seed=0)
    with pytest.raises(DomainError, match="ensemble"):
        RunConfig(ensemble="x", samples=10, seed=0)
    with pytest.raises(DomainError, match="positive"):
        RunConfig(ensemble="hs", samples=0, seed=0)
    with pytest.raises(DomainError, match="seed"):
        RunConfig(ensemble="hs", samples=1, seed=-1)
    with pytest.raises(DomainError, match="band"):
        RunConfig(ensemble="hs", samples=1, seed=0, band=0.0)


def test_band_and_seed_are_checked_by_every_entry_point():
    rho = werner_state(0.5)
    for band in (-1.0, 0.0, 1.0, float("nan")):
        with pytest.raises(DomainError, match="band"):
            analyze(rho, band=band)
        with pytest.raises(DomainError, match="band"):
            run_suite("ppt", 1, 1, band)
        # the kernels check the band themselves: -1 read "separable" here
        with pytest.raises(DomainError, match="band"):
            ppt_verdict(BELL_PHI_PLUS, band)
        with pytest.raises(DomainError, match="band"):
            verdict_from_coeffs(0.01, 0.001, band)
        with pytest.raises(DomainError, match="band"):
            verdict_masks(np.array([0.01, -0.2]), np.array([0.001, 0.0]), band)
        pts = pt_batch(np.stack([rho, BELL_PHI_PLUS]))
        with pytest.raises(DomainError, match="band"):
            tally_routes([(pts, char_poly_batch(pts))], band)
    for seed in (-5, 1 << 64):
        with pytest.raises(DomainError, match="seed"):
            run_suite("ppt", 1, seed)
        with pytest.raises(DomainError, match="seed"):
            RunConfig(ensemble="hs", samples=1, seed=seed)
    assert analyze(rho, band=0.5).verdict == BOUNDARY


def test_scalar_masks_are_three_numpy_booleans():
    # a Python-scalar input made the third mask ~True, the int -2
    for masks in (verdict_masks(0.1, 0.1), oracle_masks(0.5)):
        assert [type(m) for m in masks] == [np.bool_] * 3
        assert masks == (True, False, False)


def test_seed_must_be_an_integer_not_a_bool_or_a_float():
    # 1.9 and 1.5 ran seed 1's stream, and True was seed 1
    for seed in (1.9, 1.5, 2.0, np.float64(3.0), True, False, np.True_, "1", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            RunConfig(ensemble="hs", samples=1, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            philox_stream(seed, 1)
        with pytest.raises(DomainError, match="seed must be an integer"):
            run_suite("ppt", 1, seed)
    expected = philox_stream(5, 1).standard_normal(3)
    for seed in (np.int64(5), np.uint64(5), np.int8(5)):
        assert RunConfig(ensemble="hs", samples=1, seed=seed).seed == 5
        assert philox_stream(seed, 1).standard_normal(3).tobytes() == expected.tobytes()
        assert run_suite("ppt", 1, seed)["passed"]


def test_sample_count_is_checked_in_one_place():
    # 0 and -3 made 13 checks fail on empty arrays, 2.5 raised TypeError
    # mid-scan and True ran one sample
    for samples in (0, -3, 2.5, 3.0, True, np.float64(4.0), "10", None):
        with pytest.raises(DomainError, match="sample count must be a positive integer"):
            RunConfig(ensemble="hs", samples=samples, seed=0)
        with pytest.raises(DomainError, match="sample count must be a positive integer"):
            run_suite("all", samples, 1)
    assert RunConfig(ensemble="hs", samples=np.int64(3), seed=0).samples == 3
    assert run_suite("ppt", np.int32(3), 1)["passed"]
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("everything", 10, 1)


def test_batched_kernels_match_scalar_routes():
    states = np.stack([sample_hs_state(50, i) for i in range(64)])
    pts = pt_batch(states)
    s2, s3, s4 = char_poly_batch(pts)
    for i in range(64):
        ref_pt = partial_transpose(states[i], "B")
        assert np.array_equal(pts[i], ref_pt)
        ref = char_poly_coeffs(ref_pt)
        assert abs(s2[i] - ref[0]) < 1e-14
        assert abs(s3[i] - ref[1]) < 1e-14
        assert abs(s4[i] - ref[2]) < 1e-14


def test_verdict_masks_partition():
    s3 = np.array([1e-3, 1e-3, -1e-3, 1e-12])
    s4 = np.array([1e-3, -1e-3, -1e-3, 1e-12])
    sep, ent, bnd = verdict_masks(s3, s4)
    assert np.array_equal(sep, [True, False, False, False])
    assert np.array_equal(ent, [False, True, True, False])
    assert np.array_equal(bnd, [False, False, False, True])
    assert np.all(sep.astype(int) + ent.astype(int) + bnd.astype(int) == 1)


def test_scan_product_ensemble_is_fully_separable():
    res = separable_fraction(RunConfig(ensemble="product", samples=3000, seed=51))
    assert res.entangled == 0
    assert res.separable + res.boundary == 3000
    assert res.mismatches == 0


def test_scan_matches_oracle_on_same_stream():
    res = separable_fraction(RunConfig(ensemble="hs", samples=20000, seed=52))
    assert res.mismatches == 0
    assert res.separable == res.oracle_separable
    assert res.fraction == res.oracle_fraction
    assert 0.2 < res.fraction < 0.3
    assert res.separable + res.entangled + res.boundary == 20000
    assert res.bound_violations["lhs3_above_1_16"] == 0
    assert res.bound_violations["lhs4_above_1_256"] == 0
    assert res.bound_violations["lhs4_below_0"] >= res.entangled


def test_scan_is_deterministic():
    a = separable_fraction(RunConfig(ensemble="hs", samples=5000, seed=53))
    b = separable_fraction(RunConfig(ensemble="hs", samples=5000, seed=53))
    assert a == b
    c = separable_fraction(RunConfig(ensemble="hs", samples=5000, seed=54))
    assert c.separable != a.separable  # different stream, different counts


def test_wald_error():
    res = separable_fraction(RunConfig(ensemble="hs", samples=4096, seed=55))
    f = res.fraction
    assert res.wald_error == pytest.approx(np.sqrt(f * (1 - f) / 4096.0))


def test_chart_ensemble_scan_runs():
    res = separable_fraction(RunConfig(ensemble="chart", samples=600, seed=56))
    assert res.separable + res.entangled + res.boundary == 600
    assert res.mismatches == 0


def _route_chunk(states):
    pts = pt_batch(states)
    return pts, char_poly_batch(pts)


def _tally_by_loop(chunks, band):
    """The counts of tally_routes, one state at a time with scalar tests."""
    counts = dict.fromkeys((
        "separable", "entangled", "boundary",
        "oracle_separable", "oracle_entangled", "oracle_undecided",
        "mismatches", "undecided",
        "lhs3_below_0", "lhs3_above_1_16", "lhs4_below_0", "lhs4_above_1_256",
    ), 0)
    for pts, (_, s3, s4) in chunks:
        for pt, lhs3, lhs4 in zip(pts, s3.tolist(), s4.tolist()):
            if lhs3 >= band and lhs4 >= band:
                verdict = "separable"
            elif lhs3 < -band or lhs4 < -band:
                verdict = "entangled"
            else:
                verdict = "boundary"
            min_eig = np.linalg.eigvalsh(pt)[0]
            if min_eig > tol.MINEIG_BAND:
                oracle = "separable"
            elif min_eig < -tol.MINEIG_BAND:
                oracle = "entangled"
            else:
                oracle = "undecided"
            counts[verdict] += 1
            counts["oracle_" + oracle] += 1
            if verdict == "boundary" or oracle == "undecided":
                counts["undecided"] += 1
            elif verdict != oracle:
                counts["mismatches"] += 1
            counts["lhs3_below_0"] += lhs3 < 0
            counts["lhs3_above_1_16"] += lhs3 > 1 / 16
            counts["lhs4_below_0"] += lhs4 < 0
            counts["lhs4_above_1_256"] += lhs4 > 1 / 256
    return counts


def _tally_inputs():
    (_, hs), = ensemble_chunks("hs", 61, tol.CHUNK)
    (_, product), = ensemble_chunks("product", 61, tol.CHUNK)
    werner = np.stack([werner_state(1 / 3 + d) for d in (-1e-8, 0.0, 1e-8)])
    hs_pts, hs_coeffs = _route_chunk(hs)
    werner_pts, werner_coeffs = _route_chunk(werner)
    # partial transposes against other states' coefficients, scaled by 4:
    # the routes disagree on many states, the oracle alone is undecided on
    # the Werner ones, and some coefficients pass the upper bounds 1/16 and
    # 1/256 that no state's do
    crossed = (
        np.concatenate([hs_pts[:512], werner_pts]),
        tuple(4.0 * c[512:1027] for c in hs_coeffs),
    )
    return {
        "hs": [(hs_pts, hs_coeffs)],
        "product": [_route_chunk(product)],
        "werner": [(werner_pts, werner_coeffs)],
        "crossed": [crossed],
    }


def test_tally_routes_matches_a_per_state_loop():
    inputs = _tally_inputs()
    band = tol.VERDICT_TOL
    for name, chunks in inputs.items():
        assert tally_routes(chunks, band) == _tally_by_loop(chunks, band), name
    # summed over the chunks of a one-pass iterable
    everything = [c for chunks in inputs.values() for c in chunks]
    counts = tally_routes(iter(everything), band)
    assert counts == _tally_by_loop(everything, band)
    assert min(counts.values()) > 0  # the inputs reach every count
    werner = tally_routes(inputs["werner"], band)
    assert werner["boundary"] == werner["oracle_undecided"] == werner["undecided"] == 3
    assert tally_routes(inputs["hs"], band)["mismatches"] == 0
    assert tally_routes(inputs["product"], band)["boundary"] > 0


def test_sample_records_consistent_with_fresh_analysis():
    config = RunConfig(ensemble="hs", samples=300, seed=57)
    records = list(sample_records(config))
    assert [r.index for r in records] == list(range(300))
    for r in records[:: 37]:
        fresh = reanalyze_record(config, r)
        assert fresh.verdict == r.verdict
        assert abs(fresh.lhs3 - r.lhs3) < 1e-12
        assert abs(fresh.lhs4 - r.lhs4) < 1e-12
        assert abs(fresh.min_pt_eig - r.min_pt_eig) < 1e-12
        assert np.max(np.abs(np.array(fresh.spectrum) - np.array(r.spectrum))) < 1e-12
        rho = sample_hs_state(57, r.index)
        rep = analyze(rho)
        assert rep.verdict == r.verdict
        assert abs(rep.s3_pt - r.lhs3) < 1e-12


def test_sample_records_spectrum_is_descending_state_spectrum():
    config = RunConfig(ensemble="chart", samples=40, seed=58)
    for r in sample_records(config):
        spec = np.array(r.spectrum)
        assert np.all(np.diff(spec) <= 0)
        assert abs(spec.sum() - 1.0) < 1e-12
        assert r.verdict in (SEPARABLE, ENTANGLED, BOUNDARY)


@pytest.mark.parametrize(
    "ensemble, samples, indices",
    [("hs", 4100, (0, 1, 2047, 4095, 4096, 4099)), ("product", 20, (0, 19)), ("chart", 12, (0, 11))],
)
def test_sample_records_spectra_replay_exactly(ensemble, samples, indices):
    # the stacked per-chunk spectrum is the one a single-state replay gets
    config = RunConfig(ensemble=ensemble, samples=samples, seed=60)
    records = list(sample_records(config))
    for i in indices:
        replay = herm_eigenvalues(ensemble_state(ensemble, 60, i))
        assert records[i].spectrum == tuple(replay)
        assert reanalyze_record(config, records[i]).spectrum == records[i].spectrum


@pytest.mark.parametrize("ensemble", ["hs", "chart"])
def test_replayed_record_has_the_streamed_field_types(ensemble):
    config = RunConfig(ensemble=ensemble, samples=tol.CHUNK + 2, seed=61)
    records = list(sample_records(config))
    for i in (0, tol.CHUNK - 1, tol.CHUNK + 1):
        streamed = records[i]
        replay = reanalyze_record(config, streamed)
        for name in streamed._fields:
            assert type(getattr(replay, name)) is type(getattr(streamed, name)), name
        assert [type(v) for v in replay.spectrum] == [type(v) for v in streamed.spectrum]
        assert type(streamed.verdict) is str and type(streamed.lhs3) is float
        assert type(streamed.spectrum[0]) is float


def test_sample_record_is_an_immutable_named_tuple():
    spectrum = (0.4, 0.3, 0.2, 0.1)
    r = SampleRecord(index=3, verdict="separable", lhs3=0.1, lhs4=0.2, min_pt_eig=0.3,
                     spectrum=spectrum)
    assert r == SampleRecord(3, "separable", 0.1, 0.2, 0.3, spectrum)
    assert r._fields == ("index", "verdict", "lhs3", "lhs4", "min_pt_eig", "spectrum")
    assert SampleRecord.FIELDS == r._fields[:-1] + ("r1", "r2", "r3", "r4")
    with pytest.raises(AttributeError):
        r.lhs3 = 0.0
