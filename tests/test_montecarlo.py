"""Monte-Carlo harness: batched kernels, scans and record streams."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entspace import tolerances as tol
from entspace.errors import DomainError, check_count, check_seed
from entspace.linalg4 import (
    _entry_rows,
    _hermitian,
    char_poly_coeffs,
    herm_eigenvalues,
    min_eig_certificates,
    partial_transpose,
)
from entspace.montecarlo import (
    RunConfig,
    SampleRecord,
    char_poly_batch,
    oracle_masks,
    pt_batch,
    pt_oracle_masks,
    reanalyze_record,
    sample_records,
    separable_fraction,
    tally_routes,
    verdict_from_coeffs,
    verdict_masks,
)
from entspace import sampling
from entspace.sampling import (
    ENSEMBLES,
    ensemble_chunks,
    ensemble_state,
    philox_stream,
    sample_hs_state,
)
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
            tally_routes([(_entry_rows(pts), char_poly_batch(pts))], band)
    for seed in (-5, 1 << 64):
        with pytest.raises(DomainError, match="seed"):
            run_suite("ppt", 1, seed)
        with pytest.raises(DomainError, match="seed"):
            RunConfig(ensemble="hs", samples=1, seed=seed)
    assert analyze(rho, band=0.5).verdict == BOUNDARY


def test_verdict_masks_rejects_shapes_that_do_not_broadcast():
    # numpy's own broadcast ValueError escaped the gate
    message = re.escape("S3 of shape (3,) and S4 of shape (4,) do not broadcast")
    with pytest.raises(DomainError, match=message):
        verdict_masks(np.zeros(3), np.zeros(4))


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


def test_seed_and_count_errors_print_plain_numbers():
    # numpy 2 printed "got np.int64(-1)" and "got np.float64(1.5)"
    for check, value, shown in ((check_seed, np.float64(1.5), "1.5"),
                                (check_seed, np.int64(-1), "-1"),
                                (check_count, np.int64(-1), "-1"),
                                (check_count, np.float64(1.5), "1.5")):
        with pytest.raises(DomainError, match=f"got {re.escape(shown)}$"):
            check(value)


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
        ref_pt = partial_transpose(states[i])
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
    return _entry_rows(pts), char_poly_batch(pts)


def _tally_by_loop(chunks, band):
    """The counts of tally_routes, one state at a time with scalar tests."""
    counts = dict.fromkeys((
        "separable", "entangled", "boundary",
        "oracle_separable", "oracle_entangled", "oracle_undecided",
        "mismatches", "undecided",
        "lhs3_below_0", "lhs3_above_1_16", "lhs4_below_0", "lhs4_above_1_256",
    ), 0)
    for pts, (_, s3, s4) in chunks:
        for pt, lhs3, lhs4 in zip(_hermitian(pts), s3.tolist(), s4.tolist()):
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
        np.concatenate([hs_pts[:, :512], werner_pts], axis=1),
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


def _eigvalsh_masks(pts):
    """The oracle's masks, one matrix at a time from its own eigvalsh call."""
    masks = np.zeros((3, len(pts)), dtype=bool)
    for i, pt in enumerate(pts):
        min_eig = np.linalg.eigvalsh(pt)[0]
        decided = (min_eig > tol.MINEIG_BAND, min_eig < -tol.MINEIG_BAND)
        masks[:, i] = decided + (not any(decided),)
    return masks


def _assert_oracle_is_eigvalsh(pts):
    """pt_oracle_masks of the entry rows of the stack ``pts`` gives
    eigvalsh's masks, and neither certificate claims a matrix that eigvalsh
    decides otherwise."""
    expected = _eigvalsh_masks(pts)
    rows = _entry_rows(pts)
    assert np.array_equal(np.array(pt_oracle_masks(rows)), expected)
    above, below = min_eig_certificates(rows, tol.MINEIG_BAND)
    assert not (above & ~expected[0]).any()
    assert not (below & ~expected[1]).any()
    return above, below


def _werner_pt(min_eig):
    """The partial transpose of the Werner state whose PT has smallest
    eigenvalue (1 - 3p)/4 = min_eig."""
    return partial_transpose(werner_state((1.0 - 4.0 * min_eig) / 3.0))


def _pure(vector):
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_oracle_certificate_gives_eigvalsh_masks_contract():
    t, delta = tol.MINEIG_BAND, tol.CERTIFICATE_MARGIN  # |PT|_F < 1: delta is absolute
    offsets = (0.0, 1e-16, -1e-16, 1e-13, -1e-13, delta, -delta, 2 * delta, -2 * delta)
    werner = np.stack([_werner_pt(sign * t + off) for sign in (1, -1) for off in offsets])
    _assert_oracle_is_eigvalsh(werner)
    # two margins outside the band the certificates decide alone; two inside
    # it they leave the state to eigvalsh
    reach = np.stack([_werner_pt(m) for m in (t + 2 * delta, -t - 2 * delta,
                                              t - 2 * delta, -t + 2 * delta)])
    above, below = min_eig_certificates(_entry_rows(reach), t)
    assert above.tolist() == [True, False, False, False]
    assert below.tolist() == [False, True, False, False]
    s = 1 / np.sqrt(2)
    bells = [_pure(v) for v in ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0])]
    edges = np.stack([
        partial_transpose(_pure([1, 0, 0, 0])),  # diag(1, 0, 0, 0): zero pivots
        *(partial_transpose(b) for b in bells),
        np.eye(4, dtype=complex) / 4,
        # H - (t + delta) I is the zero matrix: pivot 0, then NaN pivots and L
        np.eye(4, dtype=complex) * (t + delta),
    ])
    _assert_oracle_is_eigvalsh(edges)
    for ensemble in ("hs", "product", "chart"):
        for seed in (1, 61):
            (_, states), = ensemble_chunks(ensemble, seed, tol.CHUNK)
            _assert_oracle_is_eigvalsh(pt_batch(states))


_unit_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    re=arrays(np.float64, (4, 4), elements=_unit_entries),
    im=arrays(np.float64, (4, 4), elements=_unit_entries),
    scale=st.sampled_from([1e-3, 1e-2, 0.3, 1.0, 7.0, 1e2, 1e3]),
    side=st.sampled_from([1.0, -1.0]),
    margins=st.floats(-4.0, 4.0),
    upper_defect=st.sampled_from([0.0, 1e-17, 1e-13, 1e-9]),
)
def test_oracle_certificate_gives_eigvalsh_masks_near_the_band(
    re, im, scale, side, margins, upper_defect
):
    # a Hermitian matrix whose smallest eigenvalue lies a few margins from
    # +-MINEIG_BAND; its upper triangle and the imaginary parts of its
    # diagonal, which eigvalsh does not read, are off by upper_defect
    h = scale * (re + 1j * im)
    h = np.tril(h) + np.tril(h, -1).conj().T
    h[np.diag_indices(4)] = h.diagonal().real
    margin = tol.CERTIFICATE_MARGIN * max(1.0, np.linalg.norm(h))
    target = side * tol.MINEIG_BAND + margins * margin
    h[np.diag_indices(4)] -= np.linalg.eigvalsh(h)[0] - target
    defect = upper_defect * scale * (re + 1j * im)
    h += np.triu(defect, 1) + 1j * np.diag(np.diag(defect.imag))
    _assert_oracle_is_eigvalsh(h[None])


def test_oracle_masks_of_entry_rows_are_those_of_the_stack(monkeypatch):
    # the oracle takes its chunks as stack-last entry rows (16, k): they get
    # eigvalsh's masks of the (k, 4, 4) stack, and the state the certificates
    # leave silent goes to eigvalsh alone.  Product state 164 of seed 155 has
    # its smallest PT eigenvalue 4.6e-9, inside the 1e-8 band.
    (_, product), = ensemble_chunks("product", 155, 165)
    pt_rows = _entry_rows(pt_batch(product))
    above, below = min_eig_certificates(pt_rows, tol.MINEIG_BAND)
    assert np.flatnonzero(~(above | below)).tolist() == [164]
    expected = _eigvalsh_masks(pt_batch(product))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.copy()) or eigvalsh(a))
    masks = np.array(pt_oracle_masks(pt_rows))
    assert np.array_equal(masks, expected)
    assert masks[:, 164].tolist() == [False, False, True]
    assert len(calls) == 1 and np.array_equal(calls[0], pt_batch(product)[[164]])


def test_oracle_rarely_reaches_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    # the counter sees the fallback: |00><00| has its smallest PT eigenvalue
    # 0, inside the band, and only eigvalsh can say so
    assert pt_oracle_masks(_entry_rows(partial_transpose(_pure([1, 0, 0, 0]))[None]))[2][0]
    assert calls == [1]
    for ensemble in ("hs", "product", "chart"):
        calls.clear()
        (_, states), = ensemble_chunks(ensemble, 5, tol.CHUNK)
        pt_oracle_masks(_entry_rows(pt_batch(states)))
        assert sum(calls) <= tol.CHUNK // 100, ensemble


def test_product_scan_reaching_the_eigvalsh_fallback_emits_no_warning(monkeypatch):
    # Product state 164 of seed 155 is the one state of this scan the LDL^H
    # certificates leave silent, with its non-positive pivots and witness:
    # eigvalsh is called once, on its rho^TB alone, built from its rows
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.copy()) or eigvalsh(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = separable_fraction(RunConfig("product", 165, 155))
    assert res.mismatches == 0
    (_, product), = ensemble_chunks("product", 155, 165)
    pt_164 = _hermitian(_entry_rows(pt_batch(product[[164]])))
    assert len(calls) == 1 and calls[0].tobytes() == pt_164.tobytes()


def test_sample_records_consistent_with_fresh_analysis():
    config = RunConfig(ensemble="hs", samples=300, seed=57)
    records = list(sample_records(config))
    assert [r.index for r in records] == list(range(300))
    for r in records[:: 37]:
        fresh = reanalyze_record(config, r)
        assert fresh.verdict == r.verdict
        assert abs(fresh.lhs3 - r.lhs3) < 1e-12
        assert abs(fresh.lhs4 - r.lhs4) < 1e-12
        assert fresh.min_pt_eig == r.min_pt_eig
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
    [("hs", 4100, (0, 1, 2047, 4095, 4096, 4099)), ("product", 4100, (0, 19, 4095, 4096)),
     ("chart", 4100, (0, 11, 4095, 4096))],
)
def test_sample_records_spectra_replay_exactly(ensemble, samples, indices):
    # the stacked per-chunk spectrum is the one a single-state replay gets,
    # and so is every other field of the record
    config = RunConfig(ensemble=ensemble, samples=samples, seed=60)
    records = list(sample_records(config))
    for i in indices:
        replay = herm_eigenvalues(ensemble_state(ensemble, 60, i))
        assert records[i].spectrum == tuple(replay)
        assert reanalyze_record(config, records[i]) == records[i]


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_sample_records_spectra_are_the_eigensolver_on_the_chunk_rows(ensemble):
    # the records' spectra, taken on the entry rows, are the public
    # eigensolver's on the rows' matrices, chunk by chunk
    config = RunConfig(ensemble=ensemble, samples=tol.CHUNK + 100, seed=62)
    spectra = np.array([r.spectrum for r in sample_records(config)])
    chunks = list(sampling._row_chunks(ensemble, 62, config.samples))
    assert [start for start, _ in chunks] == [0, tol.CHUNK]
    for start, rows in chunks:
        expected = herm_eigenvalues(_hermitian(rows))
        assert spectra[start:start + rows.shape[1]].tobytes() == expected.tobytes()


def test_sample_records_name_a_non_finite_row_as_the_eigensolver_does(monkeypatch):
    (_, rows), = sampling._row_chunks("hs", 63, 6)
    rows[5, 3] = np.nan
    monkeypatch.setattr(sampling, "_row_chunks", lambda *args: iter([(0, rows)]))
    with pytest.raises(DomainError) as streamed:
        next(sample_records(RunConfig("hs", 6, 63)))
    with pytest.raises(DomainError) as public:
        herm_eigenvalues(_hermitian(rows))
    assert str(streamed.value) == str(public.value) == (
        "matrix at stack index 3 has a non-finite entry"
    )


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
