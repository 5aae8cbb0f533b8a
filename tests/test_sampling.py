"""Ensemble samplers: determinism, addressability and distributions."""

import math
import re

import numpy as np
import pytest

import entspace.sampling as sampling
from entspace import tolerances as tol
from entspace.chart import TWO_PI, eigenvalues_from_xyz, in_octahedron, xyz_from_eigenvalues
from entspace.errors import DomainError
from entspace.linalg4 import SIGMA, _entry_rows, _hermitian, dag, herm_eigenvalues
from entspace.sampling import (
    TAG_CHART,
    ensemble_chunks,
    ensemble_state,
    philox_stream,
    sample_chart_point,
    sample_hs_state,
    sample_local_unitary,
    sample_product_state,
)


def test_philox_streams_are_keyed():
    a = philox_stream(1, 2, 3).standard_normal(8)
    b = philox_stream(1, 2, 3).standard_normal(8)
    c = philox_stream(1, 2, 4).standard_normal(8)
    d = philox_stream(2, 2, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(DomainError, match="index"):
        philox_stream(1, 2, 1 << 60)


def test_hs_states_are_valid_and_deterministic():
    for i in (0, 1, 17, tol.CHUNK - 1, tol.CHUNK, tol.CHUNK + 5):
        rho = sample_hs_state(99, i)
        assert np.max(np.abs(rho - dag(rho))) < 1e-15
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        w = herm_eigenvalues(rho)
        assert w[-1] > 0  # full rank almost surely
        assert np.array_equal(rho, sample_hs_state(99, i))


def test_hs_chunk_states_are_exactly_hermitian_and_agree_with_g_g_dagger():
    g = philox_stream(7, sampling.TAG_HS, 0)
    x = g.standard_normal((tol.CHUNK, 4, 4))
    y = g.standard_normal((tol.CHUNK, 4, 4))
    (_, states), = ensemble_chunks("hs", 7, tol.CHUNK)
    # every entry above the diagonal is its mirror's conjugate, bit for bit,
    # and the diagonal is real, with imaginary parts +0
    mirrored = np.conj(np.swapaxes(states, 1, 2))
    mirrored[:, range(4), range(4)] = states[:, range(4), range(4)].real
    assert states.tobytes() == mirrored.tobytes()
    worst = 0.0
    for i in range(tol.CHUNK):
        ginibre = x[i] + 1j * y[i]
        rho = ginibre @ ginibre.conj().T
        worst = max(worst, np.max(np.abs(rho / np.trace(rho).real - states[i])))
    assert worst <= 1e-15


def test_hs_body_overflows_alike_on_one_matrix_and_on_a_stack():
    # entries whose products overflow: the stack's rows and a lone matrix's
    # floats both give inf or NaN, and neither raises nor warns
    x = np.full((3, 4, 4), 1e200)
    x[1] = np.linspace(-1e300, 1e300, 16).reshape(4, 4)
    y = np.ones((3, 4, 4))
    rows = sampling._hs_states(x, y)
    for i in range(3):
        lone = sampling._hs_entries(x[i].ravel().tolist(), y[i].ravel().tolist())
        assert all(type(v) is float for v in lone)
        assert np.array_equal(lone, rows[:, i], equal_nan=True)
        assert not np.isfinite(lone).all()


def test_index_addressing_matches_chunk_iteration():
    n = tol.CHUNK + 40  # crosses a chunk boundary
    seen = {}
    for start, states in ensemble_chunks("hs", 5, n):
        for k in range(states.shape[0]):
            seen[start + k] = states[k]
    assert len(seen) == n
    for i in (0, 3, tol.CHUNK - 1, tol.CHUNK, n - 1):
        assert np.array_equal(seen[i], sample_hs_state(5, i))
        assert np.array_equal(seen[i], ensemble_state("hs", 5, i))


def test_sample_count_does_not_shift_streams():
    short = dict()
    for start, states in ensemble_chunks("hs", 6, 10):
        for k in range(states.shape[0]):
            short[start + k] = states[k]
    for start, states in ensemble_chunks("hs", 6, 200):
        for k in range(min(10, states.shape[0])):
            assert np.array_equal(short[start + k], states[k])
        break


def test_product_states_are_products():
    from entspace.fano import to_fano
    from entspace.linalg4 import partial_trace, tensor_product

    for i in range(50):
        rho = sample_product_state(77, i)
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        a = partial_trace(rho)
        b = np.einsum("jijk->ik", rho.reshape(2, 2, 2, 2))  # trace out qubit A
        assert np.max(np.abs(tensor_product(a, b) - rho)) < 1e-14
        f = to_fano(rho)
        assert np.linalg.norm(f.a) <= 1.0 + 1e-12
        assert np.array_equal(rho, sample_product_state(77, i))


def test_chart_points_in_domain_and_deterministic():
    for i in range(200):
        p = sample_chart_point(31, i)
        r = eigenvalues_from_xyz(p.simplex)
        assert np.all(np.diff(r) < 0)
        assert r[-1] > 0
        assert in_octahedron(p.alpha)
        assert in_octahedron(p.beta)
        q = sample_chart_point(31, i)
        assert np.array_equal(p.alpha, q.alpha)
        assert np.array_equal(p.beta, q.beta)
        assert (p.simplex.x, p.simplex.y, p.simplex.z) == (
            q.simplex.x,
            q.simplex.y,
            q.simplex.z,
        )


def test_hs_purity_moment():
    # E[tr rho^2] = 8/17 for the 4x4 Hilbert-Schmidt (Ginibre) ensemble
    n = 200000
    total = 0.0
    for _, states in ensemble_chunks("hs", 34, n):
        total += float(np.einsum("nij,nji->", states, states).real)
    assert abs(total / n - 8.0 / 17.0) < 1e-3


def test_random_su2_is_special_unitary():
    pairs = sample_local_unitary(35, np.arange(50))
    for u in (*pairs.u, *pairs.v):
        assert np.max(np.abs(dag(u) @ u - np.eye(2))) < 1e-14
        assert abs(np.linalg.det(u) - 1.0) < 1e-14
    k = sample_local_unitary(36, 4)
    assert np.array_equal(k.u, sample_local_unitary(36, 4).u)


def test_ensemble_chunks_validation():
    with pytest.raises(DomainError, match="ensemble"):
        list(ensemble_chunks("haar", 0, 10))
    with pytest.raises(DomainError, match="positive"):
        list(ensemble_chunks("hs", 0, 0))
    with pytest.raises(DomainError, match="ensemble"):
        ensemble_state("haar", 0, 1)


def test_out_of_range_seeds_are_rejected_not_aliased():
    with pytest.raises(DomainError, match="seed"):
        ensemble_state("hs", -1, 0)
    with pytest.raises(DomainError, match="seed"):
        philox_stream(1 << 64, 1)
    with pytest.raises(DomainError, match="seed"):
        sample_chart_point(-3, 0)
    top = (1 << 64) - 1
    assert np.array_equal(
        philox_stream(top, 1).standard_normal(4), philox_stream(top, 1).standard_normal(4)
    )


def test_unknown_ensemble_message_is_shared():
    from entspace.montecarlo import RunConfig

    messages = set()
    for call in (
        lambda: list(ensemble_chunks("haar", 0, 10)),
        lambda: ensemble_state("haar", 0, 1),
        lambda: RunConfig(ensemble="haar"),
    ):
        with pytest.raises(DomainError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"unknown ensemble 'haar'; choose from ('hs', 'product', 'chart')"}


def test_ensemble_chunks_from_a_later_chunk_skip_the_earlier_draws(monkeypatch):
    n = 2 * tol.CHUNK + 5
    full = list(ensemble_chunks("hs", 17, n))
    drawn = []
    original = sampling._hs_chunk

    def counted(seed, chunk, m):
        drawn.append(chunk)
        return original(seed, chunk, m)

    monkeypatch.setattr(sampling, "_hs_chunk", counted)
    later = list(ensemble_chunks("hs", 17, n, first=1))
    assert drawn == [1, 2]
    assert [start for start, _ in later] == [tol.CHUNK, 2 * tol.CHUNK]
    for (_, got), (_, want) in zip(later, full[1:]):
        assert got.tobytes() == want.tobytes()
    assert list(ensemble_chunks("hs", 17, tol.CHUNK, first=1)) == []


@pytest.mark.parametrize("ensemble", ["hs", "product", "chart"])
@pytest.mark.parametrize("first", [-1, -4096, 1.0, True, np.float64(2.0), "1", None])
def test_ensemble_chunks_names_a_first_chunk_that_is_not_a_non_negative_integer(ensemble, first):
    # -1 was named as a stream index, 1.0 raised TypeError and True was chunk 1
    with pytest.raises(DomainError, match="^first chunk must be a non-negative integer, got "):
        next(ensemble_chunks(ensemble, 1, 10, first=first))
    start, _ = next(ensemble_chunks(ensemble, 1, tol.CHUNK + 1, first=np.int64(1)))
    assert start == tol.CHUNK


def test_chart_chunks_match_per_index_states_across_a_chunk_boundary():
    from entspace.chart import _chart_rows, representative_state

    n = tol.CHUNK + 8
    rows = np.concatenate([r for _, r in sampling._row_chunks("chart", 41, n)], axis=1)
    seen = np.concatenate([states for _, states in ensemble_chunks("chart", 41, n)])
    assert rows.shape == (16, n) and seen.shape == (n, 4, 4)
    for i in range(n):
        point = sample_chart_point(41, i)
        lone = _chart_rows(point)  # the same body on Python floats
        assert all(type(v) is float for v in lone)
        assert np.array(lone).tobytes() == rows[:, i].tobytes()
        single = representative_state(point)
        assert np.array(_entry_rows(single)).tobytes() == rows[:, i].tobytes()
        assert seen[i].tobytes() == single.tobytes()
    assert ensemble_state("chart", 41, n - 1).tobytes() == seen[-1].tobytes()


def test_chart_point_index_array_repeats_per_index_draws():
    index = np.array([[7, 0, 4100], [3, 3, 1 << 40]])
    points = sample_chart_point(42, index)
    assert points.simplex.x.shape == index.shape
    assert points.alpha.shape == points.beta.shape == (*index.shape, 3)
    for pos in np.ndindex(index.shape):
        p = sample_chart_point(42, int(index[pos]))
        assert (p.simplex.x, p.simplex.y, p.simplex.z) == (
            points.simplex.x[pos], points.simplex.y[pos], points.simplex.z[pos])
        assert p.alpha.tobytes() == points.alpha[pos].tobytes()
        assert p.beta.tobytes() == points.beta[pos].tobytes()


def test_every_ensemble_names_the_callers_out_of_range_index():
    top = (1 << 56) - 1
    for ensemble in ("hs", "product", "chart"):
        for index in (-1, -5000, -9000, 1 << 56, (1 << 56) + 5, 1 << 64):
            with pytest.raises(DomainError, match=f"stream index out of range: {index}$"):
                ensemble_state(ensemble, 1, index)
        for index in (2.5, True):
            with pytest.raises(DomainError, match="integers"):
                ensemble_state(ensemble, 1, index)
        # a one-entry list raised TypeError from divmod, or made "chart" a stack
        for index in ([5], np.array([5]), [5, 6], np.array([[5]])):
            shape = re.escape(str(np.shape(index)))
            with pytest.raises(DomainError, match=f"one integer, got shape {shape}$"):
                ensemble_state(ensemble, 1, index)
        assert np.isfinite(ensemble_state(ensemble, 1, top)).all()
    for sample in (sample_hs_state, sample_product_state):
        with pytest.raises(DomainError, match="stream index out of range: -5000$"):
            sample(1, -5000)
        with pytest.raises(DomainError, match=r"one integer, got shape \(2,\)"):
            sample(1, [5, 6])
    with pytest.raises(DomainError, match="integers"):
        sample_chart_point(1, np.array([True, False]))


def test_single_index_states_match_their_chunks():
    n = tol.CHUNK + 2
    for ensemble in ("hs", "product", "chart"):
        seen = np.concatenate([states for _, states in ensemble_chunks(ensemble, 43, n)])
        for i in (0, tol.CHUNK - 1, tol.CHUNK, tol.CHUNK + 1):
            assert ensemble_state(ensemble, 43, i).tobytes() == seen[i].tobytes()


@pytest.mark.parametrize("seed", [1, 44])
@pytest.mark.parametrize("index", [0, tol.CHUNK - 1, tol.CHUNK, 1 << 40, (1 << 56) - 1])
def test_row_replays_match_their_chunk_rows(seed, index):
    # a replay advances its chunk's stream past the samples before it, and
    # a chunk drawn from a later first chunk skips the ones before
    chunk, i = divmod(index, tol.CHUNK)
    for ensemble in ("chart", "product"):
        start, states = next(ensemble_chunks(ensemble, seed, index + 1, first=chunk))
        assert start == chunk * tol.CHUNK and len(states) == i + 1
        assert ensemble_state(ensemble, seed, index).tobytes() == states[i].tobytes()
    row = sample_local_unitary(seed, index)
    rows = sample_local_unitary(seed, np.arange(start, index + 1))
    assert row.u.tobytes() == rows.u[i].tobytes() and row.v.tobytes() == rows.v[i].tobytes()


# -- single-index replay memo ---------------------------------------------------

def _count_streams(monkeypatch):
    """The tags of the chunk streams opened, one entry per open."""
    opened = []
    stream = sampling.philox_stream

    def counted(seed, tag, index=0):
        opened.append(tag)
        return stream(seed, tag, index)

    monkeypatch.setattr(sampling, "philox_stream", counted)
    return opened


def _forget_hs_memo():
    sampling._hs_memo = None


def _fresh(seed, n):
    return np.concatenate([states for _, states in ensemble_chunks("hs", seed, n)])


def test_hs_replays_match_fresh_chunks_across_hits_misses_and_evictions(monkeypatch):
    n = tol.CHUNK + 2
    fresh = {seed: _fresh(seed, n) for seed in (3, 4)}
    top, last = tol.CHUNK - 1, tol.CHUNK + 1
    # (seed, index, streams opened): 1 per miss, 0 per hit
    sequence = [(3, 0, 1), (3, top, 0), (3, 5, 0), (4, top, 1), (4, 0, 0),
                (3, tol.CHUNK, 1), (3, last, 0), (3, tol.CHUNK, 0), (3, 0, 1),
                (4, tol.CHUNK, 1), (4, last, 0), (4, 0, 1), (3, last, 1),
                (4, top, 1), (4, 0, 0)]
    _forget_hs_memo()
    opened = _count_streams(monkeypatch)
    for seed, i, streams in sequence:
        before = len(opened)
        assert sample_hs_state(seed, i).tobytes() == fresh[seed][i].tobytes()
        assert opened[before:] == [sampling.TAG_HS] * streams
        assert sampling._hs_memo[0] == (seed, i // tol.CHUNK)


def test_a_new_hs_chunk_frees_the_old_block_before_it_is_drawn(monkeypatch):
    import weakref

    _forget_hs_memo()
    sample_hs_state(1, 0)
    blocks = []
    alive = []
    stream = sampling.philox_stream

    def counted(seed, tag, index=0):
        alive.append(blocks[-1]() is not None)
        return stream(seed, tag, index)

    monkeypatch.setattr(sampling, "philox_stream", counted)
    for seed, i in ((1, tol.CHUNK), (2, tol.CHUNK)):  # another chunk, another seed
        blocks.append(weakref.ref(sampling._hs_memo[1]))
        sample_hs_state(seed, i)
    assert alive == [False, False]
    assert sampling._hs_memo[0] == (2, 1)


def test_hs_replays_never_open_more_streams_than_a_redraw(monkeypatch):
    # exactly 1 stream on a new (seed, chunk), none otherwise
    rng = np.random.default_rng(8)
    sequence = [(int(s), int(i)) for s, i in zip(
        rng.integers(1, 3, 200), rng.integers(0, 2 * tol.CHUNK, 200))]
    opened = _count_streams(monkeypatch)
    _forget_hs_memo()
    key = None
    for seed, i in sequence:
        before = len(opened)
        sample_hs_state(seed, i)
        assert len(opened) - before == (key != (seed, i // tol.CHUNK))
        key = (seed, i // tol.CHUNK)


def test_hs_replays_in_any_order_match_their_chunks():
    rng = np.random.default_rng(9)
    for seed in (21, 22):
        fresh = _fresh(seed, 2 * tol.CHUNK)
        for chunk in (0, 1):
            picks = np.sort(rng.choice(tol.CHUNK - 1, 40, replace=False))
            ascending = list(chunk * tol.CHUNK + np.append(picks, tol.CHUNK - 1))
            orders = (ascending, ascending[::-1], list(rng.permutation(ascending)),
                      [ascending[-1], *ascending[:-1]])
            for order in orders:
                _forget_hs_memo()
                for i in order:
                    assert sample_hs_state(seed, int(i)).tobytes() == fresh[i].tobytes(), (seed, i)


def test_hs_replays_racing_in_two_threads_match_their_chunk():
    import threading

    fresh = _fresh(23, tol.CHUNK)
    order = list(np.random.default_rng(10).permutation(tol.CHUNK)[:400])
    for _ in range(3):
        _forget_hs_memo()
        barrier = threading.Barrier(2)
        wrong = []

        def replay(indices):
            barrier.wait()
            for i in indices:
                if sample_hs_state(23, int(i)).tobytes() != fresh[i].tobytes():
                    wrong.append(int(i))

        threads = [threading.Thread(target=replay, args=(order[k::2],)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wrong == []


def test_hs_memo_block_is_read_only():
    _forget_hs_memo()
    sample_hs_state(5, 7)
    key, draws = sampling._hs_memo
    assert key == (5, 0)
    assert draws.shape == (2, tol.CHUNK, 4, 4) and not draws.flags.writeable
    for part in (draws, draws[0], draws[1]):
        with pytest.raises(ValueError):
            part[..., 0, 0] = 1.0
    # the chunk's real parts, then its imaginary parts, on a fresh stream
    g = philox_stream(5, sampling.TAG_HS, 0)
    x = g.standard_normal((tol.CHUNK, 4, 4))
    y = g.standard_normal((tol.CHUNK, 4, 4))
    assert draws[0].tobytes() == x.tobytes()
    assert draws[1].tobytes() == y.tobytes()


def test_hs_chunk_scans_leave_the_memo_empty(monkeypatch):
    _forget_hs_memo()
    opened = _count_streams(monkeypatch)
    for ensemble in ("hs", "product", "chart"):
        for _ in ensemble_chunks(ensemble, 6, tol.CHUNK + 3):
            pass
    assert sampling._hs_memo is None
    # the two chunks of each, drawn once each
    assert opened == [sampling.TAG_HS] * 2 + [sampling.TAG_PRODUCT] * 2 + [TAG_CHART] * 2


def test_hs_memo_does_not_bypass_seed_and_index_checks():
    _forget_hs_memo()
    sample_hs_state(1, 0)
    entry = sampling._hs_memo
    # (1.0, c) and (True, c) hash and compare equal to (1, c)
    for seed in (True, 1.0, -1, 1 << 64):
        with pytest.raises(DomainError, match="seed"):
            sample_hs_state(seed, 0)
    for index in (-1, 1 << 56):
        with pytest.raises(DomainError, match=f"stream index out of range: {index}$"):
            sample_hs_state(1, index)
    assert sampling._hs_memo is entry  # rejected before the lookup, not redrawn


def test_hs_memo_entry_is_replaced_never_changed():
    _forget_hs_memo()
    sample_hs_state(7, 3)
    entry = sampling._hs_memo
    kept = entry[1].tobytes()
    for i in (0, 3, tol.CHUNK - 1, 1234):  # hits keep the very same entry
        sample_hs_state(7, i)
        assert sampling._hs_memo is entry
    sample_hs_state(7, tol.CHUNK)  # a miss swaps in a new tuple
    assert sampling._hs_memo is not entry and sampling._hs_memo[0] == (7, 1)
    # a reader still holding the old entry sees its chunk's bytes
    assert entry[0] == (7, 0) and entry[1].tobytes() == kept


@pytest.mark.parametrize("index", [12345 * tol.CHUNK + 3, (1 << 40) + 5, (1 << 56) - 1])
def test_hs_replays_far_from_zero_match_their_chunk(index):
    _forget_hs_memo()
    chunk, i = divmod(index, tol.CHUNK)
    want = _hermitian(sampling._hs_chunk(31, chunk, i + 1))[i]
    assert sample_hs_state(31, index).tobytes() == want.tobytes()
    assert sampling._hs_memo[0] == (31, chunk)
    # a second index of the same far chunk is a hit on the same block
    entry = sampling._hs_memo
    other = (i + 1) % tol.CHUNK
    assert sample_hs_state(31, chunk * tol.CHUNK + other).tobytes() == \
        _hermitian(sampling._hs_chunk(31, chunk, other + 1))[other].tobytes()
    assert sampling._hs_memo is entry


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_standard_normal_one_block_contract(seed):
    # the HS memo draws a chunk's real and imaginary parts in one
    # (2, CHUNK, 4, 4) call, while _hs_chunk draws the real parts and then
    # only the first m imaginary parts; the two must agree bit for bit
    for index in (0, 1 << 40):
        block = philox_stream(seed, sampling.TAG_HS, index).standard_normal(
            (2, tol.CHUNK, 4, 4))
        g = philox_stream(seed, sampling.TAG_HS, index)
        assert block[0].tobytes() == g.standard_normal((tol.CHUNK, 4, 4)).tobytes()
        assert block[1].tobytes() == g.standard_normal((tol.CHUNK, 4, 4)).tobytes()
        for m in (1, 11, 700, 3001):
            g = philox_stream(seed, sampling.TAG_HS, index)
            g.standard_normal((tol.CHUNK, 4, 4))
            assert block[1, :m].tobytes() == g.standard_normal((m, 4, 4)).tobytes()


# -- chart stream contract ------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 99])
def test_philox_advance_skips_four_words_per_step_contract(seed):
    # a chart index replays by advancing its chunk's stream 3 Philox4x64
    # blocks per sample before it: advance(d) then random(m) must be words
    # 4d..4d+m-1 of random() on a fresh stream
    for index in (0, 7, 1 << 40):
        fresh = philox_stream(seed, TAG_CHART, index).random(4 * 3 * tol.CHUNK + 24)
        for d in (0, 1, 3, 5, 3 * (tol.CHUNK - 1)):
            g = philox_stream(seed, TAG_CHART, index)
            g.bit_generator.advance(d)
            assert g.random(23).tobytes() == fresh[4 * d:4 * d + 23].tobytes()


def _reference_units(seed, tag, index, width):
    """The ``width`` unit draws of sample ``index`` of the ensemble tagged
    ``tag``: its chunk's stream, fresh, advanced by width / 4 Philox blocks
    per sample before it, then ``width`` scalar draws."""
    chunk, j = divmod(index, tol.CHUNK)
    g = philox_stream(seed, tag, chunk)
    g.bit_generator.advance(width // 4 * j)
    return [g.random() for _ in range(width)]


def _reference_chart_draw(u):
    """(spectrum, alpha, beta) of the 12 unit draws ``u``, in plain Python:
    the spacings of (0, sorted u0..u2, 1) in decreasing order, then for
    each angle triple 2*pi times the spacings of (0, three sorted draws),
    component k negated where bit k of int(8 * the next draw) is set."""
    cuts = sorted(u[0:3])
    r = sorted((b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])), reverse=True)
    angles = []
    for first in (3, 7):
        cuts = sorted(u[first:first + 3])
        signs = int(8 * u[first + 3])
        magnitudes = [TWO_PI * (b - a) for a, b in zip([0.0, *cuts], cuts)]
        angles.append([-m if signs >> k & 1 else m for k, m in enumerate(magnitudes)])
    return r, *angles


def _assert_chart_points_match(points, index, draws):
    """``points`` of the index array ``index`` equal the (spectrum, alpha,
    beta) ``draws``, one per index in flat order, bit for bit."""
    index = np.asarray(index)
    r, alpha, beta = (
        np.array([d[k] for d in draws]).reshape(*index.shape, width)
        for k, width in ((0, 4), (1, 3), (2, 3))
    )
    simplex = xyz_from_eigenvalues(r)
    for name in ("x", "y", "z"):
        assert getattr(points.simplex, name).tobytes() == getattr(simplex, name).tobytes()
    assert points.alpha.tobytes() == alpha.tobytes()
    assert points.beta.tobytes() == beta.tobytes()


def _assert_chart_points_match_reference(points, seed, index):
    draws = [_reference_chart_draw(_reference_units(seed, TAG_CHART, int(i), 12))
             for i in np.reshape(index, -1)]
    for r, alpha, beta in draws:  # generic, and inside both octahedra
        assert r[0] > r[1] > r[2] > r[3] > 0
        assert sum(map(abs, alpha)) <= TWO_PI and sum(map(abs, beta)) <= TWO_PI
    _assert_chart_points_match(points, index, draws)


def test_chart_draw_networks_equal_the_plain_python_draw_with_ties():
    # _chart_from_units sorts each group by min/max networks: np.sort's
    # values, and so the plain-Python draw's, on a full chunk and on rows
    # whose groups tie (two or three equal draws, or a draw of 0)
    u = sampling._unit_rows(5, TAG_CHART, np.arange(tol.CHUNK), 12)
    tied = u[:64].copy()
    tied[0::4, 1] = tied[0::4, 0]
    tied[1::4, 2] = tied[1::4, 0]
    tied[2::4, 3:6] = tied[2::4, 4:5]
    tied[3::4, [7, 9]] = 0.0
    for rows in (u, tied):
        r, alpha, beta = sampling._chart_from_units(rows)
        for k, want in enumerate(map(_reference_chart_draw, rows.tolist())):
            got = (r[k], alpha[k], beta[k])
            assert all(np.array(w).tobytes() == g.tobytes() for w, g in zip(want, got)), k


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_chart_points_follow_the_chunk_stream_contract(seed):
    index = np.arange(tol.CHUNK + 8)
    _assert_chart_points_match_reference(sample_chart_point(seed, index), seed, index)
    shuffled = np.random.default_rng(seed).permutation(index)[:300]
    _assert_chart_points_match_reference(sample_chart_point(seed, shuffled), seed, shuffled)
    grid = np.array([[5, tol.CHUNK + 3, 0], [1 << 40, 5, (1 << 56) - 1]])
    _assert_chart_points_match_reference(sample_chart_point(seed, grid), seed, grid)
    for i in (tol.CHUNK - 1, tol.CHUNK, 1 << 40, (1 << 56) - 1):
        _assert_chart_points_match_reference(sample_chart_point(seed, i), seed, i)


def test_chart_draws_follow_their_law():
    # the seed was fixed before any result was seen; each mean is within 4
    # of its exact standard errors.  The spectrum is the sorted spacings of
    # 4 pieces of [0, 1]: with H(k) = sum_{j>=k} 1/j and Q(k) = sum_{j>=k}
    # 1/j^2, E r_k = H(k)/4 and E r_k^2 = (Q(k) + H(k)^2)/20 (Renyi's
    # representation), so E r = (25, 13, 7, 3)/48.  The l1 norm of an angle
    # triple is 2*pi times the largest of 3 uniforms, with mean 3*pi/2 and
    # variance (2*pi)^2 * 3/80; each magnitude is 2*pi times one spacing of
    # 4 pieces, with mean pi/2 and the same variance; each sign is a coin.
    # No sample leaves the construction's bounds, with no slack: a spectrum
    # is non-increasing and non-negative, and an l1 norm is at most 2*pi.
    n = 1 << 17
    points = sample_chart_point(20261020, np.arange(n))
    r = eigenvalues_from_xyz(points.simplex)
    assert (r[:, :-1] >= r[:, 1:]).all() and (r >= 0).all()
    h = [sum(1 / j for j in range(k, 5)) for k in range(1, 5)]
    q = [sum(1 / j ** 2 for j in range(k, 5)) for k in range(1, 5)]
    mean = np.array(h) / 4
    assert np.allclose(mean, np.array([25, 13, 7, 3]) / 48, rtol=0, atol=1e-15)
    sigma = np.sqrt((np.array(q) + mean ** 2 * 16) / 20 - mean ** 2)
    assert (abs(r.mean(axis=0) - mean) < 4 * sigma / np.sqrt(n)).all()
    sigma = TWO_PI * np.sqrt(3 / 80)
    for angles in (points.alpha, points.beta):
        l1 = np.abs(angles).sum(axis=1)
        assert (l1 <= TWO_PI).all()
        assert abs(l1.mean() - 1.5 * np.pi) < 4 * sigma / np.sqrt(n)
        for k in range(3):
            assert abs(np.abs(angles[:, k]).mean() - np.pi / 2) < 4 * sigma / np.sqrt(n), k
            assert abs((angles[:, k] < 0).mean() - 0.5) < 4 * 0.5 / np.sqrt(n), k


def test_chart_indices_out_of_stream_range_are_named():
    with pytest.raises(DomainError, match="index out of range: -2"):
        sample_chart_point(1, np.array([3, -2, 5]))
    with pytest.raises(DomainError, match=f"index out of range: {1 << 56}"):
        sample_chart_point(1, [0, 1 << 56])
    with pytest.raises(DomainError, match="index out of range: -1"):
        sample_chart_point(1, -1)
    with pytest.raises(DomainError, match=f"index out of range: {1 << 64}"):
        sample_chart_point(1, [7, 1 << 64])


# -- product and local-unitary row contract -------------------------------------

#: Unit draws per sample of the product and local-unitary rows.
_ROW_WIDTH = {sampling.TAG_PRODUCT: 12, sampling.TAG_LOCAL_UNITARY: 8}


def _row_index_sets(seed):
    """Contiguous indices across a chunk boundary, shuffled ones, a grid
    across chunks and far from zero, and single indices."""
    index = np.arange(tol.CHUNK + 8)
    return [index, np.random.default_rng(seed).permutation(index)[:300],
            np.array([[5, tol.CHUNK + 3, 0], [1 << 40, 5, (1 << 56) - 1]]),
            *(np.array(i) for i in (tol.CHUNK - 1, tol.CHUNK, 1 << 40, (1 << 56) - 1))]


@pytest.mark.parametrize("seed", [1, 2, 99])
@pytest.mark.parametrize("tag", [sampling.TAG_PRODUCT, sampling.TAG_LOCAL_UNITARY])
def test_product_and_local_unitary_rows_follow_the_chunk_stream_contract(seed, tag):
    # sample j of a chunk owns words wj..wj+w-1 of its chunk's stream
    width = _ROW_WIDTH[tag]
    for index in _row_index_sets(seed):
        want = [_reference_units(seed, tag, i, width) for i in index.reshape(-1).tolist()]
        assert sampling._unit_rows(seed, tag, index, width).tobytes() == np.array(want).tobytes()


def _reference_bloch(u):
    """The Bloch point of five unit draws, in plain Python: z = 2u0 - 1,
    azimuth 2*pi*u1, radius max(u2, u3, u4)."""
    z = 2 * u[0] - 1
    across = math.sqrt(1 - z * z)
    phi = TWO_PI * u[1]
    return [max(u[2:5]) * c for c in (across * math.cos(phi), across * math.sin(phi), z)]


def _reference_product_state(u):
    """rho_A (x) rho_B of the Bloch points of u0..u4 and u5..u9."""
    qubits = [0.5 * (np.eye(2) + sum(c * s for c, s in zip(_reference_bloch(u[k:k + 5]), SIGMA)))
              for k in (0, 5)]
    return np.kron(*qubits)


def _reference_su2(u):
    """The SU(2) matrix of Shoemake's unit quaternion of u0..u2, in plain
    Python."""
    near, far = math.sqrt(1 - u[0]), math.sqrt(u[0])
    p0, p1 = near * math.sin(TWO_PI * u[1]), near * math.cos(TWO_PI * u[1])
    p2, p3 = far * math.sin(TWO_PI * u[2]), far * math.cos(TWO_PI * u[2])
    return np.array([[p0 + 1j * p3, p2 + 1j * p1], [-p2 + 1j * p1, p0 - 1j * p3]])


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_product_states_are_their_rows_mapped(seed):
    # the map's sines and cosines need not round as numpy's do
    (_, head), (_, tail) = ensemble_chunks("product", seed, tol.CHUNK + 8)
    states = np.concatenate([head, tail])
    for i, rho in enumerate(states):
        want = _reference_product_state(_reference_units(seed, sampling.TAG_PRODUCT, i, 12))
        assert np.abs(rho - want).max() < 1e-15, i
    for i in (5, 1 << 40, (1 << 56) - 1):
        want = _reference_product_state(_reference_units(seed, sampling.TAG_PRODUCT, i, 12))
        assert np.abs(sample_product_state(seed, i) - want).max() < 1e-15, i


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_local_unitaries_are_their_rows_mapped(seed):
    for index in _row_index_sets(seed):
        k = sample_local_unitary(seed, index)
        assert k.u.shape == k.v.shape == (*index.shape, 2, 2)
        for pos in np.ndindex(index.shape):
            u = _reference_units(seed, sampling.TAG_LOCAL_UNITARY, int(index[pos]), 8)
            assert np.abs(k.u[pos] - _reference_su2(u[0:3])).max() < 1e-15
            assert np.abs(k.v[pos] - _reference_su2(u[3:6])).max() < 1e-15
    index = np.array([[0, 1, 4095], [4096, 1 << 40, 1]])
    k = sample_local_unitary(37, index)
    assert k.matrix().shape == (2, 3, 4, 4)
    for pos in np.ndindex(index.shape):
        single = sample_local_unitary(37, int(index[pos]))
        assert single.u.tobytes() == k.u[pos].tobytes() and single.v.tobytes() == k.v[pos].tobytes()
    with pytest.raises(DomainError, match="index out of range: -1"):
        sample_local_unitary(37, [3, -1])


class _CountedStream:
    """A stream that records the words each ``random`` call draws; every
    other attribute is the real stream ``g``'s."""

    def __init__(self, g, words):
        self._g, self._words = g, words

    def random(self, size):
        self._words.append(int(np.prod(size)))
        return self._g.random(size)

    def __getattr__(self, name):
        return getattr(self._g, name)


def test_a_product_or_local_unitary_replay_draws_its_own_row(monkeypatch):
    opened, words = [], []
    stream = sampling.philox_stream

    def counted(seed, tag, i=0):
        opened.append(_CountedStream(stream(seed, tag, i), words))
        return opened[-1]

    monkeypatch.setattr(sampling, "philox_stream", counted)
    for replay, width in ((lambda i: ensemble_state("product", 5, i), 12),
                          (lambda i: sample_local_unitary(5, i), 8)):
        for index in (0, 700, tol.CHUNK - 1, tol.CHUNK, (1 << 40) + 700):
            opened.clear()
            words.clear()
            replay(index)
            # one stream, one row drawn, and the stream stops at the row's end
            (g,) = opened
            assert words == [width]
            state = g.bit_generator.state
            position = 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])
            assert position == width * (index % tol.CHUNK + 1)


# The seed of the law tests was fixed before any result was seen; each
# mean is within 4 of its exact standard errors, each bin count within 3.
_LAW_SEED = 20261020


def test_local_unitaries_follow_the_haar_law():
    # u = [[p0 + i p3, p2 + i p1], [-p2 + i p1, p0 - i p3]] for a uniform
    # point p of the 3-sphere, where E p_i^2 = 1/4, E p_i^4 = 1/8 and
    # E p_i^8 = 105/1920.  So tr u = 2 p0 has E tr u = 0, E (tr u)^2 = 1
    # and E (tr u)^4 = 2, with variances 1, 1 and 14 - 4; each p_i has
    # mean 0 and variance 1/4, and E p p^T = I/4 with Var p_i^2 = 1/8 - 1/16
    # and Var p_i p_j = E p_i^2 p_j^2 = 1/24 (i != j).
    n = 1 << 17
    k = sample_local_unitary(_LAW_SEED, np.arange(n))
    bound = 4 / np.sqrt(n)
    sigma = np.where(np.eye(4, dtype=bool), 0.25, np.sqrt(1 / 24))
    for u in (k.u, k.v):
        trace = (u[:, 0, 0] + u[:, 1, 1]).real
        assert abs(trace.mean()) < bound
        assert abs((trace ** 2).mean() - 1) < bound
        assert abs((trace ** 4).mean() - 2) < bound * np.sqrt(10)
        p = np.stack([u[:, 0, 0].real, u[:, 0, 1].imag, u[:, 0, 1].real, u[:, 0, 0].imag])
        assert (abs(p.mean(axis=1)) < bound * 0.5).all()
        assert (abs(p @ p.T / n - np.eye(4) / 4) < bound * sigma).all()


def test_product_bloch_directions_are_isotropic():
    # a uniform direction d of the 2-sphere has E d = 0 with Var d_i = 1/3,
    # and E d d^T = I/3 with Var d_i^2 = 1/5 - 1/9 and Var d_i d_j = 1/15
    # (i != j); test_bloch_ball_radius_distribution covers the radius
    from entspace.fano import to_fano

    n = 1 << 17
    fano = [to_fano(states) for _, states in ensemble_chunks("product", _LAW_SEED, n)]
    sigma = np.where(np.eye(3, dtype=bool), np.sqrt(4 / 45), np.sqrt(1 / 15))
    for bloch in (np.concatenate([f.a for f in fano]), np.concatenate([f.b for f in fano])):
        d = bloch / np.linalg.norm(bloch, axis=1)[:, None]
        assert (abs(d.mean(axis=0)) < 4 * np.sqrt(1 / 3 / n)).all()
        second = np.einsum("ni,nj->ij", d, d) / n
        assert (abs(second - np.eye(3) / 3) < 4 * sigma / np.sqrt(n)).all()


def test_bloch_ball_radius_distribution():
    # the radius is the largest of three unit draws, so P(|a| <= t) = t^3 and
    # |a|^3 and |b|^3 are uniform on [0, 1]: each of ten equal bins holds a
    # tenth of the 2n radii
    from entspace.fano import to_fano

    n = 1 << 17
    fano = [to_fano(states) for _, states in ensemble_chunks("product", _LAW_SEED, n)]
    radii = np.linalg.norm(np.concatenate([f.a for f in fano] + [f.b for f in fano]), axis=1)
    counts = np.histogram(radii * radii * radii, bins=10, range=(0.0, 1.0))[0]
    assert abs(counts - 2 * n / 10).max() <= 3 * np.sqrt(2 * n * 0.1 * 0.9)
