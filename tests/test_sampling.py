"""Ensemble samplers: determinism, addressability and distributions."""

import re

import numpy as np
import pytest

import entspace.sampling as sampling
from entspace import tolerances as tol
from entspace.chart import TWO_PI, eigenvalues_from_xyz, in_octahedron, xyz_from_eigenvalues
from entspace.errors import DomainError
from entspace.linalg4 import dag, herm_eigenvalues
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
        a = partial_trace(rho, "B")
        b = partial_trace(rho, "A")
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


def test_chart_spectrum_first_moment():
    # E[r1] of the ordered flat Dirichlet is 25/48; cross-check with an
    # independently sorted reference stream
    n = 20000
    mine = np.mean(
        [eigenvalues_from_xyz(sample_chart_point(32, i).simplex)[0] for i in range(n)]
    )
    g = philox_stream(33, 65)
    ref = np.mean([sorted(g.dirichlet(np.ones(4)))[-1] for _ in range(n)])
    assert abs(mine - 25.0 / 48.0) < 0.005
    assert abs(ref - 25.0 / 48.0) < 0.005
    assert abs(mine - ref) < 0.01


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


def test_bloch_ball_radius_distribution():
    # |r|^3 should be uniform on [0, 1] for uniform solid-ball sampling
    from entspace.fano import to_fano
    from entspace.linalg4 import partial_trace

    cubes = []
    for i in range(4000):
        rho = sample_product_state(37, i)
        f = to_fano(rho)
        cubes.append(np.linalg.norm(f.a) ** 3)
    cubes = np.array(cubes)
    assert abs(cubes.mean() - 0.5) < 0.02
    assert abs(np.mean(cubes < 0.25) - 0.25) < 0.025


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


def test_chart_chunks_match_per_index_states_across_a_chunk_boundary():
    from entspace.chart import representative_state

    n = tol.CHUNK + 8
    seen = np.concatenate([states for _, states in ensemble_chunks("chart", 41, n)])
    assert seen.shape == (n, 4, 4)
    for i in range(n):
        single = representative_state(sample_chart_point(41, i))
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
    for ensemble in ("hs", "product"):
        seen = np.concatenate([states for _, states in ensemble_chunks(ensemble, 43, n)])
        for i in (0, tol.CHUNK - 1, tol.CHUNK, tol.CHUNK + 1):
            assert ensemble_state(ensemble, 43, i).tobytes() == seen[i].tobytes()


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
    # the two chunks of each, drawn once each (chart streams are per index)
    chunked = [tag for tag in opened if tag != TAG_CHART]
    assert chunked == [sampling.TAG_HS] * 2 + [sampling.TAG_PRODUCT] * 2


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
    want = sampling._hs_chunk(31, chunk, i + 1)[i]
    assert sample_hs_state(31, index).tobytes() == want.tobytes()
    assert sampling._hs_memo[0] == (31, chunk)
    # a second index of the same far chunk is a hit on the same block
    entry = sampling._hs_memo
    other = (i + 1) % tol.CHUNK
    assert sample_hs_state(31, chunk * tol.CHUNK + other).tobytes() == \
        sampling._hs_chunk(31, chunk, other + 1)[other].tobytes()
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

def _reference_chart_draws(seed, index):
    """Sample ``index`` of the chart ensemble drawn one step at a time on a
    fresh stream: a flat Dirichlet spectrum, redrawn on a tie, then blocks
    of 64 cube triples until two lie in the octahedron.  The triples are
    the last draws, so any block size gives the same two."""
    g = philox_stream(seed, TAG_CHART, index)
    while True:
        r = np.sort(g.dirichlet(np.ones(4)))[::-1]
        if r[0] > r[1] > r[2] > r[3] > 0:
            break
    accepted = []
    while len(accepted) < 2:
        v = g.uniform(-TWO_PI, TWO_PI, (64, 3))
        accepted.extend(v[np.sum(np.abs(v), axis=1) <= TWO_PI])
    return r, accepted[0], accepted[1]


def _assert_chart_points_match_reference(points, seed, index):
    index = np.asarray(index)
    draws = [_reference_chart_draws(seed, int(i)) for i in index.reshape(-1)]
    r, alpha, beta = (
        np.array([d[k] for d in draws]).reshape(*index.shape, width)
        for k, width in ((0, 4), (1, 3), (2, 3))
    )
    simplex = xyz_from_eigenvalues(r)
    for name in ("x", "y", "z"):
        assert getattr(points.simplex, name).tobytes() == getattr(simplex, name).tobytes()
    assert points.alpha.tobytes() == alpha.tobytes()
    assert points.beta.tobytes() == beta.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_uniform_is_the_affine_map_of_unit_draws_contract(seed):
    # the chart sampler draws unit triples and maps them itself; numpy's
    # uniform(low, high) must be low + (high - low) * random() bit for bit
    for index in (0, 7, 1 << 40):
        uniform = philox_stream(seed, TAG_CHART, index).uniform(-TWO_PI, TWO_PI, 300_000)
        unit = philox_stream(seed, TAG_CHART, index).random(300_000)
        assert uniform.tobytes() == (-TWO_PI + (TWO_PI - -TWO_PI) * unit).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_chart_points_follow_the_per_index_stream_contract(seed, monkeypatch):
    sequential = []
    draws = sampling._chart_draws
    monkeypatch.setattr(sampling, "_chart_draws", lambda g: sequential.append(1) or draws(g))
    index = np.arange(tol.CHUNK + 8)
    _assert_chart_points_match_reference(sample_chart_point(seed, index), seed, index)
    # at the real block size some rows hold fewer than two accepted triples
    assert len(sequential) >= 1
    shuffled = np.random.default_rng(seed).permutation(index)[:300]
    _assert_chart_points_match_reference(sample_chart_point(seed, shuffled), seed, shuffled)
    grid = np.array([[5, tol.CHUNK + 3, 0], [1 << 40, 5, (1 << 56) - 1]])
    _assert_chart_points_match_reference(sample_chart_point(seed, grid), seed, grid)


def test_chart_points_redrawn_sequentially_keep_the_stream_contract(monkeypatch):
    # two triples per block: an index keeps its batched draw only when both
    # land in the octahedron (p = 1/36), all others take the sequential path
    sequential = []
    draws = sampling._chart_draws
    monkeypatch.setattr(sampling, "_OCTAHEDRON_BLOCK", 2)
    monkeypatch.setattr(sampling, "_chart_draws", lambda g: sequential.append(1) or draws(g))
    index = np.arange(600)
    _assert_chart_points_match_reference(sample_chart_point(3, index), 3, index)
    assert len(sequential) > 500


def test_chart_indices_out_of_stream_range_are_named():
    with pytest.raises(DomainError, match="index out of range: -2"):
        sample_chart_point(1, np.array([3, -2, 5]))
    with pytest.raises(DomainError, match=f"index out of range: {1 << 56}"):
        sample_chart_point(1, [0, 1 << 56])
    with pytest.raises(DomainError, match="index out of range: -1"):
        sample_chart_point(1, -1)
    with pytest.raises(DomainError, match=f"index out of range: {1 << 64}"):
        sample_chart_point(1, [7, 1 << 64])


# -- local unitary stream contract ------------------------------------------------

def _reference_local_unitary(seed, index):
    """(u, v) of one index drawn on a fresh stream: a Gaussian quaternion
    for u, then one for v, each normalised and laid out as an SU(2) matrix."""
    g = philox_stream(seed, sampling.TAG_LOCAL_UNITARY, index)
    factors = []
    for _ in range(2):
        q = g.standard_normal(4)
        q /= np.linalg.norm(q)
        factors.append(np.array([[q[0] + 1j * q[3], q[2] + 1j * q[1]],
                                 [-q[2] + 1j * q[1], q[0] - 1j * q[3]]]))
    return factors


def test_local_unitary_index_array_repeats_per_index_draws():
    index = np.array([[0, 1, 4095], [4096, 1 << 40, 1]])
    k = sample_local_unitary(37, index)
    assert k.u.shape == k.v.shape == (2, 3, 2, 2)
    assert k.matrix().shape == (2, 3, 4, 4)
    for pos in np.ndindex(index.shape):
        u, v = _reference_local_unitary(37, int(index[pos]))
        assert k.u[pos].tobytes() == u.tobytes()
        assert k.v[pos].tobytes() == v.tobytes()
        single = sample_local_unitary(37, int(index[pos]))
        assert single.u.tobytes() == u.tobytes() and single.v.tobytes() == v.tobytes()
    with pytest.raises(DomainError, match="index out of range: -1"):
        sample_local_unitary(37, [3, -1])
