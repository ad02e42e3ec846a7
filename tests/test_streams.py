"""Replicate streams computed over arrays against numpy's own generators.

`pdmp_impulse.streams` runs SeedSequence and PCG64 for a whole lockstep batch
on uint32/uint64 arrays.  Every double must equal, bit for bit, the one that
`np.random.default_rng([seed, r]).random()` returns for replicate r, whatever
the seed's and r's word counts, the block width or the order in which rows
refill.
"""

import tracemalloc

import numpy as np
import pytest

from pdmp_impulse import dynamics, streams
from pdmp_impulse.controlled import estimate_cost_J
from pdmp_impulse.dynamics import _Streams, lockstep_costs
from pdmp_impulse.errors import DomainError, NumericalError
from pdmp_impulse.model import StatePoint
from pdmp_impulse.streams import fill_block, seed_states
from pdmp_impulse.valuefn import GridSpec, compute_h, value_iterate

from conftest import feature_model

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**100]
REPS = np.array([0, 1, 511, 512, 2**32 - 1, 2**32, 2**40])
BLOCKS = 3


def _reference(seed, rep, n, salt=()):
    return np.random.default_rng([seed, *salt, int(rep)]).random(n).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_draw_the_default_rng_stream(seed):
    streams = _Streams(seed, REPS)
    drawn = [[] for _ in REPS]
    rng = np.random.default_rng(11)
    # Uneven row subsets: rows spend their blocks and refill at different times.
    while min(map(len, drawn)) < BLOCKS * dynamics.DRAW_BLOCK:
        rows = np.flatnonzero(rng.random(REPS.size) < 0.6)
        for j, u in zip(rows.tolist(), streams.draw(rows).tolist()):
            drawn[j].append(u)
    for rep, got in zip(REPS, drawn):
        want = _reference(seed, rep, len(got))
        assert np.array_equal(np.array(got).view(np.uint64), want), rep


def test_streams_draw_through_shrinking_slots():
    """Rows are addressed by slot and never moved: drawing through a shrinking,
    reordered subset of slots, beyond one seeding slice and with two word
    counts of r, gives each row its own default_rng([seed, r]) prefix."""
    reps = np.concatenate([np.arange(streams.CHUNK_ELEMENTS + 3), REPS[4:]])
    stream = _Streams(3, reps)
    got = np.empty((reps.size, 4 * dynamics.DRAW_BLOCK))
    drawn = np.zeros(reps.size, dtype=np.int64)
    rng = np.random.default_rng(12)
    live = np.arange(reps.size)
    for _ in range(2 * dynamics.DRAW_BLOCK):
        # One draw for every live slot and a second for some, as a lockstep round.
        for slots in (rng.permutation(live), live[rng.random(live.size) < 0.5]):
            got[slots, drawn[slots]] = stream.draw(slots)
            drawn[slots] += 1
        live = live[rng.random(live.size) < 0.99]
    assert live.size and drawn.max() > 2 * dynamics.DRAW_BLOCK
    for row, rep in enumerate(reps):
        assert np.array_equal(got[row, :drawn[row]].view(np.uint64),
                              _reference(3, rep, drawn[row])), rep


def test_seeding_memory_does_not_grow_with_the_batch():
    """Seeding and the first block run over row slices, so at 8192 rows the
    traced peak exceeds what the streams hold by at most 2 MiB."""
    tracemalloc.start()
    try:
        stream = _Streams(0, np.arange(8192))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.buf.shape == (8192, dynamics.DRAW_BLOCK)
    assert peak - held <= 2 * 2**20, (held, peak)


def test_block_width_follows_draw_block(monkeypatch):
    for width in (1, 7, 16, 17, 100):
        monkeypatch.setattr(dynamics, "DRAW_BLOCK", width)
        streams = _Streams(9, REPS)
        got = np.stack([streams.draw(np.arange(REPS.size)) for _ in range(2 * width + 1)],
                       axis=1)
        for row, rep in enumerate(REPS):
            assert np.array_equal(got[row].view(np.uint64), _reference(9, rep, 2 * width + 1))


def test_replicates_of_any_word_count():
    reps = np.array([5, 2**64 + 1, 2**70, 2**100 + 7, 2**130], dtype=object)
    # A key prefix (seed, salt, ...) seeds default_rng([seed, salt, ..., r]).
    for salt in ((), (0,), (1,), (2**32,), (2**70 + 9,), (3, 2**40)):
        for seed in (0, 2**40 + 3, 2**100):
            state, inc = seed_states((seed, *salt), reps)
            if not salt:
                assert np.array_equal(seed_states(seed, reps)[0], state)
            out = np.empty((reps.size, 5))
            fill_block(state, inc, out)
            for row, rep in enumerate(reps):
                assert np.array_equal(out[row].view(np.uint64),
                                      _reference(seed, rep, 5, salt)), (seed, salt, rep)


def test_negative_seed_or_replicate_is_a_domain_error():
    with pytest.raises(DomainError):
        seed_states(-1, REPS)
    with pytest.raises(DomainError):
        seed_states(0, np.array([3, -2]))


def test_a_changed_default_rng_fails_the_contract_check(monkeypatch):
    real = np.random.default_rng
    seen = []

    def spy(entropy):
        seen.append(list(entropy))
        return real(entropy)

    # The check compares against default_rng([*key, r]) of the first row.
    monkeypatch.setattr(np.random, "default_rng", spy)
    _Streams((4, 2**33), REPS[1:])
    assert seen == [[4, 2**33, int(REPS[1])]]
    for key, changed in ((0, lambda entropy: real([entropy[0] + 1, entropy[1]])),
                         ((4, 2**33), lambda entropy: real([entropy[0], entropy[-1]]))):
        monkeypatch.setattr(np.random, "default_rng", changed)
        with pytest.raises(NumericalError, match=np.__version__):
            _Streams(key, REPS)


@pytest.fixture(scope="module")
def solved():
    cache = {}

    def get(name):
        if name not in cache:
            model, density = feature_model(name)
            x0 = StatePoint(1, (3.0, 4.0)) if model.dim == 2 else StatePoint(1, (7.0,))
            spec = GridSpec(density=density, extra_points={x0.mode: (x0.zeta,)})
            h = compute_h(model, spec)
            cache[name] = model, value_iterate(model, h, n_max=2, eps=0.01), x0
        return cache[name]

    return get


@pytest.mark.parametrize("block", [1, 7])
def test_estimates_do_not_depend_on_the_draw_block(solved, monkeypatch, block):
    runs = []
    for size in (dynamics.DRAW_BLOCK, block):
        monkeypatch.setattr(dynamics, "DRAW_BLOCK", size)
        runs.append([estimate_cost_J(x0, n0, table, model, replicates=40, seed=5)
                     for model, table, x0 in map(solved, ("rm1", "exponential_decay",
                                                          "affine_intensity_region_split_kernel",
                                                          "planar_intervening"))
                     for n0 in (0, 2)])
    for want, got in zip(*runs):
        assert got == want
        assert np.array_equal(got.totals, want.totals)


def test_negative_seed_fails_before_any_draw(solved, monkeypatch):
    model, table, x0 = solved("rm1")

    def no_draw(*_args):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(dynamics, "fill_block", no_draw)
    with pytest.raises(DomainError, match="seed"):
        estimate_cost_J(x0, 1, table, model, replicates=10, seed=-1)
    with pytest.raises(DomainError, match="seed"):
        lockstep_costs(model, None, x0, 0, 5.0, -3, 10)
