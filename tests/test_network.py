import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import network, testkit
from qevo.errors import DimensionMismatchError, GenomeFormatError
from qevo.network import (
    Architecture,
    ForwardDiagnostics,
    NetworkGenome,
    encode_input,
    forward,
    forward_batch,
    forward_states,
    input_states,
    layout,
    random_genome,
    sigmoid,
)


def zeros_genome(arch):
    return NetworkGenome(arch, np.zeros(layout(arch).total_length))


# ---------------------------------------------------------------- layout

def test_layout_hand_counts():
    # (2 -> 2): 4 weights + 2 bias + 2 reversal; (2 -> 1): 2 weights + 1 reversal
    assert layout(Architecture(2, (2,))).total_length == 11
    # 10*5 + 5 + 5 + 5*1 + 1
    assert layout(Architecture(10, (5,))).total_length == 66
    assert layout(Architecture(1, (1,))).total_length == 5


def test_layout_blocks_are_contiguous():
    lay = layout(Architecture(3, (4, 2)))
    pos = 0
    for _, _, sl in lay.blocks():
        assert sl.start == pos
        pos = sl.stop
    assert pos == lay.total_length


def test_layout_output_transition_has_no_bias():
    lay = layout(Architecture(3, (4, 2)))
    assert lay.transitions[0].has_bias and lay.transitions[1].has_bias
    assert not lay.transitions[2].has_bias


# ---------------------------------------------------------------- genomes

def test_random_genome_deterministic():
    arch = Architecture(4, (3, 2))
    g1 = random_genome(arch, np.random.default_rng(42))
    g2 = random_genome(arch, np.random.default_rng(42))
    assert g1 == g2


def test_random_genome_block_ranges():
    arch = Architecture(2, (2000,))
    g = random_genome(arch, np.random.default_rng(0))
    for _, kind, sl in layout(arch).blocks():
        block = g.phases[sl]
        if kind == "rev":
            assert block.min() >= -1.0 and block.max() <= 1.0
        else:
            assert block.min() >= -math.pi / 2 and block.max() <= math.pi / 2


def test_random_genome_reversal_mean_near_zero():
    arch = Architecture(1, (10000,))
    g = random_genome(arch, np.random.default_rng(5))
    rev = g.phases[layout(arch).transitions[0].rev_slice]
    assert rev.size == 10000
    assert abs(rev.mean()) < 0.05


def test_genome_validation():
    arch = Architecture(2, (2,))
    with pytest.raises(ValueError):
        NetworkGenome(arch, np.zeros(10))
    bad = np.zeros(11)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        NetworkGenome(arch, bad)


def test_genome_phases_read_only():
    g = zeros_genome(Architecture(2, (2,)))
    with pytest.raises(ValueError):
        g.phases[0] = 1.0


# ---------------------------------------------------------------- primitives

def test_encode_input_values():
    assert encode_input(1.0) == pytest.approx(math.pi / 2)
    assert encode_input(0.0) == 0.0
    assert encode_input(0.5) == pytest.approx(math.pi / 4)


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(math.log(3)) == pytest.approx(0.75)
    xs = np.random.default_rng(2).normal(0, 5, 100)
    assert np.max(np.abs(sigmoid(xs) + sigmoid(-xs) - 1.0)) <= 1e-12


# ---------------------------------------------------------------- forward

def test_forward_hand_trace_minimal_net():
    # all phases 0, input 0: hidden accumulation cancels to 0 (degenerate,
    # arg -> 0), hidden phase pi/4, output phase 0, prediction sin(0)^2 = 0
    g = zeros_genome(Architecture(1, (1,)))
    diag = ForwardDiagnostics()
    assert forward(g, [0.0], diag) == pytest.approx(0.0, abs=1e-12)
    assert diag.degenerate_args == 1


def test_forward_range():
    rng = np.random.default_rng(3)
    g = random_genome(Architecture(6, (4, 3)), rng)
    rows = rng.random((10_000, 6))
    preds = forward_batch(g, rows)
    assert preds.min() >= 0.0 and preds.max() <= 1.0


def test_forward_matches_batch():
    rng = np.random.default_rng(4)
    g = random_genome(Architecture(5, (3,)), rng)
    rows = rng.random((20, 5))
    batch = forward_batch(g, rows)
    for i, row in enumerate(rows):
        assert forward(g, row) == pytest.approx(batch[i], abs=1e-14)


def test_forward_dimension_mismatch():
    g = zeros_genome(Architecture(3, (2,)))
    with pytest.raises(DimensionMismatchError):
        forward(g, [0.1, 0.2])
    # A row or matrix of the wrong rank, at each entry point.
    row = [0.1, 0.2, 0.3]
    for call in (lambda: forward(g, [row]), lambda: forward_batch(g, row), lambda: input_states(row)):
        with pytest.raises(DimensionMismatchError, match="expected"):
            call()


def test_forward_batch_over_no_rows_is_empty():
    g = random_genome(Architecture(3, (2, 4)), np.random.default_rng(14))
    preds = forward_batch(g, np.empty((0, 3)))
    assert preds.shape == (0,) and preds.dtype == np.float64


def test_forward_batch_counts_degenerates():
    g = zeros_genome(Architecture(1, (1,)))
    rows = np.zeros((7, 1))
    diag = ForwardDiagnostics()
    forward_batch(g, rows, diag)
    assert diag.degenerate_args == 7


def test_input_states_is_a_read_only_view_with_a_minus_one_column():
    rows = np.random.default_rng(6).random((5, 3))
    states = input_states(rows)
    assert states.shape == (5, 7) and states.dtype == np.float64
    assert states.T.flags.c_contiguous and not states.flags.writeable
    phases = encode_input(rows)
    assert np.array_equal(states[:, :3], np.cos(phases))
    assert np.array_equal(states[:, 3:6], np.sin(phases))
    assert np.array_equal(states[:, 6], np.full(5, -1.0))


def test_forward_states_rejects_states_without_the_minus_one_column():
    g = random_genome(Architecture(3, (2,)), np.random.default_rng(7))
    states = input_states(np.random.default_rng(8).random((4, 3)))
    with pytest.raises(DimensionMismatchError):
        forward_states(g, states[:, :6])


def _oracle_bound(genome, row):
    """The oracle's prediction and a deviation bound of 1e-12 scaled by how
    ill-conditioned the row's sums are, so a nearly cancelling sum does not
    fail a correct pass."""
    expected, condition = testkit.oracle_forward_conditioned(genome, row)
    return expected, 1e-12 * condition


@settings(max_examples=25, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.integers(1, 12),
            st.lists(st.integers(1, 12), min_size=1, max_size=4),
            st.integers(1, 2000),
        ),
        min_size=2,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_states_reuses_its_workspace_across_sizes(calls, seed):
    # Row counts and architectures interleave, so the workspace grows and is
    # reused. Every call, repeated after all the others, gives the same bits;
    # sampled rows match the oracle; a held result never changes later.
    rng = np.random.default_rng(seed)
    cases = []
    for input_width, hidden, rows in calls:
        genome = random_genome(Architecture(input_width, tuple(hidden)), rng)
        cases.append((genome, rng.random((rows, input_width))))

    def run():
        held = [forward_batch(genome, rows) for genome, rows in cases]
        kept = [preds.copy() for preds in held]
        for (genome, rows), first in zip(cases[::-1], kept[::-1]):
            assert forward_batch(genome, rows).tobytes() == first.tobytes()
        for preds, copy in zip(held, kept):
            assert preds.tobytes() == copy.tobytes()
        return kept

    with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread starts with no workspace
        kept = pool.submit(run).result(timeout=120)
    for (genome, rows), preds in zip(cases, kept):
        for i in rng.choice(len(rows), size=min(3, len(rows)), replace=False):
            expected, bound = _oracle_bound(genome, rows[i])
            assert abs(preds[i] - expected) <= bound


def test_forward_results_never_alias_the_workspace():
    rng = np.random.default_rng(10)
    genome = random_genome(Architecture(4, (6, 3)), rng)
    states = input_states(rng.random((50, 4)))
    first = forward_states(genome, states)
    copy = first.copy()
    other = random_genome(Architecture(4, (6, 3)), rng)
    forward_states(other, states)
    forward_states(genome, input_states(rng.random((80, 4))))
    assert np.array_equal(first, copy)


def test_forward_states_in_concurrent_threads():
    # Each thread has its own workspace: results under contention equal the
    # single-threaded ones bit for bit.
    rng = np.random.default_rng(11)
    cases = [
        (random_genome(Architecture(5, (int(w), 4)), rng), input_states(rng.random((int(r), 5))))
        for w, r in zip(rng.integers(1, 10, 8), rng.integers(1, 600, 8))
    ]
    expected = [forward_states(g, s).tobytes() for g, s in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda: [forward_states(g, s).tobytes() for g, s in cases])
                for _ in range(8)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)


def _check_against_oracle(genome, rows, conditioned=False):
    """forward_states over `rows` vs the scalar oracle, row by row, within
    `_oracle_bound` where `conditioned` (one flag, or one per row) is set and
    within 1e-12 elsewhere; returns the degenerate count and checks the
    shared input states are left untouched."""
    states = input_states(rows)
    before = states.copy()
    diag = ForwardDiagnostics()
    preds = forward_states(genome, states, diag)
    assert np.array_equal(states, before)
    for row, pred, row_conditioned in zip(rows, preds, np.broadcast_to(conditioned, len(rows))):
        if row_conditioned:
            expected, bound = _oracle_bound(genome, row)
        else:
            expected, bound = testkit.oracle_forward(genome, row), 1e-12
        assert abs(pred - expected) <= bound
    return diag.degenerate_args


@settings(max_examples=60, deadline=None)
@given(
    input_width=st.integers(1, 12),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    rows=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_states_matches_oracle_on_random_architectures(input_width, hidden, rows, seed):
    rng = np.random.default_rng(seed)
    genome = random_genome(Architecture(input_width, tuple(hidden)), rng)
    assert _check_against_oracle(genome, rng.random((rows, input_width)), conditioned=True) == 0


def _with_zero_rows(rng, random_rows: int, zero_rows: int) -> np.ndarray:
    """Width-1 rows in [0.01, 1] with `zero_rows` rows of 0 mixed in; a 0 input
    is the exact state 1 + 0i."""
    rows = rng.uniform(0.01, 1.0, (random_rows + zero_rows, 1))
    rows[rng.permutation(rows.shape[0])[:zero_rows]] = 0.0
    return rows


@settings(max_examples=40, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    planted=st.data(),
    random_rows=st.integers(0, 4),
    zero_rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_sum_at_a_hidden_layer(hidden, planted, random_rows, zero_rows, seed):
    neurons = planted.draw(st.sets(st.integers(0, hidden[0] - 1), min_size=1))
    _check_zero_sum_at_a_hidden_layer(hidden, neurons, random_rows, zero_rows, seed)


def test_zero_sum_at_a_hidden_layer_beside_an_ill_conditioned_row():
    # A draw whose random row 0.80929062 has condition 2.2e5 and deviates by
    # 1.33e-12, past a flat 1e-12 bound.
    _check_zero_sum_at_a_hidden_layer([11, 1], {0, 1}, random_rows=2, zero_rows=1, seed=3595)


def _check_zero_sum_at_a_hidden_layer(hidden, neurons, random_rows, zero_rows, seed):
    # Input width 1: a first-layer neuron whose bias phase equals its weight
    # phase sums to exactly 0 on a 0 input, in the oracle as in the network.
    # The zero rows, whose condition is infinite, are held to 1e-12 and the
    # random rows to their own conditioning.
    rng = np.random.default_rng(seed)
    arch = Architecture(1, tuple(hidden))
    phases = random_genome(arch, rng).phases.copy()
    seg = layout(arch).transitions[0]
    for j in neurons:
        phases[seg.bias_start + j] = phases[seg.weight_start + j]
    genome = NetworkGenome(arch, phases)
    rows = _with_zero_rows(rng, random_rows, zero_rows)
    count = _check_against_oracle(genome, rows, conditioned=rows[:, 0] != 0)
    assert count == len(neurons) * zero_rows


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(1, 4),
    gate=st.floats(40.0, 60.0),
    random_rows=st.integers(0, 4),
    zero_rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_sum_at_the_output(depth, gate, random_rows, zero_rows, seed):
    # Hidden widths (1, ..., 1, 2). On a 0 input every width-1 layer sums to
    # exactly 0, so its state is the gate phase c + i, with c = cos(pi/2) in
    # floating point, because sigmoid(gate) == 1.0. The
    # last hidden layer holds a neuron A that sums to 0 (state g) and a neuron
    # B that sums to -2 (state -g); the output adds them with weight phase 0,
    # so it sums to exactly 0 and is counted. The oracle's sum there is the
    # rounding residue 2*cos(pi/2) > 0, whose argument is 0 all the same.
    rng = np.random.default_rng(seed)
    arch = Architecture(1, (1,) * (depth - 1) + (2,))
    lay = layout(arch)
    phases = random_genome(arch, rng).phases.copy()
    for t, seg in enumerate(lay.transitions[:-1]):
        # Weight phases turning the incoming state (1 from the input, c + i
        # after a width-1 layer) into exactly 1 for A and -1 + 2ci for B.
        a, b = (0.0, math.pi) if t == 0 else (-math.pi / 2, math.pi / 2)
        phases[seg.rev_slice] = gate
        phases[seg.weight_start] = a
        phases[seg.bias_start] = 0.0
        if seg.w_out == 2:
            phases[seg.weight_start + 1] = b
            phases[seg.bias_start + 1] = math.sin(math.pi)  # 2c: activates to 1 + 2ci
    phases[lay.transitions[-1].weight_slice] = 0.0
    genome = NetworkGenome(arch, phases)
    count = _check_against_oracle(genome, _with_zero_rows(rng, random_rows, zero_rows))
    assert count == (depth + 1) * zero_rows


def test_a_nonzero_sum_whose_square_underflows_is_not_degenerate():
    # Weight and bias phases 0 on a width-1 input: U = exp(i*(pi/2)*x) - 1.
    # At x = 1e-200, U = i*1.57e-200 is not zero, but |U|^2 underflows to 0;
    # at x = 1e-150, |U|^2 is still a normal float; at x = 0, U is exactly 0
    # at each of the three hidden neurons.
    arch = Architecture(1, (3,))
    phases = random_genome(arch, np.random.default_rng(13)).phases.copy()
    seg = layout(arch).transitions[0]
    phases[seg.weight_start : seg.rev_start] = 0.0
    genome = NetworkGenome(arch, phases)
    rows = np.array([[1e-200], [1e-150], [0.0], [0.3]])
    assert _check_against_oracle(genome, rows) == 3


# ---------------------------------------------------------------- row tiles

def _tiles(count, tile):
    return [slice(start, min(start + tile, count)) for start in range(0, count, tile)]


def _record_tile_rows(monkeypatch):
    """Make every forward_states call append its row count to the list returned."""
    rows, inner = [], network.forward_states

    def recording(genome, states, diag=None):
        rows.append(states.shape[0])
        return inner(genome, states, diag)

    monkeypatch.setattr(network, "forward_states", recording)
    return rows


def test_tiles_keep_every_product_under_the_bound():
    rng = np.random.default_rng(15)
    for _ in range(200):
        widths = tuple(int(w) for w in rng.integers(1, 40, int(rng.integers(1, 5))))
        plan = network._plan(Architecture(int(rng.integers(1, 40)), widths))
        largest = max(stop - start for start, stop, _ in plan.matrices)
        assert largest * plan.tile_rows < 2**19 <= largest * (plan.tile_rows + 1)
    assert network._plan(Architecture(10, (8, 8))).tile_rows == 1560


TILED = Architecture(12, (20, 6))
TILE = network._plan(TILED).tile_rows


@pytest.mark.parametrize("count", [TILE - 1, TILE, TILE + 1, 5 * TILE // 2])
def test_forward_batch_stitches_its_tiles(count, monkeypatch):
    rng = np.random.default_rng(count)
    genome = random_genome(TILED, rng)
    rows = rng.random((count, TILED.input_width))
    tiles = _tiles(count, TILE)
    per_tile = [forward_states(genome, input_states(rows[tile])) for tile in tiles]
    seen = _record_tile_rows(monkeypatch)
    preds = forward_batch(genome, rows)
    assert seen == [tile.stop - tile.start for tile in tiles]
    for tile, expected in zip(tiles, per_tile):
        assert preds[tile].tobytes() == expected.tobytes()
    for i in {0, TILE - 2, TILE - 1, TILE, count - 1} & set(range(count)):
        expected, bound = _oracle_bound(genome, rows[i])
        assert abs(preds[i] - expected) <= bound


def test_forward_batch_counts_each_zero_sum_once_across_tiles():
    # As in the hidden-layer zero-sum test: neuron 0's bias phase equals its
    # weight phase, so a 0 input sums to exactly 0 there. Zero rows sit in the
    # first and third of three tiles.
    arch = Architecture(1, (60, 60))
    tile = network._plan(arch).tile_rows
    rng = np.random.default_rng(16)
    phases = random_genome(arch, rng).phases.copy()
    seg = layout(arch).transitions[0]
    phases[seg.bias_start] = phases[seg.weight_start]
    genome = NetworkGenome(arch, phases)
    rows = rng.uniform(0.01, 1.0, (5 * tile // 2, 1))
    zero = [1, tile - 1, 2 * tile + 3]
    rows[zero] = 0.0
    diag = ForwardDiagnostics()
    forward_batch(genome, rows, diag)
    assert diag.degenerate_args == len(zero)


def test_an_underflow_row_in_the_last_partial_tile_takes_the_hypot_path(monkeypatch):
    # Weight and bias phases 0 on a width-1 input, as in the underflow test
    # above: at x = 1e-200 each hidden sum is nonzero but its square is 0.
    arch = Architecture(1, (100,))
    tile = network._plan(arch).tile_rows
    rng = np.random.default_rng(17)
    phases = random_genome(arch, rng).phases.copy()
    seg = layout(arch).transitions[0]
    phases[seg.weight_start : seg.rev_start] = 0.0
    genome = NetworkGenome(arch, phases)
    rows = rng.uniform(0.01, 1.0, (5 * tile // 2, 1))
    rows[-2] = 1e-200
    exact_blocks, inner = [], network._normalize_exactly

    def recording(planes, mag, diag):
        exact_blocks.append(mag.shape)
        inner(planes, mag, diag)

    monkeypatch.setattr(network, "_normalize_exactly", recording)
    diag = ForwardDiagnostics()
    preds = forward_batch(genome, rows, diag)
    assert exact_blocks == [(100, len(rows) - 2 * tile)]
    assert diag.degenerate_args == 0
    assert abs(preds[-2] - testkit.oracle_forward(genome, rows[-2])) <= 1e-12


# ---------------------------------------------------------------- serialization

def test_genome_round_trip_bytes():
    rng = np.random.default_rng(9)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        widths = tuple(int(w) for w in rng.integers(1, 8, depth))
        g = random_genome(Architecture(int(rng.integers(1, 12)), widths), rng)
        back = network.genome_from_bytes(network.genome_to_bytes(g))
        assert back.architecture == g.architecture
        assert np.array_equal(back.phases, g.phases)


def test_genome_round_trip_file(tmp_path):
    g = random_genome(Architecture(4, (5, 2)), np.random.default_rng(0))
    path = tmp_path / "genome.bin"
    network.save_genome(g, path)
    assert network.load_genome(path) == g


def test_genome_bad_magic():
    blob = network.genome_to_bytes(zeros_genome(Architecture(2, (2,))))
    with pytest.raises(GenomeFormatError):
        network.genome_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(GenomeFormatError):
        network.genome_from_bytes(blob[:10])


def test_layout_matches_every_constructed_genome():
    rng = np.random.default_rng(12)
    for _ in range(50):
        depth = int(rng.integers(1, 5))
        widths = tuple(int(w) for w in rng.integers(1, 11, depth))
        arch = Architecture(int(rng.integers(1, 12)), widths)
        g = random_genome(arch, rng)
        assert g.phases.size == layout(arch).total_length


def test_genome_oversized_length_field():
    arch = Architecture(2, (2,))
    blob = network.genome_to_bytes(zeros_genome(arch))
    length_at = len(blob) - 8 * layout(arch).total_length - 8  # the field before the phases
    oversized = blob[:length_at] + struct.pack("<Q", 2**40) + blob[length_at + 8:]
    with pytest.raises(GenomeFormatError):
        network.genome_from_bytes(oversized)


def test_genome_zero_hidden_width():
    blob = bytearray(network.genome_to_bytes(zeros_genome(Architecture(2, (2,)))))
    first_width = struct.calcsize("<4sIIII")
    blob[first_width:first_width + 4] = struct.pack("<I", 0)
    with pytest.raises(GenomeFormatError):
        network.genome_from_bytes(bytes(blob))


def test_genome_output_width_other_than_one():
    blob = bytearray(network.genome_to_bytes(zeros_genome(Architecture(2, (2,)))))
    output_width = struct.calcsize("<4sIII")
    assert blob[output_width:output_width + 4] == struct.pack("<I", 1)
    blob[output_width:output_width + 4] = struct.pack("<I", 2)
    with pytest.raises(GenomeFormatError):
        network.genome_from_bytes(bytes(blob))


@st.composite
def genome_blobs(draw):
    """Bytes of a valid genome, or of one truncated, or with some bytes or one
    whole phase (possibly NaN or inf) overwritten."""
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    arch = Architecture(draw(st.integers(1, 6)), tuple(hidden))
    genome = random_genome(arch, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    blob = bytearray(network.genome_to_bytes(genome))
    edit = draw(st.sampled_from(["none", "truncate", "bytes", "phase"]))
    if edit == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif edit == "bytes":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif edit == "phase":
        at = len(blob) - 8 * draw(st.integers(1, layout(arch).total_length))
        blob[at:at + 8] = struct.pack("<d", draw(st.floats()))
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(blob=st.one_of(genome_blobs(), st.binary(max_size=120)))
def test_genome_bytes_round_trip_or_raise_format_error(blob):
    # File input keeps full validation: whatever loads writes back the same bytes.
    try:
        genome = network.genome_from_bytes(blob)
    except GenomeFormatError:
        return
    assert network.genome_to_bytes(genome) == blob
