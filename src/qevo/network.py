"""Variable-architecture qubit-neuron network.

A candidate network is a flat phase vector plus an architecture describing
layer widths. Every activation is a unit-modulus complex state
cos(psi) + i*sin(psi). Layer transitions aggregate weighted states, subtract
an activated bias (hidden layers only), and re-rotate via a sigmoid-gated
reversal parameter: psi = (pi/2)*sigmoid(rho) - arg(U). The output qubit is
observed as sin(psi)^2, which lands in [0, 1] like the normalized targets.

Genome layout: the phase vector (and so `genome.bin`'s phase array) is the
concatenation, transition after transition, of one row-major (rows, w_out)
matrix per transition between layer widths w_in -> w_out. Rows 0..w_in-1
are the weights (row i, column j connects source i to destination j); a
hidden destination adds a bias row; the last row holds the destinations'
reversal parameters. The output transition has no bias row. `genome_length`
and `transitions` state this layout, and every other module reads it through
them; `NetworkGenome.transitions` keeps a genome's views once made.

`forward_states` evaluates the same map without per-row trigonometry. With
the gate phase g = exp(i*(pi/2)*sigmoid(rho)), the next state is

    exp(i*psi) = g * conj(U) / |U|

and the output is Im(g * conj(U) / |U|)^2, so the only transcendentals are
one cos and one sin of the genome's angles (`_matrices`). A zero sum U == 0
has no argument: it is taken as arg 0, so the state becomes the gate phase
g itself, and `forward_states` returns how many such sums it met.

The pass runs in real arithmetic on (planes, rows) blocks. A layer of
width w is 2w block rows: the cos of each neuron's state, then the sin, so
each transition is one real matrix product plus a few passes over
contiguous memory:

- `input_states` appends a row of -1 to the input block. A transition's
  matrix is [[Re P^T, -Im P^T, Re b], [-Im P^T, -Re P^T, -Im b]], with P the
  weight phasors and b the bias phasors, so the product with
  [cos; sin; -1] is [Re U; -Im U], U = P^T y - b. The minus signs on the
  second row of blocks give the planes of conj(U), which the next state
  needs, with no conjugation pass. The output matrix has no bias column.
- A hidden neuron's gate angle is added to its outgoing weights' angles
  before the cos and sin, so a block carries conj(U)/|U| and never the
  gate. After the product, |U|^2 is the sum of the two planes' squares;
  the planes are scaled by 1/sqrt(|U|^2), and the output is
  Im(g * conj(U))^2 / |U|^2, g being the output gate.
- Underflow: a nonzero |U| below about 1.5e-154 has a square that is
  subnormal or 0. When the smallest |U|^2 of a block is under the smallest
  normal float, the block takes np.hypot instead, and only an exact zero
  counts as degenerate.
- Why real: with one OpenBLAS thread and 1190 rows, the real dgemm of
  (2w_out, 2w_in+1) took about half the time of the complex zgemm of
  (w_out, w_in+1) it replaces (13.3 against 27.5 us for w = 10, 9.3
  against 19.5 us for w = 8, on a 2-core x86 host).
- The blocks live in a per-thread workspace of two float64 buffers of
  rows * (2 * widest hidden layer + 1) entries, replaced by larger ones when
  a call needs more and reused otherwise. A transition writes its product
  into one buffer and the squares into the other, whose block the product
  has just consumed. Predictions are returned in a new array. Fresh blocks
  per call broke acceptance criterion 12 (below): on a 2-core x86 host its
  ratio read 2.33-2.91 over 6 runs, 4 above 2.6, against 1.70-2.21 reused.

`_matrices` reads the genome's angles through index tables that depend on
its architecture only, its plan (`_plan`). Plans stay in two LRU caches:
256 plans of genomes of at most 2**13 phases, and one larger plan. A plan
takes at most 32 bytes a phase, so the small plans hold at most 64 MiB
however many architectures a run meets.

`forward_batch` makes the genome's matrices once (a `_Stack` of one), runs
`input_states` and `forward_states` over row tiles and writes each tile's
predictions into one output array. A tile holds (2**19 - 1) // (largest
M*K) rows, M*K being the entries of a transition's matrix, so every product
makes fewer than 2**19 multiply-adds. OpenBLAS splits a larger product over
its threads, and how it splits it sets the rounding; on a 2-core x86 host,
OpenBLAS 0.3.31 kept products up to about 0.9M multiply-adds on one thread.
So a forecast's bytes do not depend on the BLAS thread count, and no second
thread spins beside the one doing the work. A 10-8-8-1 network gets
1560-row tiles, whose input block and workspace (about 0.7 MB) fit in a 2 MB
L2 cache.

`forward_series` runs that tile loop over every lag window of a normalized
series. It encodes each value once and copies each tile's input block from
row slices of the series' cos and sin, so no window matrix is made; its
predictions are bit-equal to `forward_batch` over the windows.

Training scores its genomes through `forward_grouped`, untiled: by
architecture, in chunks whose stacked tables stay under `_CHUNK_BYTES`, each
chunk's matrices made by one `_matrices` call and its workspace views once.
Each genome still runs its own products: a (K, 2w, 1194) stack of them
leaves the L2 cache, and at K = 8, w = 8 took 105 us a genome against 79 us
one at a time on a 2-core x86 host. With window 10 and widths up to 10 a
tile holds at least 1248 rows, so a desk-scale training set (1194 rows) is
one tile anyway. Larger ones stay untiled because tiling them on a
prototype broke acceptance criterion 12: the ratio of training wall time at
6020 windows to that at 3010 fell to 1.47-1.93 over 6 runs, 3 of them under
the 1.6 floor (1.77-1.91 untiled).
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, GenomeFormatError

HALF_PI = np.pi / 2.0

_GENOME_MAGIC = b"QGNM"
_GENOME_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Layer widths: input n, one or more hidden widths, single output."""

    input_width: int
    hidden_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_width < 1:
            raise ValueError("input_width must be >= 1")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("need at least one hidden layer, all widths >= 1")
        object.__setattr__(self, "_hash", hash((self.input_width, self.hidden_widths)))

    def __hash__(self) -> int:  # the fields' hash, made once: every cache lookup hashes its key
        return self._hash

    @classmethod
    def _trusted(cls, input_width: int, hidden_widths: tuple[int, ...]) -> Architecture:
        """Build from validated architectures' widths (ints) without re-checking them."""
        arch = object.__new__(cls)
        arch.__dict__.update(input_width=input_width, hidden_widths=hidden_widths,
                             _hash=hash((input_width, hidden_widths)))
        return arch

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)

    @property
    def widths(self) -> tuple[int, ...]:
        """All layer widths, input first, output last."""
        return (self.input_width, *self.hidden_widths, 1)


@functools.lru_cache(maxsize=4096)
def _spans(arch: Architecture) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    """(start, stop, (rows, w_out)) of each transition's matrix: w_in weight
    rows, a bias row unless the destination is the output, a reversal row."""
    widths, spans, start = arch.widths, [], 0
    for t, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        rows = w_in + (2 if t < arch.depth else 1)
        spans.append((start, start + rows * w_out, (rows, w_out)))
        start += rows * w_out
    return tuple(spans)


def genome_length(arch: Architecture) -> int:
    """Phases in a genome of `arch`."""
    return _spans(arch)[-1][1]


def transitions(arch: Architecture, vector: np.ndarray) -> list[np.ndarray]:
    """`vector`, laid out as a genome of `arch`, as one (rows, w_out) view per
    transition: `m[:w_in]` are the weights, `m[w_in:-1]` the bias (no rows
    for the output transition) and `m[-1]` the reversals."""
    return [vector[start:stop].reshape(shape) for start, stop, shape in _spans(arch)]


@dataclass(frozen=True, eq=False)
class NetworkGenome:
    """Immutable candidate network: architecture plus flat phase vector."""

    architecture: Architecture
    phases: np.ndarray

    def __post_init__(self):
        phases = np.ascontiguousarray(self.phases, dtype=float)
        expected = genome_length(self.architecture)
        if phases.shape != (expected,):
            raise ValueError(
                f"genome length {phases.shape} does not match layout ({expected},)"
            )
        if not np.isfinite(phases).all():
            raise ValueError("genome phases must be finite")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGenome):
            return NotImplemented
        return self.architecture == other.architecture and np.array_equal(
            self.phases, other.phases
        )

    @functools.cached_property
    def transitions(self) -> list[np.ndarray]:
        """`transitions(self.architecture, self.phases)`, made once: read-only
        views, as the phases are."""
        return transitions(self.architecture, self.phases)

    @classmethod
    def _trusted(cls, architecture: Architecture, phases: np.ndarray) -> NetworkGenome:
        """Wrap a new, finite, C-contiguous float64 vector of `genome_length`
        without re-checking it, and make it read-only. For internal children."""
        genome = object.__new__(cls)
        phases.setflags(write=False)
        object.__setattr__(genome, "architecture", architecture)
        object.__setattr__(genome, "phases", phases)
        return genome


def random_genome(arch: Architecture, rng: np.random.Generator) -> NetworkGenome:
    """Sample a genome: weights/biases uniform in [-pi/2, pi/2], reversals in [-1, 1]."""
    phases = np.empty(genome_length(arch))
    for m in transitions(arch, phases):
        m[:-1] = rng.uniform(-HALF_PI, HALF_PI, m[:-1].shape)
        m[-1] = rng.uniform(-1.0, 1.0, m.shape[1])
    return NetworkGenome(architecture=arch, phases=phases)


def encode_input(normalized):
    """Map normalized values in [0, 1] to phases in [0, pi/2]."""
    return HALF_PI * np.asarray(normalized, dtype=float)


def sigmoid(x):
    """1 / (1 + exp(-x)), computed in place on a copy of `x`. exp's argument
    is capped at 700, so exp never overflows: below x = -700 the result stays
    at about 1e-304 instead of falling towards 0."""
    t = np.array(x, dtype=float)
    np.negative(t, out=t)
    np.exp(np.minimum(t, 700.0, out=t), out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def input_states(rows: np.ndarray) -> np.ndarray:
    """Encode and activate a matrix of normalized rows (genome-independent).

    Returns a read-only (R, 2n+1) float64 view: the transpose of a
    C-contiguous (2n+1, R) block holding n rows of cos, then n rows of sin of
    the encoded phases, then a row of -1, through which `forward_states`
    subtracts the first layer's bias.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d input matrix, got shape {rows.shape}")
    n = rows.shape[1]
    block = np.empty((2 * n + 1, rows.shape[0]))
    phases = encode_input(rows.T)
    np.cos(phases, out=block[:n])
    np.sin(phases, out=block[n : 2 * n])
    block[2 * n] = -1.0
    block.setflags(write=False)
    return block.T


class _Plan(NamedTuple):
    """Read-only index tables of one architecture, cached by `_plan`.

    `rev` holds every reversal entry of the flat phase vector; `fold_dst`
    every weight of a transition after a hidden layer and `fold_src`, for
    each of those, the reversal entry of the source neuron whose gate the
    weight absorbs. `gather` lists, transition after transition, where each
    entry of the stacked real matrices sits in the per-genome table
    [cos | sin | -cos | -sin] of the folded angles; `matrices` gives each
    matrix's (start, stop, w_out) in that list. `tile_rows` is how many rows
    `forward_batch` passes at a time.
    """

    rev: np.ndarray
    fold_dst: np.ndarray
    fold_src: np.ndarray
    gather: np.ndarray
    matrices: tuple[tuple[int, int, int], ...]
    tile_rows: int


# The most multiply-adds one product of `forward_batch` makes; see the
# module docstring.
_TILE_MULTIPLY_ADDS = 2**19 - 1


def _build_plan(arch: Architecture) -> _Plan:
    n = genome_length(arch)
    # Entries index the 4n-entry angle table, so int32 holds them while
    # 4n < 2**31; the fold tables are intp for `_matrices`. Each table is
    # filled in place, so the build holds little beside the tables.
    mats = transitions(arch, np.arange(n, dtype=np.int32))
    in_widths = arch.widths[:-1]
    cos, neg_cos, neg_sin = 0, 2 * n, 3 * n
    # Where a matrix's [P^T, P^T] and b columns read the table, top rows
    # then bottom: [Re P^T, -Im P^T, Re b] over [-Im P^T, -Re P^T, -Im b].
    weight_at = np.array([[cos, neg_sin], [neg_sin, neg_cos]], np.int32)[:, None, :, None]
    bias_at = np.array([cos, neg_sin], np.int32)[:, None, None]
    rev = np.concatenate([m[-1] for m in mats], dtype=np.intp)
    fold_dst = np.empty(sum(w_in * m.shape[1] for w_in, m in zip(in_widths[1:], mats[1:])), np.intp)
    fold_src = np.empty_like(fold_dst)
    # A matrix is 2*w_out rows of 2*w_in columns, and a bias one unless it feeds the output.
    gather = np.empty(sum(2 * m.shape[1] * (m.shape[0] + w_in - 1) for w_in, m in zip(in_widths, mats)), np.int32)
    matrices, start, folded = [], 0, 0
    for t, (w_in, m) in enumerate(zip(in_widths, mats)):
        # P^T[j, i] is the weight from source i to destination j; the bias
        # column is empty for the output transition.
        wt, bias = m[:w_in].T, m[w_in:-1].T
        stop = start + 2 * m.shape[1] * (2 * w_in + bias.shape[1])
        matrix = gather[start:stop].reshape(2, m.shape[1], -1)
        np.add(wt[None, :, None], weight_at, out=matrix[:, :, : 2 * w_in].reshape(2, -1, 2, w_in))
        np.add(bias, bias_at, out=matrix[:, :, 2 * w_in :])
        matrices.append((start, stop, m.shape[1]))
        start = stop
        if t:
            # Each weight leaving a hidden neuron absorbs that neuron's gate.
            dst = fold_dst[folded : folded + m[:w_in].size].reshape(w_in, -1)
            np.copyto(dst, m[:w_in])
            np.copyto(fold_src[folded : folded + dst.size].reshape(dst.shape), mats[t - 1][-1][:, None])
            folded += dst.size
    for table in (rev, fold_dst, fold_src, gather):
        table.setflags(write=False)
    # A matrix holds M*K = stop - start entries, so a tile's largest product
    # makes M*K*tile_rows multiply-adds.
    tile_rows = max(1, _TILE_MULTIPLY_ADDS // max(stop - start for start, stop, _ in matrices))
    return _Plan(rev, fold_dst, fold_src, gather, tuple(matrices), tile_rows)


# A plan's tables take at most 32 bytes a phase: a weight behind a hidden
# layer has 4 int32 gather entries and 2 intp fold entries. So the small
# cache holds at most 256 * 2**13 * 32 B = 64 MiB, the phase bytes of the
# largest population (evolve.MAX_POPULATION_PHASES). A larger plan is kept
# alone, as `forward_batch` asks for it per tile. Callers share each plan,
# so its tables are read-only.
_SMALL_PLAN_PHASES = 2**13
_small_plan = functools.lru_cache(maxsize=256)(_build_plan)
_large_plan = functools.lru_cache(maxsize=1)(_build_plan)


def _plan(arch: Architecture) -> _Plan:
    """`_build_plan(arch)`, from the cache for its genome's size."""
    return (_small_plan if genome_length(arch) <= _SMALL_PLAN_PHASES else _large_plan)(arch)


def _matrices(plan: _Plan, phases: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per phase vector of `phases` (all of `plan`'s architecture):
    its transitions' stacked real matrices, flat and in order; and the cos
    and sin of each output gate angle.

    A reversal entry's angle becomes its gate angle (pi/2)*sigmoid(rho), and
    each weight leaving a hidden neuron adds that neuron's gate angle. One
    cos and one sin of these angles are a genome's only transcendentals.
    For a transition with folded phasors P (w_in, w_out) and bias phasors b,
    the matrix is [[Re P^T, -Im P^T, Re b], [-Im P^T, -Re P^T, -Im b]]; the
    output transition has no bias column.
    """
    angles = np.concatenate(phases).reshape(len(phases), -1)
    gates = sigmoid(angles[:, plan.rev])
    gates *= HALF_PI
    angles[:, plan.rev] = gates
    angles[:, plan.fold_dst] += angles[:, plan.fold_src]
    n = angles.shape[1]
    table = np.empty((len(angles), 4 * n))
    np.cos(angles, out=table[:, :n])
    np.sin(angles, out=table[:, n : 2 * n])
    np.negative(table[:, : 2 * n], out=table[:, 2 * n :])
    # The output gate is the output's reversal, the genome's last entry. The
    # gates are copied, so no stack holds the table.
    return table.take(plan.gather, axis=1), table[:, n - 1].copy(), table[:, 2 * n - 1].copy()


_workspace = threading.local()

# The smallest normal float64. A block whose |U|^2 all reach it takes the
# fast path; below it, a square may have underflowed on a nonzero sum.
_TINY = np.finfo(float).tiny


class _Stack:
    """Genomes of one architecture: `matrices[t][k]` is genome k's matrix of
    transition t, all made by one `_matrices` call. `steps(rows)` are the
    views of this thread's workspace that their passes write, made once per
    row count, so a stack serves the thread that uses it."""

    def __init__(self, plan: _Plan, phases: list[np.ndarray]):
        flat, self.gate_cos, self.gate_sin = _matrices(plan, phases)
        self.matrices = [flat[:, start:stop].reshape(len(phases), 2 * w, -1) for start, stop, w in plan.matrices]
        self._rows = -1

    def steps(self, rows: int) -> list[tuple]:
        """Per transition: its product's block, the squares' block, their top
        and bottom halves, the product's (2, w, rows) planes and, but for the
        output, the next input block and its -1 row. Products alternate
        between the two buffers."""
        if rows != self._rows:
            height = max(m.shape[1] for m in self.matrices[:-1]) + 1
            buffers = getattr(_workspace, "buffers", None)
            if buffers is None or buffers[0].size < height * rows:
                buffers = _workspace.buffers = (np.empty(height * rows), np.empty(height * rows))
            a, b = (buffer[: height * rows].reshape(height, rows) for buffer in buffers)
            self._rows, self._steps = rows, []
            for t, m in enumerate(self.matrices):
                out, squares = (a, b) if t % 2 == 0 else (b, a)
                u, square, w = out[: m.shape[1]], squares[: m.shape[1]], m.shape[1] // 2
                below = (out[: self.matrices[t + 1].shape[2]], out[2 * w]) if t + 1 < len(self.matrices) else None
                self._steps.append((u, square, square[:w], square[w:], u.reshape(2, w, rows), below))
        return self._steps


def _normalize_exactly(planes: np.ndarray, mag: np.ndarray) -> int:
    """Scale the (2, w, rows) planes of conj(U) to unit modulus through
    np.hypot, which neither underflows nor overflows, and set `mag` to 1.
    A zero sum becomes 1 + 0i (arg 0: the state is the gate phase); returns
    how many there were."""
    np.hypot(planes[0], planes[1], out=mag)
    zero = mag == 0.0
    planes[0][zero] = 1.0
    mag[zero] = 1.0
    planes /= mag
    mag.fill(1.0)
    return int(np.count_nonzero(zero))


def forward_states(
    genome: NetworkGenome,
    states: np.ndarray,
    stack: tuple[_Stack, int] | None = None,
) -> tuple[np.ndarray, int]:
    """Run the network over `input_states` output: one prediction per row,
    and how many neuron sums were exactly zero (degenerate arguments).

    `states` is only read, so one input-state array can serve every genome.
    The predictions are a new array that shares no memory with the workspace.
    `stack`, a pair (`_Stack`, k), holds the genome's matrices as the stack's
    k-th genome; without it the call makes its own.
    """
    arch = genome.architecture
    if states.ndim != 2 or states.shape[1] != 2 * arch.input_width + 1:
        raise DimensionMismatchError(
            f"states of shape {states.shape} do not fit input width {arch.input_width}:"
            " input_states gives cos and sin planes and a -1 column"
        )
    made, k = (_Stack(_plan(arch), [genome.phases]), 0) if stack is None else stack
    block, degenerate = states.T, 0
    for matrices, (u, square, top, bottom, planes, below) in zip(made.matrices, made.steps(states.shape[0])):
        # [Re U; -Im U], the planes of conj(U). The output matrix has no bias
        # column, so its input block stops before the -1 row.
        np.matmul(matrices[k], block, out=u)
        # The product has consumed `block`, so its buffer is free for |U|^2.
        np.square(u, out=square)
        mag = np.add(top, bottom, out=top)
        if np.minimum.reduce(mag, axis=None, initial=np.inf) < _TINY:
            degenerate += _normalize_exactly(planes, mag)
        elif below is not None:
            planes *= np.reciprocal(np.sqrt(mag, out=mag), out=mag)
        if below is not None:
            block, minus_one = below
            minus_one.fill(-1.0)
    # Im(g * conj(U))^2 / |U|^2, g being the output gate phase.
    im = made.gate_sin[k] * u[0]
    im += made.gate_cos[k] * u[1]
    im *= im
    im /= mag[0]
    return im, degenerate


# The most bytes one chunk of `forward_grouped` stacks: its genomes' angles,
# [cos | sin | -cos | -sin] tables and matrices, 8 * (5n + entries) a genome.
_CHUNK_BYTES = 2**20


def forward_grouped(genomes: list[NetworkGenome], states: np.ndarray):
    """Yield (i, predictions, degenerate args) of every genome over `states`:
    by architecture in first-seen order, in chunks of up to `_CHUNK_BYTES`
    of stacked tables (at least one genome), each chunk's matrices made in
    one `_Stack`. Each genome's `forward_states` call is bit-equal to one
    without the stack."""
    groups = {}
    for i, genome in enumerate(genomes):
        groups.setdefault(genome.architecture, []).append(i)
    for arch, members in groups.items():
        plan = _plan(arch)
        size = max(1, _CHUNK_BYTES // (8 * (5 * genome_length(arch) + plan.gather.size)))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            made = _Stack(plan, [genomes[i].phases for i in chunk])
            for k, i in enumerate(chunk):
                yield i, *forward_states(genomes[i], states, (made, k))
            del made  # before the next chunk's matrices are made


def _tiled(genome: NetworkGenome, count: int, states) -> np.ndarray:
    """`count` predictions of `genome`, made in tiles of `_plan(...).tile_rows`
    rows, whose products are too small for OpenBLAS to split over threads, so
    the predictions do not depend on its thread count. `states(start, stop)`
    gives rows start..stop's input states. The genome's matrices are made
    once, in a `_Stack` every tile's `forward_states` call is given."""
    plan = _plan(genome.architecture)
    preds = np.empty(count)
    stack = _Stack(plan, [genome.phases]), 0
    # At least one pass, so zero rows of the wrong width still raise.
    for start in range(0, max(count, 1), plan.tile_rows):
        stop = min(start + plan.tile_rows, count)
        preds[start:stop] = forward_states(genome, states(start, stop), stack)[0]
    return preds


def forward_batch(genome: NetworkGenome, rows: np.ndarray) -> np.ndarray:
    """Predict one normalized value in [0, 1] per input row, through
    `input_states` and `forward_states` tile by tile (`_tiled`)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d input matrix, got shape {rows.shape}")
    return _tiled(genome, rows.shape[0], lambda start, stop: input_states(rows[start:stop]))


def forward_series(genome: NetworkGenome, series) -> np.ndarray:
    """Predict one normalized value per row of `sliding_window_view(series,
    input_width)`, bit for bit as `forward_batch` over those rows: numpy's
    cos and sin give the contiguous series the bits they give strided window
    rows, which a property test checks. Each tile's input block, laid out as
    `input_states` lays it out, is copied into one buffer all tiles reuse."""
    series = np.asarray(series, dtype=float)
    n = genome.architecture.input_width
    if series.ndim != 1 or series.size < n:
        raise DimensionMismatchError(
            f"expected a 1-d series of at least {n} values, got shape {series.shape}"
        )
    count = series.size - n + 1
    phases = encode_input(series)
    # lags[0][i] is the cos of window i's n values, lags[1][i] their sin.
    lags = [np.lib.stride_tricks.sliding_window_view(plane(phases), n) for plane in (np.cos, np.sin)]
    buffer = np.empty((2 * n + 1) * min(count, _plan(genome.architecture).tile_rows))

    def states(start: int, stop: int) -> np.ndarray:
        block = buffer[: (2 * n + 1) * (stop - start)].reshape(2 * n + 1, -1)
        np.copyto(block[:n], lags[0][start:stop].T)
        np.copyto(block[n : 2 * n], lags[1][start:stop].T)
        block[2 * n] = -1.0
        return block.T

    return _tiled(genome, count, states)


def forward(genome: NetworkGenome, normalized_row) -> float:
    """Predict for a single normalized window."""
    row = np.asarray(normalized_row, dtype=float)
    if row.ndim != 1:
        raise DimensionMismatchError(f"expected 1-d row, got shape {row.shape}")
    return float(forward_batch(genome, row[None, :])[0])


def genome_to_bytes(genome: NetworkGenome) -> bytes:
    """Serialize: magic, version, widths header, then the raw phase array."""
    arch = genome.architecture
    header = struct.pack(
        f"<4sIIII{arch.depth}IQ",
        _GENOME_MAGIC,
        _GENOME_VERSION,
        arch.input_width,
        arch.depth,
        1,  # output width
        *arch.hidden_widths,
        genome.phases.size,
    )
    return header + genome.phases.astype("<f8").tobytes()


def genome_from_bytes(blob: bytes) -> NetworkGenome:
    try:
        magic, version, n, depth, q = struct.unpack_from("<4sIIII", blob, 0)
        if magic != _GENOME_MAGIC:
            raise GenomeFormatError("bad genome magic")
        if version != _GENOME_VERSION:
            raise GenomeFormatError(f"unsupported genome version {version}")
        if q != 1:
            raise GenomeFormatError(f"output width must be 1, got {q}")
        offset = struct.calcsize("<4sIIII")
        widths = struct.unpack_from(f"<{depth}I", blob, offset)
        offset += struct.calcsize(f"<{depth}I")
        (length,) = struct.unpack_from("<Q", blob, offset)
        offset += struct.calcsize("<Q")
        if offset + 8 * length != len(blob):
            raise GenomeFormatError(
                f"length field {length} does not match the {len(blob) - offset} bytes after the header"
            )
        phases = np.frombuffer(blob, dtype="<f8", count=length, offset=offset)
    except struct.error as exc:
        raise GenomeFormatError(f"truncated genome data: {exc}")
    try:
        arch = Architecture(input_width=n, hidden_widths=widths)
        return NetworkGenome(architecture=arch, phases=phases.copy())
    except ValueError as exc:
        raise GenomeFormatError(f"invalid genome: {exc}") from None


def save_genome(genome: NetworkGenome, path: str | Path) -> None:
    Path(path).write_bytes(genome_to_bytes(genome))


def load_genome(path: str | Path) -> NetworkGenome:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"genome file not found: {path}")
    return genome_from_bytes(path.read_bytes())
