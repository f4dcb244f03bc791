"""Variable-architecture qubit-neuron network.

A candidate network is a flat phase vector plus an architecture describing
layer widths. Every activation is a unit-modulus complex state
cos(psi) + i*sin(psi). Layer transitions aggregate weighted states, subtract
an activated bias (hidden layers only), and re-rotate via a sigmoid-gated
reversal parameter: psi = (pi/2)*sigmoid(rho) - arg(U). The output qubit is
observed as sin(psi)^2, which lands in [0, 1] like the normalized targets.

Genome layout, per transition between layer widths (w_in -> w_out):
weight block of w_in*w_out phases stored source-major (W[i, j] connects
source i to destination j), then for hidden destinations a bias block and a
reversal block of w_out entries each; the output transition has no bias.

`forward_states` evaluates the same map without per-row trigonometry. With
the gate phase g = exp(i*(pi/2)*sigmoid(rho)), the next state is

    exp(i*psi) = g * conj(U) / |U|

and the output is Im(g * conj(U) / |U|)^2, so the only transcendentals are
one cos and one sin of the genome's angles (`_matrices`). A zero sum U == 0
has no argument: it is taken as arg 0, so the state becomes the gate phase
g itself, and `ForwardDiagnostics.degenerate_args` counts it.

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

`forward_batch` runs `input_states` and `forward_states` over row tiles and
writes each tile's predictions into one output array. A tile holds
(2**19 - 1) // (largest M*K) rows, M*K being the entries of a transition's
matrix, so every product makes fewer than 2**19 multiply-adds. OpenBLAS
splits a larger product over its threads, and how it splits it sets the
rounding; on a 2-core x86 host, OpenBLAS 0.3.31 kept products up to about
0.9M multiply-adds on one thread. So a forecast's bytes do not depend on
the BLAS thread count, and no second thread spins beside the one doing the
work. A 10-8-8-1 network gets 1560-row tiles, whose input block and
workspace (about 0.7 MB) fit in a 2 MB L2 cache.

Training calls `forward_states` directly, untiled, on its whole training
set. With window 10 and widths up to 10 a tile holds at least 1248 rows, so
a desk-scale training set (1194 rows) is one tile anyway. Larger ones stay
untiled because tiling them on a prototype broke acceptance criterion 12:
the ratio of training wall time at 6020 windows to that at 3010 fell to
1.47-1.93 over 6 runs, 3 of them under the 1.6 floor (1.77-1.91 untiled).
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

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)

    @property
    def widths(self) -> tuple[int, ...]:
        """All layer widths, input first, output last."""
        return (self.input_width, *self.hidden_widths, 1)


@dataclass(frozen=True)
class TransitionLayout:
    """Offsets of one transition's blocks inside the flat phase vector."""

    w_in: int
    w_out: int
    weight_start: int
    bias_start: int  # -1 when the destination layer has no bias (output)
    rev_start: int
    end: int

    @property
    def has_bias(self) -> bool:
        return self.bias_start >= 0

    @property
    def weight_slice(self) -> slice:
        return slice(self.weight_start, self.weight_start + self.w_in * self.w_out)

    @property
    def bias_slice(self) -> slice | None:
        if not self.has_bias:
            return None
        return slice(self.bias_start, self.bias_start + self.w_out)

    @property
    def rev_slice(self) -> slice:
        return slice(self.rev_start, self.rev_start + self.w_out)


@dataclass(frozen=True)
class GenomeLayout:
    transitions: tuple[TransitionLayout, ...]
    total_length: int

    def blocks(self):
        """Yield (transition_index, kind, slice) for every block, in order."""
        for t, seg in enumerate(self.transitions):
            yield t, "weight", seg.weight_slice
            if seg.has_bias:
                yield t, "bias", seg.bias_slice
            yield t, "rev", seg.rev_slice


@functools.lru_cache(maxsize=4096)
def layout(arch: Architecture) -> GenomeLayout:
    """Compute block offsets for an architecture; total equals genome length."""
    widths = arch.widths
    transitions = []
    pos = 0
    for t in range(len(widths) - 1):
        w_in, w_out = widths[t], widths[t + 1]
        weight_start = pos
        pos += w_in * w_out
        is_output = t == len(widths) - 2
        bias_start = -1
        if not is_output:
            bias_start = pos
            pos += w_out
        rev_start = pos
        pos += w_out
        transitions.append(
            TransitionLayout(w_in, w_out, weight_start, bias_start, rev_start, pos)
        )
    return GenomeLayout(transitions=tuple(transitions), total_length=pos)


@dataclass(frozen=True, eq=False)
class NetworkGenome:
    """Immutable candidate network: architecture plus flat phase vector."""

    architecture: Architecture
    phases: np.ndarray

    def __post_init__(self):
        phases = np.ascontiguousarray(self.phases, dtype=float)
        expected = layout(self.architecture).total_length
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

    @classmethod
    def _trusted(cls, architecture: Architecture, phases: np.ndarray) -> NetworkGenome:
        """Wrap a new, finite, C-contiguous float64 vector of the layout's length
        without re-checking it, and make it read-only. For internal children."""
        genome = object.__new__(cls)
        phases.setflags(write=False)
        object.__setattr__(genome, "architecture", architecture)
        object.__setattr__(genome, "phases", phases)
        return genome


def random_genome(arch: Architecture, rng: np.random.Generator) -> NetworkGenome:
    """Sample a genome: weights/biases uniform in [-pi/2, pi/2], reversals in [-1, 1]."""
    lay = layout(arch)
    phases = np.empty(lay.total_length)
    for _, kind, sl in lay.blocks():
        lo, hi = (-1.0, 1.0) if kind == "rev" else (-HALF_PI, HALF_PI)
        phases[sl] = rng.uniform(lo, hi, sl.stop - sl.start)
    return NetworkGenome(architecture=arch, phases=phases)


@dataclass
class ForwardDiagnostics:
    """Counters accumulated during forward passes."""

    degenerate_args: int = 0


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
    output_gate: int
    tile_rows: int


# The most multiply-adds one product of `forward_batch` makes; see the
# module docstring.
_TILE_MULTIPLY_ADDS = 2**19 - 1


@functools.lru_cache(maxsize=4096)
def _plan(arch: Architecture) -> _Plan:
    lay = layout(arch)
    transitions = lay.transitions
    cos, neg_cos, neg_sin = 0, 2 * lay.total_length, 3 * lay.total_length
    rev = [np.arange(seg.rev_start, seg.end) for seg in transitions]
    dst = [np.arange(nxt.weight_slice.start, nxt.weight_slice.stop) for nxt in transitions[1:]]
    src = [np.repeat(r, nxt.w_out) for r, nxt in zip(rev, transitions[1:])]
    gather, matrices, start = [], [], 0
    for seg in transitions:
        # P^T[j, i] is the weight from source i to destination j.
        wt = seg.weight_start + np.arange(seg.w_in) * seg.w_out + np.arange(seg.w_out)[:, None]
        if seg.has_bias:
            bias = np.arange(seg.bias_start, seg.rev_start)[:, None]
            top = [cos + wt, neg_sin + wt, cos + bias]
            bottom = [neg_sin + wt, neg_cos + wt, neg_sin + bias]
        else:
            top, bottom = [cos + wt, neg_sin + wt], [neg_sin + wt, neg_cos + wt]
        # The [top; bottom] matrix, row-major: the top rows, then the bottom.
        halves = [np.concatenate(row, axis=1).ravel() for row in (top, bottom)]
        gather += halves
        matrices.append((start, start + 2 * halves[0].size, seg.w_out))
        start += 2 * halves[0].size
    tables = (
        np.concatenate(rev),
        np.concatenate(dst),
        np.concatenate(src),
        np.concatenate(gather).astype(np.int32),
    )
    for table in tables:
        table.setflags(write=False)
    # A matrix holds M*K = stop - start entries, so a tile's largest product
    # makes M*K*tile_rows multiply-adds.
    tile_rows = max(1, _TILE_MULTIPLY_ADDS // max(stop - start for start, stop, _ in matrices))
    return _Plan(*tables, tuple(matrices), transitions[-1].rev_start, tile_rows)


def _matrices(plan: _Plan, phases: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Every transition's stacked real matrix, flat and in order, and the cos
    and sin of the output gate angle.

    A reversal entry's angle becomes its gate angle (pi/2)*sigmoid(rho), and
    each weight leaving a hidden neuron adds that neuron's gate angle. One
    cos and one sin of these angles are the genome's only transcendentals.
    For a transition with folded phasors P (w_in, w_out) and bias phasors b,
    the matrix is [[Re P^T, -Im P^T, Re b], [-Im P^T, -Re P^T, -Im b]]; the
    output transition has no bias column.
    """
    angles = phases.copy()
    gates = sigmoid(angles[plan.rev])
    gates *= HALF_PI
    angles[plan.rev] = gates
    angles[plan.fold_dst] += angles[plan.fold_src]
    n = angles.size
    table = np.empty(4 * n)
    np.cos(angles, out=table[:n])
    np.sin(angles, out=table[n : 2 * n])
    np.negative(table[: 2 * n], out=table[2 * n :])
    return table.take(plan.gather), table[plan.output_gate], table[n + plan.output_gate]


_workspace = threading.local()

# The smallest normal float64. A block whose |U|^2 all reach it takes the
# fast path; below it, a square may have underflowed on a nonzero sum.
_TINY = np.finfo(float).tiny


def _workspace_blocks(height: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (height, rows) float64 blocks over this thread's buffers."""
    size = height * rows
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = (np.empty(size), np.empty(size))
        _workspace.buffers = buffers
    return buffers[0][:size].reshape(height, rows), buffers[1][:size].reshape(height, rows)


def _normalize_exactly(planes: np.ndarray, mag: np.ndarray, diag: ForwardDiagnostics | None) -> None:
    """Scale the (2, w, rows) planes of conj(U) to unit modulus through
    np.hypot, which neither underflows nor overflows, and set `mag` to 1.
    A zero sum becomes 1 + 0i (arg 0: the state is the gate phase) and is
    counted."""
    np.hypot(planes[0], planes[1], out=mag)
    zero = mag == 0.0
    if zero.any():
        if diag is not None:
            diag.degenerate_args += int(np.count_nonzero(zero))
        planes[0][zero] = 1.0
        mag[zero] = 1.0
    planes /= mag
    mag.fill(1.0)


def forward_states(
    genome: NetworkGenome,
    states: np.ndarray,
    diag: ForwardDiagnostics | None = None,
) -> np.ndarray:
    """Run the network over `input_states` output; one prediction per row.

    `states` is only read, so one input-state array can serve every genome.
    The predictions are a new array that shares no memory with the workspace.
    """
    arch = genome.architecture
    if states.ndim != 2 or states.shape[1] != 2 * arch.input_width + 1:
        raise DimensionMismatchError(
            f"states of shape {states.shape} do not fit input width {arch.input_width}:"
            " input_states gives cos and sin planes and a -1 column"
        )
    rows = states.shape[0]
    plan = _plan(arch)
    flat, gate_cos, gate_sin = _matrices(plan, genome.phases)
    a, b = _workspace_blocks(2 * max(arch.hidden_widths) + 1, rows)
    block = states.T
    for start, stop, w in plan.matrices:
        matrix = flat[start:stop].reshape(2 * w, -1)
        # [Re U; -Im U], the planes of conj(U). The output matrix has no bias
        # column, so it skips the -1 row.
        u = np.matmul(matrix, block[: matrix.shape[1]], out=a[: 2 * w])
        # The product has consumed `block`, so b is free for |U|^2.
        square = np.square(u, out=b[: 2 * w])
        mag = np.add(square[:w], square[w:], out=square[:w])
        last = stop == flat.size  # the output transition, always the last
        if np.minimum.reduce(mag, axis=None, initial=np.inf) < _TINY:
            _normalize_exactly(u.reshape(2, w, rows), mag, diag)
        elif not last:
            planes = u.reshape(2, w, rows)
            planes *= np.reciprocal(np.sqrt(mag, out=mag), out=mag)
        if last:
            break
        block = a[: 2 * w + 1]
        block[2 * w] = -1.0
        a, b = b, a
    # Im(g * conj(U))^2 / |U|^2, g being the output gate phase.
    im = gate_sin * u[0]
    im += gate_cos * u[1]
    im *= im
    im /= mag[0]
    return im


def forward_batch(
    genome: NetworkGenome,
    rows: np.ndarray,
    diag: ForwardDiagnostics | None = None,
) -> np.ndarray:
    """Predict one normalized value in [0, 1] per input row.

    The rows pass through `input_states` and `forward_states` in tiles of
    `_plan(...).tile_rows`, whose products are too small for OpenBLAS to
    split over threads, so the predictions do not depend on its thread count.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d input matrix, got shape {rows.shape}")
    tile = _plan(genome.architecture).tile_rows
    preds = np.empty(rows.shape[0])
    # At least one pass, so zero rows of the wrong width still raise.
    for start in range(0, max(rows.shape[0], 1), tile):
        stop = start + tile
        preds[start:stop] = forward_states(genome, input_states(rows[start:stop]), diag)
    return preds


def forward(
    genome: NetworkGenome,
    normalized_row,
    diag: ForwardDiagnostics | None = None,
) -> float:
    """Predict for a single normalized window."""
    row = np.asarray(normalized_row, dtype=float)
    if row.ndim != 1:
        raise DimensionMismatchError(f"expected 1-d row, got shape {row.shape}")
    return float(forward_batch(genome, row[None, :], diag)[0])


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
