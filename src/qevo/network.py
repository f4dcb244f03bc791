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
one complex exp per genome (`_phasors`). A zero sum U == 0 has no argument:
it is taken as arg 0, so the state becomes the gate phase g itself, and
`ForwardDiagnostics.degenerate_args` counts it. `testkit.neuron_aggregate`
and `testkit.reverse_rotate` keep the literal per-neuron form.

The pass works on (width, rows) blocks, one block row per neuron, so each
transition is one matrix product plus a few in-place passes over
contiguous memory:

- `input_states` appends a row of -1 to the input block. The bias block
  follows the weight block in the genome, so the phasors of [W; b] are one
  (w_in+1, w_out) view, and [W; b]^T @ [Y; -1] = W^T Y - b is one product.
  Every hidden block gets the same -1 row for the next transition.
- A hidden neuron's gate multiplies its outgoing weight row in the
  per-genome phasor copy, so the block carries conj(U)/|U| and never the
  gate: after the product, |U| goes into a float block and U is conjugated
  and scaled by 1/|U| in place. The output is Im(g * conj(U))^2 / |U|^2,
  g being the output gate.
- The blocks live in a per-thread workspace of two complex buffers of
  rows * (widest hidden layer + 1) entries, replaced by larger ones when a
  call needs more and reused otherwise. A transition writes its product
  into one buffer and |U| into the float view of the other, whose block the
  product has just consumed. Predictions are returned in a new array.
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

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
    output_width: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_width < 1:
            raise ValueError("input_width must be >= 1")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("need at least one hidden layer, all widths >= 1")
        if self.output_width != 1:
            raise ValueError("output_width is fixed at 1")

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)

    @property
    def widths(self) -> tuple[int, ...]:
        """All layer widths, input first, output last."""
        return (self.input_width, *self.hidden_widths, self.output_width)


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

    def weight_matrix(self, t: int) -> np.ndarray:
        seg = layout(self.architecture).transitions[t]
        return self.phases[seg.weight_slice].reshape(seg.w_in, seg.w_out)

    def bias_vector(self, t: int) -> np.ndarray | None:
        seg = layout(self.architecture).transitions[t]
        return None if not seg.has_bias else self.phases[seg.bias_slice]

    def reversal_vector(self, t: int) -> np.ndarray:
        seg = layout(self.architecture).transitions[t]
        return self.phases[seg.rev_slice]


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
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def input_states(rows: np.ndarray) -> np.ndarray:
    """Encode and activate a matrix of normalized rows (genome-independent).

    Returns a read-only (R, n+1) view: the transpose of a C-contiguous
    (n+1, R) block holding the n input states per row and a last row of -1,
    through which `forward_states` subtracts the first layer's bias.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d input matrix, got shape {rows.shape}")
    n = rows.shape[1]
    block = np.empty((n + 1, rows.shape[0]), dtype=complex)
    states = np.multiply(encode_input(rows.T), 1j, out=block[:n])
    np.exp(states, out=states)
    block[n] = -1.0
    block.setflags(write=False)
    return block.T


@functools.lru_cache(maxsize=4096)
def _phasor_index(arch: Architecture) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only positions in the flat phase vector, cached per architecture:
    `rev`, every reversal entry; `dst`, every weight of a transition after a
    hidden layer; `src`, for each of those, the reversal entry of the source
    neuron whose gate the weight absorbs."""
    transitions = layout(arch).transitions
    rev = [np.arange(seg.rev_start, seg.end) for seg in transitions]
    dst = [np.arange(nxt.weight_slice.start, nxt.weight_slice.stop) for nxt in transitions[1:]]
    src = [np.repeat(r, nxt.w_out) for r, nxt in zip(rev, transitions[1:])]
    index = (np.concatenate(rev), np.concatenate(dst), np.concatenate(src))
    for table in index:
        table.setflags(write=False)
    return index


def _phasors(genome: NetworkGenome) -> np.ndarray:
    """exp(i*theta) of every genome entry, with reversal entries replaced by
    their gate angle (pi/2)*sigmoid(rho) and each weight row leaving a hidden
    neuron multiplied by that neuron's gate. These are the genome's only
    transcendentals."""
    rev, dst, src = _phasor_index(genome.architecture)
    angles = genome.phases.copy()
    angles[rev] = HALF_PI * sigmoid(angles[rev])
    phasor = np.exp(1j * angles)
    phasor[dst] *= phasor[src]
    return phasor


# Per-thread scratch blocks for `forward_states`, kept between calls and
# replaced by larger ones when a call needs more room.
_workspace = threading.local()


def _workspace_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two complex buffers of at least `size` entries each."""
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = (np.empty(size, complex), np.empty(size, complex))
        _workspace.buffers = buffers
    return buffers


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
    if states.ndim != 2 or states.shape[1] != arch.input_width + 1:
        raise DimensionMismatchError(
            f"states of shape {states.shape} do not fit input width {arch.input_width}"
            " plus the -1 column of input_states"
        )
    rows = states.shape[0]
    phasor = _phasors(genome)
    a, b = _workspace_buffers(rows * (max(arch.hidden_widths) + 1))
    block = states.T
    for seg in layout(arch).transitions:
        w = seg.w_out
        size = w * rows
        # [W; b] for a hidden destination, whose bias block follows its
        # weights; W alone for the output, which so skips the -1 row.
        weights = phasor[seg.weight_start : seg.rev_start].reshape(-1, w)
        u = np.matmul(weights.T, block[: len(weights)], out=a[:size].reshape(w, rows))
        # The product has consumed `block`, so b is free for |u|.
        mag = np.abs(u, out=b.view(float)[:size].reshape(w, rows))
        if not mag.all():
            zero = mag == 0.0
            if diag is not None:
                diag.degenerate_args += int(np.count_nonzero(zero))
            u[zero] = 1.0  # arg 0: the state becomes the gate phase
            mag[zero] = 1.0
        if not seg.has_bias:  # the output transition, always the last
            break
        np.conjugate(u, out=u)
        u *= np.reciprocal(mag, out=mag)
        block = a[: size + rows].reshape(w + 1, rows)
        block[w] = -1.0
        a, b = b, a
    gate = phasor[seg.rev_start]
    im = gate.imag * u.real[0] - gate.real * u.imag[0]
    im /= mag[0]
    return np.square(im, out=im)


def forward_batch(
    genome: NetworkGenome,
    rows: np.ndarray,
    diag: ForwardDiagnostics | None = None,
) -> np.ndarray:
    """Predict one normalized value in [0, 1] per input row."""
    return forward_states(genome, input_states(rows), diag)


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
        arch.output_width,
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
        arch = Architecture(input_width=n, hidden_widths=widths, output_width=q)
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
