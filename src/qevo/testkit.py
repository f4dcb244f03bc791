"""Independent brute-force oracles for the acceptance suite.

Everything here is intentionally naive: the forward oracle re-walks the
genome with explicit (re, im) pair arithmetic and its own offset bookkeeping,
sharing no implementation with the production network module, so agreement
between the two is meaningful evidence. The trace reference is the
row-by-row, dict-based parser that the columnar `trace_io.parse_trace` must
match.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyTraceError, MalformedRowError
from .evolve import STRATEGIES, StrategyState, recombine, select_strategy
from .network import Architecture, NetworkGenome, random_genome
from .trace_io import TraceFormat, _resolve_column


@dataclass
class OracleReport:
    max_abs_deviation: float
    cases_run: int
    failures: list[str] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def oracle_forward(genome: NetworkGenome, row) -> float:
    """Scalar re-computation of the network forward pass.

    Walks the flat phase vector with locally derived offsets: per transition
    a source-major weight block, then (hidden destinations only) a bias
    block, then a reversal block. States are (re, im) tuples; a zero
    accumulation takes argument 0 via atan2(0, 0).
    """
    return oracle_forward_conditioned(genome, row)[0]


def oracle_forward_conditioned(genome: NetworkGenome, row) -> tuple[float, float]:
    """`oracle_forward` plus the row's condition number: the largest
    sum(|term|) / |U| over its neurons, every term being unit-modulus. Rounding
    in a sum moves arg(U) by about that many ulps, so two correct passes
    may differ by that factor more on the row than on a well-conditioned one.
    A zero sum gives inf."""
    arch = genome.architecture
    widths = [arch.input_width, *arch.hidden_widths, 1]
    phases = [float(p) for p in genome.phases]
    row = [float(v) for v in row]
    if len(row) != arch.input_width:
        raise ValueError(f"row width {len(row)} != input width {arch.input_width}")

    states = [(math.cos(math.pi / 2 * d), math.sin(math.pi / 2 * d)) for d in row]
    condition = 1.0
    pos = 0
    for t in range(len(widths) - 1):
        w_in, w_out = widths[t], widths[t + 1]
        is_output = t == len(widths) - 2
        weights = phases[pos : pos + w_in * w_out]
        pos += w_in * w_out
        bias = None
        if not is_output:
            bias = phases[pos : pos + w_out]
            pos += w_out
        rev = phases[pos : pos + w_out]
        pos += w_out

        next_states = []
        for j in range(w_out):
            u_re, u_im = 0.0, 0.0
            for i in range(w_in):
                theta = weights[i * w_out + j]
                w_re, w_im = math.cos(theta), math.sin(theta)
                y_re, y_im = states[i]
                u_re += w_re * y_re - w_im * y_im
                u_im += w_re * y_im + w_im * y_re
            if bias is not None:
                u_re -= math.cos(bias[j])
                u_im -= math.sin(bias[j])
            magnitude = math.hypot(u_re, u_im)
            terms = w_in + (bias is not None)
            condition = max(condition, terms / magnitude if magnitude else math.inf)
            # The sigmoid on each side of 0, so exp never overflows.
            e = math.exp(-abs(rev[j]))
            gate = 1.0 / (1.0 + e) if rev[j] >= 0.0 else e / (1.0 + e)
            psi = (math.pi / 2) * gate - math.atan2(u_im, u_re)
            if is_output:
                return math.sin(psi) ** 2, condition
            next_states.append((math.cos(psi), math.sin(psi)))
        states = next_states
    raise AssertionError("unreachable: network has at least one transition")


def _expected_genome_length(arch: Architecture) -> int:
    """Independent re-derivation of the genome length formula."""
    widths = [arch.input_width, *arch.hidden_widths, 1]
    total = 0
    for t in range(len(widths) - 1):
        total += widths[t] * widths[t + 1]  # weights
        if t < len(widths) - 2:
            total += widths[t + 1]  # bias
        total += widths[t + 1]  # reversal
    return total


def check_recombination_validity(
    trials: int,
    rng: np.random.Generator,
    *,
    input_width: int = 4,
    width_range: tuple[int, int] = (1, 6),
    depth_range: tuple[int, int] = (1, 3),
) -> OracleReport:
    """Recombine random cross-architecture parent pairs and re-validate every
    child against the independently derived layout formula."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures: list[str] = []
    max_dev = 0.0
    for trial in range(trials):
        parents = []
        for _ in range(2):
            depth = int(rng.integers(depth_range[0], depth_range[1] + 1))
            widths = tuple(
                int(w) for w in rng.integers(width_range[0], width_range[1] + 1, depth)
            )
            parents.append(random_genome(Architecture(input_width, widths), rng))
        children = recombine(parents[0], parents[1], rng)
        for which, child in enumerate(children):
            expected = _expected_genome_length(child.architecture)
            deviation = abs(child.phases.size - expected)
            max_dev = max(max_dev, float(deviation))
            if deviation:
                failures.append(
                    f"trial {trial} child {which}: length {child.phases.size}, expected {expected}"
                )
            elif not np.isfinite(child.phases).all():
                failures.append(f"trial {trial} child {which}: non-finite phases")
            elif any(w < 1 for w in child.architecture.hidden_widths):
                failures.append(f"trial {trial} child {which}: empty hidden layer")
    return OracleReport(max_abs_deviation=max_dev, cases_run=trials, failures=failures)


def check_selection_distribution(
    probabilities,
    draws: int,
    rng: np.random.Generator,
    tolerance: float = 0.01,
) -> OracleReport:
    """Empirical strategy frequencies vs the target simplex."""
    probs = tuple(float(p) for p in probabilities)
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
    state = StrategyState(probs=probs)
    counts = dict.fromkeys(STRATEGIES, 0)
    for mss in rng.random(draws):
        counts[select_strategy(float(mss), state)] += 1
    failures = []
    max_dev = 0.0
    for k, strategy in enumerate(STRATEGIES):
        deviation = abs(counts[strategy] / draws - probs[k])
        max_dev = max(max_dev, deviation)
        if deviation > tolerance:
            failures.append(
                f"{strategy.value}: frequency {counts[strategy] / draws:.4f} vs target {probs[k]:.4f}"
            )
    return OracleReport(
        max_abs_deviation=max_dev,
        cases_run=draws,
        failures=failures,
        tolerance=tolerance,
    )


def reference_parse_trace(path: str | Path, fmt: TraceFormat) -> tuple[tuple[float, float], ...]:
    """Row-by-row reference for `trace_io.parse_trace`: sorted (timestamp,
    mean) pairs. Each row is checked as it is read, so the first faulty row
    raises. Duplicates are averaged with sequential `+=` sums in file order
    (`sum()` compensates from Python 3.12 on)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter=fmt.delimiter))
    if fmt.header and not rows:
        raise EmptyTraceError(f"no rows in {path}")
    fieldnames = [c.strip() for c in rows.pop(0)] if fmt.header else None
    t_idx = _resolve_column(fmt.timestamp_col, fieldnames, "timestamp")
    v_idx = _resolve_column(fmt.value_col, fieldnames, "value")
    by_time: dict[float, list[float]] = {}
    for row_index, row in enumerate(rows, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(t_idx, v_idx):
            raise MalformedRowError(row_index, "too few columns")
        try:
            t, v = float(row[t_idx]), float(row[v_idx])
        except (IndexError, ValueError) as exc:  # IndexError: a negative index past a short row
            raise MalformedRowError(row_index, str(exc))
        if not (math.isfinite(t) and math.isfinite(v)) or v < 0:
            raise MalformedRowError(row_index, "non-finite or negative sample")
        by_time.setdefault(t, []).append(v)
    if not by_time:
        raise EmptyTraceError(f"no data rows in {path}")
    samples = []
    for t, vs in sorted(by_time.items()):
        total = 0.0
        for v in vs:
            total += v
        samples.append((t, total / len(vs)))
    return tuple(samples)
