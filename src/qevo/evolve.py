"""Self-adaptive evolutionary trainer for qubit-network genomes.

Each generation every candidate is perturbed by one of three
difference-vector strategies (rand-one, current-to-best, best-one) picked by
roulette wheel over self-adapting probabilities, recombined with its parent
through a variable-width neuron-bundle crossover, and kept only if a child
matches or beats it (elitist adoption, so the population best never gets
worse). Success/failure counters per strategy re-derive the selection
probabilities at the end of every generation.

A generation runs in three phases: vary every candidate (strategy, rate,
modulation, recombination), evaluate every child, then select every
survivor and update the counters, each phase in candidate order.

Determinism: every random draw for candidate i in generation g comes from a
stream seeded by (seed, g, i), so a candidate's step depends on nothing but
the generation it starts from and the probabilities fixed at its start, and
results are bit-identical across runs.
"""

from __future__ import annotations

import base64
import enum
import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import network
from .dataset import WindowedDataset
from .errors import (
    CheckpointFormatError,
    GenomeFormatError,
    MonotonicityViolationError,
    PopulationTooSmallError,
)
from .metrics import rmse
from .network import HALF_PI, Architecture, NetworkGenome, layout


class Strategy(enum.Enum):
    """Difference-vector perturbation strategies (classic DE lineage)."""

    RAND_ONE = "rand-one"
    CURRENT_TO_BEST = "current-to-best"
    BEST_ONE = "best-one"


STRATEGIES = (Strategy.RAND_ONE, Strategy.CURRENT_TO_BEST, Strategy.BEST_ONE)


class TrainingMode(str, enum.Enum):
    FULL = "full"            # structure and parameters both evolve
    FIXED_ARCH = "fixed-arch"  # one shared architecture, parameters evolve
    FIXED_ALL = "fixed-all"    # random initialization only, no operators


@dataclass
class StrategyState:
    """Selection probabilities plus per-strategy success/failure counters."""

    probs: tuple[float, float, float] = (0.33, 0.33, 0.34)
    successes: list[int] = field(default_factory=lambda: [0, 0, 0])
    failures: list[int] = field(default_factory=lambda: [0, 0, 0])


@dataclass
class Population:
    candidates: list[NetworkGenome]
    fitness: np.ndarray

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitness))

    @property
    def best(self) -> NetworkGenome:
        return self.candidates[self.best_index]

    @property
    def best_fitness(self) -> float:
        return float(self.fitness[self.best_index])


@dataclass(frozen=True)
class TrainingConfig:
    population_size: int = 80
    generations: int = 50
    window_size: int = 10
    hidden_range: tuple[int, int] = (5, 10)
    depth_range: tuple[int, int] = (1, 4)
    seed: int = 0
    mode: TrainingMode = TrainingMode.FULL

    def __post_init__(self):
        object.__setattr__(self, "mode", TrainingMode(self.mode))
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4 (modulation needs donors)")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        for lo, hi in (self.hidden_range, self.depth_range):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must satisfy 1 <= lo <= hi")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class TrainingRun:
    """Everything a run carries from one generation to the next.

    `train` advances one record in place, saves it as the per-generation
    checkpoint and returns it; a resumed run starts from a copy of one. The
    report's other fields (best fitness, final probabilities and
    architectures, population size, generations run) are derived from it.
    """

    seed: int
    mode: str
    population: Population
    fitness_trajectory: list[float]
    degenerate_args: int
    next_generation: int = 1
    state: StrategyState = field(default_factory=StrategyState)
    probability_trajectory: list[tuple[float, float, float]] = field(default_factory=list)
    success_totals: dict[str, int] = field(
        default_factory=lambda: {s.value: 0 for s in STRATEGIES}
    )

    @property
    def best_fitness(self) -> float:
        return self.population.best_fitness

    @property
    def final_architectures(self) -> list[list[int]]:
        return [list(g.architecture.hidden_widths) for g in self.population.candidates]

    def to_dict(self) -> dict:
        """The report's "training" section."""
        return {
            "mode": self.mode,
            "seed": self.seed,
            "population_size": len(self.population.candidates),
            "generations": self.next_generation - 1,
            "best_fitness": self.best_fitness,
            "fitness_trajectory": self.fitness_trajectory,
            "probability_trajectory": [list(p) for p in self.probability_trajectory],
            "final_probabilities": list(self.state.probs),
            "success_totals": self.success_totals,
            "degenerate_args": self.degenerate_args,
            "final_architectures": self.final_architectures,
        }


class DatasetFitness:
    """Training-set RMSE of a genome's predictions; the trainer's objective.

    Input states are genome-independent, so they are encoded once and shared
    across all candidate evaluations.
    """

    def __init__(self, data: WindowedDataset):
        self._states = network.input_states(data.inputs)
        self._targets = np.asarray(data.targets, dtype=float)

    def __call__(self, genome: NetworkGenome) -> tuple[float, int]:
        diag = network.ForwardDiagnostics()
        preds = network.forward_states(genome, self._states, diag)
        return rmse(self._targets, preds), diag.degenerate_args


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
# np.random.SeedSequence's hash and mix constants, and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _streams(seed: int, generation: int, indices: range):
    """Yield, for each i in `indices` (each below 2**32), a generator in the
    state of np.random.default_rng(np.random.SeedSequence((seed, generation, i))).

    SeedSequence's mix_entropy and generate_state(4, uint64) run for all
    indices at once in uint32; PCG64 then seeds from the words v as
    inc = 2*v[2:4] + 1, state = (v[0:2] + inc) * mult + inc, mod 2**128. One
    Generator is reseeded in place each time, so finish with a stream before
    drawing the next. It exists for speed: 4,080 streams took 46-58 ms, and
    default_rng((seed, generation, i)) 89-129 ms, on a 2-core x86 host.
    """
    if indices and max(indices) > _MASK32:
        raise ValueError("stream indices must be below 2**32")
    # An int is its little-endian 32-bit words; 0 is one word.
    entropy = [
        np.full(len(indices), n >> shift & _MASK32, np.uint32)
        for n in (seed, generation)
        for shift in range(0, max(n.bit_length(), 1), 32)
    ] + [np.asarray(indices, dtype=np.uint32)]
    const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(dst: int, value: np.ndarray) -> None:
        pool[dst] = pool[dst] * _MIX_L - hashmix(value) * _MIX_R
        pool[dst] ^= pool[dst] >> 16

    pool = [hashmix(word) for word in (entropy + [np.zeros_like(entropy[-1])])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    # Entropy longer than the pool: a seed or generation of 2**32 or more.
    for word, dst in itertools.product(entropy[4:], range(4)):
        mix(dst, word)
    const, mult = _INIT_B, _MULT_B
    words = np.array([hashmix(pool[k % 4]) for k in range(8)], dtype=np.uint64)
    halves = (words[0::2] | words[1::2] << 32).tolist()

    rng = np.random.Generator(np.random.PCG64(0))
    for hi, lo, inc_hi, inc_lo in zip(*halves):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((hi << 64 | lo) + inc) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def sample_modulation_rate(rng: np.random.Generator) -> float:
    """Normal(0.5, 0.3) redrawn until strictly inside (0, 1)."""
    while True:
        rate = rng.normal(0.5, 0.3)
        if 0.0 < rate < 1.0:
            return float(rate)


def select_strategy(mss: float, state: StrategyState) -> Strategy:
    """Roulette wheel over the three strategy probabilities."""
    t1, t2, _ = state.probs
    if 0.0 < mss <= t1:
        return Strategy.RAND_ONE
    if t1 < mss <= t1 + t2:
        return Strategy.CURRENT_TO_BEST
    return Strategy.BEST_ONE


def update_probabilities(state: StrategyState) -> StrategyState:
    """Re-derive selection probabilities from the generation's counters.

    Success counts are Laplace-smoothed (+1) so the shared denominator stays
    positive and no strategy is ever starved; counters reset afterwards.
    """
    eps = [s + 1 for s in state.successes]
    tau = list(state.failures)
    st = (
        2.0 * (eps[1] * eps[2] + eps[0] * eps[2] + eps[0] * eps[1])
        + tau[0] * (eps[1] + eps[2])
        + tau[1] * (eps[0] + eps[2])
        + tau[2] * (eps[0] + eps[1])
    )
    t1 = eps[0] * (eps[1] + tau[1] + eps[2] + tau[2]) / st
    t2 = eps[1] * (eps[0] + tau[0] + eps[2] + tau[2]) / st
    t3 = max(0.0, 1.0 - t1 - t2)
    return StrategyState(probs=(t1, t2, t3))


@functools.lru_cache(maxsize=256)
def _aligned(base: Architecture, other: Architecture) -> np.ndarray:
    """For every entry of a `base` genome, the entry of an `other` genome in
    the same block at the same offset, or -1 where the other's block is
    shorter or missing. Read-only, cached per architecture pair."""
    spans = {(t, kind): sl for t, kind, sl in layout(other).blocks()}
    index = np.full(layout(base).total_length, -1, dtype=np.int32)
    for t, kind, sl in layout(base).blocks():
        if (t, kind) in spans:
            theirs = spans[t, kind]
            length = min(sl.stop - sl.start, theirs.stop - theirs.start)
            index[sl.start : sl.start + length] = np.arange(theirs.start, theirs.start + length)
    index.setflags(write=False)
    return index


def _combine_blockwise(
    base: NetworkGenome,
    terms: list[tuple[float, NetworkGenome, NetworkGenome]],
) -> np.ndarray:
    """base + sum(coeff * (a - b)) aligned block by block.

    Donor architectures may differ from the base; each block contributes only
    on the overlapping prefix shared by every participant, and positions any
    donor lacks keep the base entry.
    """
    arch = base.architecture
    out = base.phases.copy()
    if all(g.architecture == arch for _, a, b in terms for g in (a, b)):
        for coeff, a, b in terms:
            out += coeff * (a.phases - b.phases)
        return out
    maps = [(_aligned(arch, a.architecture), _aligned(arch, b.architecture)) for _, a, b in terms]
    shared = np.flatnonzero(functools.reduce(np.minimum, [m for pair in maps for m in pair]) >= 0)
    value = out[shared]
    for (coeff, a, b), (map_a, map_b) in zip(terms, maps):
        value += coeff * (a.phases[map_a[shared]] - b.phases[map_b[shared]])
    out[shared] = value
    return out


def modulate(
    strategy: Strategy,
    index: int,
    population: Population,
    best: NetworkGenome,
    rate: float,
    rng: np.random.Generator,
) -> NetworkGenome:
    """Produce the perturbed genome for one candidate.

    Three mutually distinct donors (all != index) are drawn; the perturbed
    genome inherits the base vector's architecture (the donor for rand-one,
    the candidate for current-to-best, the best-so-far for best-one).
    """
    n = len(population.candidates)
    if n < 4:
        raise PopulationTooSmallError(f"population of {n} cannot supply 3 distinct donors")
    picks = rng.choice(n - 1, size=3, replace=False).tolist()
    r1, r2, r3 = (population.candidates[j + (j >= index)] for j in picks)
    current = population.candidates[index]

    if strategy is Strategy.RAND_ONE:
        base, terms = r1, [(rate, r2, r3)]
    elif strategy is Strategy.CURRENT_TO_BEST:
        base, terms = current, [(rate, best, current), (rate, r1, r2)]
    else:
        base, terms = best, [(rate, r1, r2)]
    return NetworkGenome(base.architecture, _combine_blockwise(base, terms))


@functools.lru_cache(maxsize=256)
def _splice_plan(
    p_arch: Architecture,
    d_arch: Architecture,
    level: int,
    keep: int,
    donor_cut: int,
) -> tuple[Architecture, np.ndarray, tuple[int, ...]]:
    """The child architecture of `_splice`, the source of every child entry,
    and the sizes of the random pads, cached per argument tuple.

    Sources index the primary's phases, then the donor's, then the pads in
    the order they are drawn; a pad is drawn row after row.
    """
    new_width = keep + (d_arch.hidden_widths[level - 1] - donor_cut)
    hidden = list(p_arch.hidden_widths)
    hidden[level - 1] = new_width
    child_arch = Architecture(p_arch.input_width, tuple(hidden))

    lay_c = layout(child_arch)
    lay_p = layout(p_arch)
    lay_d = layout(d_arch)
    primary = np.arange(lay_p.total_length)
    donor = np.arange(lay_p.total_length, lay_p.total_length + lay_d.total_length)
    source = np.empty(lay_c.total_length, dtype=np.int32)
    pads: list[int] = []

    def fit_rows(rows: np.ndarray, length: int) -> np.ndarray:
        """Truncate or pad every transferred row to a new length."""
        short = length - rows.shape[1]
        if short <= 0:
            return rows[:, :length]
        start = lay_p.total_length + lay_d.total_length + sum(pads)
        pads.append(rows.shape[0] * short)
        pad = np.arange(start, start + pads[-1]).reshape(rows.shape[0], short)
        return np.concatenate([rows, pad], axis=1)

    # Everything before the level's incoming weights, and everything after its
    # outgoing weights (the next layer's bias/reversal blocks onward), comes
    # from the primary parent, at the same offsets counted from the front and
    # from the back.
    t_in, t_out = level - 1, level
    head = lay_c.transitions[t_in].weight_start
    source[:head] = primary[:head]
    tail = lay_c.total_length - lay_c.transitions[t_out].weight_slice.stop
    source[lay_c.total_length - tail :] = primary[lay_p.total_length - tail :]

    # Incoming transition: columns are the level's neurons. `w` is a view, so
    # the sources are written straight into `source`.
    seg, p_seg, d_seg = (lay.transitions[t_in] for lay in (lay_c, lay_p, lay_d))
    w = source[seg.weight_slice].reshape(seg.w_in, seg.w_out)
    wp = primary[p_seg.weight_slice].reshape(p_seg.w_in, p_seg.w_out)
    wd = donor[d_seg.weight_slice].reshape(d_seg.w_in, d_seg.w_out)
    w[:, :keep] = wp[:, :keep]
    w[:, keep:] = fit_rows(wd[:, donor_cut:].T, seg.w_in).T
    for c0, p0, d0 in (
        (seg.bias_start, p_seg.bias_start, d_seg.bias_start),
        (seg.rev_start, p_seg.rev_start, d_seg.rev_start),
    ):
        source[c0 : c0 + keep] = primary[p0 : p0 + keep]
        source[c0 + keep : c0 + seg.w_out] = donor[d0 + donor_cut : d0 + d_seg.w_out]

    # Outgoing transition: rows are the level's neurons.
    seg, p_seg, d_seg = (lay.transitions[t_out] for lay in (lay_c, lay_p, lay_d))
    w = source[seg.weight_slice].reshape(seg.w_in, seg.w_out)
    wp = primary[p_seg.weight_slice].reshape(p_seg.w_in, p_seg.w_out)
    wd = donor[d_seg.weight_slice].reshape(d_seg.w_in, d_seg.w_out)
    w[:keep, :] = wp[:keep, :]
    w[keep:, :] = fit_rows(wd[donor_cut:, :], seg.w_out)

    source.setflags(write=False)
    return child_arch, source, tuple(pads)


def _splice(
    primary: NetworkGenome,
    donor: NetworkGenome,
    level: int,
    keep: int,
    donor_cut: int,
    rng: np.random.Generator,
) -> NetworkGenome:
    """Child keeping `primary`'s depth, with hidden layer `level` rebuilt from
    primary bundles [1..keep] followed by donor bundles [donor_cut+1..].
    Transferred rows are truncated or padded with uniform draws in
    [-pi/2, pi/2] to the child's adjacent-layer widths."""
    child_arch, source, pads = _splice_plan(
        primary.architecture, donor.architecture, level, keep, donor_cut
    )
    draws = [rng.uniform(-HALF_PI, HALF_PI, size) for size in pads]
    # Every entry is a validated parent's phase or a finite draw, and the
    # plan gives the layout's length, so the child skips re-validation.
    phases = np.concatenate([primary.phases, donor.phases, *draws])[source]
    return NetworkGenome._trusted(child_arch, phases)


def recombine(
    parent1: NetworkGenome,
    parent2: NetworkGenome,
    rng: np.random.Generator,
) -> tuple[NetworkGenome, NetworkGenome]:
    """Swap whole-neuron bundles at one hidden level shared by both parents.

    One relative cut position is mapped onto both parents' widths
    (c = floor(u*p) + 1), so recombining a genome with itself returns
    bit-equal copies while different widths still exchange variable-size
    tails. Transferred weight columns/rows are truncated or random-padded to
    the child's adjacent-layer widths; each child keeps its primary parent's
    depth.
    """
    shared_depth = min(parent1.architecture.depth, parent2.architecture.depth)
    level = int(rng.integers(1, shared_depth + 1))
    u = rng.random()
    p1 = parent1.architecture.hidden_widths[level - 1]
    p2 = parent2.architecture.hidden_widths[level - 1]
    c1 = int(u * p1) + 1
    c2 = int(u * p2) + 1
    child1 = _splice(parent1, parent2, level, c1, c2, rng)
    child2 = _splice(parent2, parent1, level, c2, c1, rng)
    return child1, child2


def select_survivor(
    current: tuple[NetworkGenome, float],
    children: list[tuple[NetworkGenome, float]],
) -> tuple[NetworkGenome, float, bool]:
    """Elitist adoption: the best child replaces the parent only if its
    fitness is less than or equal; ties among children go to the first."""
    for _, fit in (current, *children):
        if not math.isfinite(fit):
            raise ValueError(f"non-finite fitness {fit}")
    best_child, best_fit = children[0]
    for genome, fit in children[1:]:
        if fit < best_fit:
            best_child, best_fit = genome, fit
    if best_fit <= current[1]:
        return best_child, best_fit, True
    return current[0], current[1], False


def _sample_architecture(config: TrainingConfig, rng: np.random.Generator) -> Architecture:
    depth = int(rng.integers(config.depth_range[0], config.depth_range[1] + 1))
    widths = rng.integers(
        config.hidden_range[0], config.hidden_range[1] + 1, size=depth
    )
    return Architecture(config.window_size, tuple(int(w) for w in widths))


def init_population(config: TrainingConfig, fitness_fn) -> tuple[Population, int]:
    """Generation-0 population: sampled architectures (one shared architecture
    in the fixed modes), random genomes, fitness evaluated."""
    shared, p = None, config.population_size
    if config.mode is not TrainingMode.FULL:
        shared = _sample_architecture(config, next(_streams(config.seed, 0, range(p, p + 1))))
    candidates = []
    for rng in _streams(config.seed, 0, range(p)):
        arch = shared if shared is not None else _sample_architecture(config, rng)
        candidates.append(network.random_genome(arch, rng))
    results = [fitness_fn(g) for g in candidates]
    fitness = np.array([fit for fit, _ in results])
    degenerate = sum(deg for _, deg in results)
    return Population(candidates, fitness), degenerate


_CHECKPOINT_SCHEMA = "qevo.checkpoint/1"


def save_checkpoint(checkpoint: TrainingRun, path: str | Path) -> None:
    payload = {
        "schema": _CHECKPOINT_SCHEMA,
        "seed": checkpoint.seed,
        "mode": checkpoint.mode,
        "next_generation": checkpoint.next_generation,
        "probabilities": list(checkpoint.state.probs),
        "successes": list(checkpoint.state.successes),
        "failures": list(checkpoint.state.failures),
        "fitness_trajectory": checkpoint.fitness_trajectory,
        "probability_trajectory": [list(p) for p in checkpoint.probability_trajectory],
        "success_totals": checkpoint.success_totals,
        "degenerate_args": checkpoint.degenerate_args,
        "population": [
            {
                "genome": base64.b64encode(network.genome_to_bytes(g)).decode("ascii"),
                "fitness": float(f),
            }
            for g, f in zip(checkpoint.population.candidates, checkpoint.population.fitness)
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _numbers(values: list, kind: type, length: int | None = None) -> list:
    """`values` as `kind`s; TypeError unless every one is a JSON number
    (an integer where `kind` is int) and there are `length` of them."""
    allowed = (int, float) if kind is float else int
    if (length is not None and len(values) != length) or any(
        isinstance(v, bool) or not isinstance(v, allowed) for v in values
    ):
        raise TypeError(f"expected {length or 'a list of'} {kind.__name__} values, got {values!r}")
    return [kind(v) for v in values]


def load_checkpoint(path: str | Path) -> TrainingRun:
    """Read a `save_checkpoint` file. A missing key, a value of the wrong
    type, bad base64 or a bad genome raises CheckpointFormatError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(payload, dict) or payload.get("schema") != _CHECKPOINT_SCHEMA:
        raise CheckpointFormatError(f"{path} is not a {_CHECKPOINT_SCHEMA} file")
    try:
        entries = payload["population"]
        candidates = [
            network.genome_from_bytes(base64.b64decode(e["genome"], validate=True)) for e in entries
        ]
        fitness = np.array(_numbers([e["fitness"] for e in entries], float))
        seed, next_generation, degenerate = _numbers(
            [payload[k] for k in ("seed", "next_generation", "degenerate_args")], int
        )
        names = [s.value for s in STRATEGIES]
        return TrainingRun(
            seed=seed,
            mode=TrainingMode(payload["mode"]).value,
            next_generation=next_generation,
            state=StrategyState(
                probs=tuple(_numbers(payload["probabilities"], float, 3)),
                successes=_numbers(payload["successes"], int, 3),
                failures=_numbers(payload["failures"], int, 3),
            ),
            population=Population(candidates, fitness),
            fitness_trajectory=_numbers(payload["fitness_trajectory"], float),
            probability_trajectory=[
                tuple(_numbers(p, float, 3)) for p in payload["probability_trajectory"]
            ],
            success_totals=dict(
                zip(names, _numbers([payload["success_totals"][n] for n in names], int))
            ),
            degenerate_args=degenerate,
        )
    except (KeyError, TypeError, ValueError, GenomeFormatError) as exc:
        raise CheckpointFormatError(f"bad checkpoint {path}: {exc}") from exc


def _resumed(resume: TrainingRun, config: TrainingConfig) -> TrainingRun:
    """A copy of `resume` that `train` may advance, after checking that it
    belongs to `config`'s run."""
    expected = (config.seed, config.mode.value, config.population_size, {config.window_size})
    found = (
        resume.seed,
        resume.mode,
        len(resume.population.candidates),
        {g.architecture.input_width for g in resume.population.candidates},
    )
    if found != expected or not 1 <= resume.next_generation <= config.generations + 1:
        raise CheckpointFormatError(
            f"checkpoint (seed, mode, population, input widths) {found} at generation "
            f"{resume.next_generation} does not fit the config's {expected} over "
            f"{config.generations} generations"
        )
    state = resume.state
    return replace(
        resume,
        state=StrategyState(state.probs, list(state.successes), list(state.failures)),
        fitness_trajectory=list(resume.fitness_trajectory),
        probability_trajectory=list(resume.probability_trajectory),
        success_totals=dict(resume.success_totals),
    )


def train(
    config: TrainingConfig,
    train_data: WindowedDataset,
    *,
    checkpoint_dir: str | Path | None = None,
    resume: TrainingRun | None = None,
) -> tuple[NetworkGenome, TrainingRun]:
    """Run the training loop; return the best genome and the run record.

    Fitness is training-set RMSE over `train_data` (`DatasetFitness`). The
    record's `to_dict()` is the report's "training" section.
    `checkpoint_dir` (created first, parents included) receives the record
    after every generation as `checkpoint_gen<g>.json`. `resume` (a
    `load_checkpoint` result, left unchanged) continues from a copy of it and
    reproduces the uninterrupted run exactly; it raises CheckpointFormatError
    unless the checkpoint's seed, mode, population size, genome input width
    and generation fit `config`.
    """
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    fitness_fn = DatasetFitness(train_data)
    if resume is None:
        population, degenerate = init_population(config, fitness_fn)
        run = TrainingRun(
            config.seed, config.mode.value, population, [population.best_fitness], degenerate
        )
    else:
        run = _resumed(resume, config)

    for gen in range(run.next_generation, config.generations + 1):
        if config.mode is not TrainingMode.FIXED_ALL:
            population, state = run.population, run.state
            # Vary: strategy, perturbed genome and two children per candidate.
            best = population.best
            steps = []
            for i, rng in enumerate(_streams(config.seed, gen, range(config.population_size))):
                strategy = select_strategy(float(rng.random()), state)
                rate = sample_modulation_rate(rng)
                delta = modulate(strategy, i, population, best, rate, rng)
                steps.append((strategy, recombine(population.candidates[i], delta, rng)))
            # Evaluate: every child, scored as soon as its pass returns.
            scores = [[fitness_fn(child) for child in pair] for _, pair in steps]
            # Select: elitist adoption and the strategy counters.
            candidates = []
            fitness = np.empty(config.population_size)
            for i, ((strategy, pair), scored) in enumerate(zip(steps, scores)):
                genome, fitness[i], succeeded = select_survivor(
                    (population.candidates[i], float(population.fitness[i])),
                    [(child, fit) for child, (fit, _) in zip(pair, scored)],
                )
                candidates.append(genome)
                run.degenerate_args += sum(deg for _, deg in scored)
                k = STRATEGIES.index(strategy)
                if succeeded:
                    state.successes[k] += 1
                    run.success_totals[strategy.value] += 1
                else:
                    state.failures[k] += 1
            run.population = Population(candidates, fitness)
            run.state = update_probabilities(state)
            run.probability_trajectory.append(run.state.probs)
        run.fitness_trajectory.append(run.best_fitness)
        run.next_generation = gen + 1
        if checkpoint_dir is not None:
            save_checkpoint(run, checkpoint_dir / f"checkpoint_gen{gen:04d}.json")

    return run.population.best, run


def convergence_monitor(trajectory: list[float]) -> None:
    """Raise MonotonicityViolationError if the best-fitness trajectory ever
    rises (that would mean the elitist adoption rule was broken)."""
    for prev, cur in zip(trajectory, trajectory[1:]):
        if cur > prev:
            raise MonotonicityViolationError(f"best fitness rose from {prev} to {cur}")
