"""Self-adaptive evolutionary trainer for qubit-network genomes.

Each generation every candidate is perturbed by one of three
difference-vector strategies (rand-one, current-to-best, best-one) picked by
roulette wheel over self-adapting probabilities, recombined with its parent
through a variable-width neuron-bundle crossover, and kept only if a child
matches or beats it (elitist adoption, so the population best never gets
worse). Each generation's success/failure count per strategy re-derives
the selection probabilities for the next.

A generation runs in three phases: vary every candidate, evaluate every
child, then select every survivor. Its outcome is one frozen `TrainingRun`.
Varying is a draw pass (`draw_terms`, `draw_crossing`), one array pass
building every perturbed genome (`modulate`), then `recombine` per candidate.
Evaluating is one call of `train`'s scorer, which runs
`network.forward_grouped` over the children not scored yet, by architecture
group. A child that is its candidate reuses its (fitness, degenerate args).

Determinism: every random draw for candidate i in generation g comes from a
stream seeded by (seed, g, i), so a candidate's step depends on nothing but
the generation it starts from and the probabilities fixed at its start, and
results are bit-identical across runs. A stream draws its whole sequence in
the draw pass, never pausing: wheel, rate, donors, then the crossing's
level, cut and pads, whose sizes depend on architectures alone.
"""

from __future__ import annotations

import base64
import enum
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
from .network import HALF_PI, Architecture, NetworkGenome


class Strategy(enum.Enum):
    """Difference-vector perturbation strategies (classic DE lineage)."""

    RAND_ONE = "rand-one"
    CURRENT_TO_BEST = "current-to-best"
    BEST_ONE = "best-one"


STRATEGIES = (Strategy.RAND_ONE, Strategy.CURRENT_TO_BEST, Strategy.BEST_ONE)
INITIAL_PROBABILITIES = (0.33, 0.33, 0.34)  # generation 1's, before any counts exist


class TrainingMode(str, enum.Enum):
    FULL = "full"            # structure and parameters both evolve
    FIXED_ARCH = "fixed-arch"  # one shared architecture, parameters evolve
    FIXED_ALL = "fixed-all"    # random initialization only, no operators


@dataclass(frozen=True)
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


# The most phases a population may hold (128 MiB). A run's peak is a few times
# that: the parents, their perturbed genomes and children, the forward pass's
# blocks, and the cached forward plans: up to 64 MiB of plans of genomes of
# at most 2**13 phases, and one larger plan (network._plan).
MAX_POPULATION_PHASES = 2**24


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
        # The widest, deepest genome's length in closed form (input transition, depth - 1
        # hidden ones, output). It is at least 5, so P also stays below _streams' 2**32.
        w, (_, h), (_, d) = self.window_size, self.hidden_range, self.depth_range
        phases = self.population_size * ((w + 2) * h + (d - 1) * (h + 2) * h + h + 1)
        if phases > MAX_POPULATION_PHASES:
            raise ValueError(f"population_size times the largest genome the ranges allow is "
                             f"{phases} phases, above {MAX_POPULATION_PHASES}")


@dataclass(frozen=True)
class TrainingRun:
    """Everything a run carries from one generation to the next.

    One frozen record per generation: `train` builds each from the last,
    saves it as the generation's checkpoint and returns the final one; a
    resumed run starts from a loaded one as it is. The report's other fields
    (best fitness, final architectures, population size, generations run)
    are derived from it.
    """

    seed: int
    mode: str
    population: Population
    fitness_trajectory: tuple[float, ...]
    degenerate_args: int
    probability_trajectory: tuple[tuple[float, float, float], ...] = ()
    success_totals: dict[str, int] = field(default_factory=lambda: {s.value: 0 for s in STRATEGIES})

    @property
    def next_generation(self) -> int:
        """The trajectory holds generation 0's best and one entry per generation run."""
        return len(self.fitness_trajectory)

    @property
    def probabilities(self) -> tuple[float, float, float]:
        """The strategy probabilities the next generation selects with."""
        return self.probability_trajectory[-1] if self.probability_trajectory else INITIAL_PROBABILITIES

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
            "probability_trajectory": self.probability_trajectory,
            "final_probabilities": self.probabilities,
            "success_totals": self.success_totals,
            "degenerate_args": self.degenerate_args,
            "final_architectures": self.final_architectures,
        }


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
# np.random.SeedSequence's hash and mix constants, and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _streams(seed: int, generation: int, indices: range):
    """Yield, for each i in `indices` (an ascending range below 2**32), a
    generator in the state of
    np.random.default_rng(np.random.SeedSequence((seed, generation, i))).

    SeedSequence's mix_entropy and generate_state(4, uint64) run for all
    indices at once in uint32; PCG64 then seeds from the words v as
    inc = 2*v[2:4] + 1, state = (v[0:2] + inc) * mult + inc, mod 2**128. One
    Generator is reseeded in place each time, so a stream's draws end before
    the next stream starts. It exists for speed: 4,080 streams took 46-58 ms,
    and default_rng((seed, generation, i)) 89-129 ms, on a 2-core x86 host.
    """
    if indices and indices[-1] > _MASK32:
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


def select_strategy(mss: float, probs: tuple[float, float, float]) -> Strategy:
    """Roulette wheel over the three strategy probabilities."""
    t1, t2, _ = probs
    if 0.0 < mss <= t1:
        return Strategy.RAND_ONE
    if t1 < mss <= t1 + t2:
        return Strategy.CURRENT_TO_BEST
    return Strategy.BEST_ONE


def update_probabilities(successes: list[int], failures: list[int]) -> tuple[float, float, float]:
    """Selection probabilities from one generation's per-strategy counts.

    Success counts are Laplace-smoothed (+1) so the shared denominator stays
    positive and no strategy is ever starved.
    """
    eps = [s + 1 for s in successes]
    tau = failures
    st = (
        2.0 * (eps[1] * eps[2] + eps[0] * eps[2] + eps[0] * eps[1])
        + tau[0] * (eps[1] + eps[2])
        + tau[1] * (eps[0] + eps[2])
        + tau[2] * (eps[0] + eps[1])
    )
    t1 = eps[0] * (eps[1] + tau[1] + eps[2] + tau[2]) / st
    t2 = eps[1] * (eps[0] + tau[0] + eps[2] + tau[2]) / st
    t3 = max(0.0, 1.0 - t1 - t2)
    return t1, t2, t3


# A perturbed genome in population indices: its base and its (rate, a, b) terms, in order.
Terms = tuple[int, tuple[tuple[float, int, int], ...]]


def draw_terms(strategy: Strategy, index: int, population: Population, best: int, rate: float,
               rng: np.random.Generator) -> Terms:
    """Draw three mutually distinct donors (all != index) for one candidate
    and return its `Terms`. The base is the first donor for rand-one, the
    candidate for current-to-best, and the best candidate `best` for best-one."""
    n = len(population.candidates)
    if n < 4:
        raise PopulationTooSmallError(f"population of {n} cannot supply 3 distinct donors")
    r1, r2, r3 = (j + (j >= index) for j in rng.choice(n - 1, size=3, replace=False).tolist())
    if strategy is Strategy.RAND_ONE:
        return r1, ((rate, r2, r3),)
    if strategy is Strategy.CURRENT_TO_BEST:
        return index, ((rate, best, index), (rate, r1, r2))
    return best, ((rate, r1, r2),)


def modulate(population: Population, terms: list[Terms]) -> list[NetworkGenome]:
    """Every candidate's perturbed genome, base + sum(c * (a - b)) over its
    `Terms`, in one array pass. A block is a transition's weights, its bias or
    its reversals. In each block the terms add, in order, on the prefix that
    the base and every donor have at the same flat offset; the other entries
    keep the base's, as does the architecture. A non-finite phase raises
    ValueError."""

    def runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:  # each [start, start + length), in turn
        return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())

    archs = [g.architecture for g in population.candidates]
    depth = max(a.depth for a in archs)
    widths = np.array([a.widths + (0,) * (depth + 1 - a.depth) for a in archs])
    # Each genome's block lengths in order (0 past its last; no bias into the
    # output), and where each block starts in the genomes laid end to end.
    w_in, w_out = widths[:, :-2], widths[:, 1:-1]
    lengths = np.stack((w_in * w_out, w_out * (widths[:, 2:] > 0), w_out), axis=2).reshape(len(archs), -1)
    starts = (np.cumsum(lengths) - lengths.ravel()).reshape(lengths.shape)
    flat = np.concatenate([g.phases for g in population.candidates])
    # Every term as (candidate, its place among the candidate's terms, rate,
    # a, b), and each (candidate, block) pair's shared length: the shortest
    # among the base and its donors.
    owner, place, rate, plus, minus = map(np.array, zip(
        *[(k, j, *term) for k, (_, ts) in enumerate(terms) for j, term in enumerate(ts)]))
    base = np.array([b for b, _ in terms])
    shared = lengths[base]
    sizes = shared.sum(axis=1)
    np.minimum.at(shared, owner, np.minimum(lengths[plus], lengths[minus]))
    out = flat[runs(starts[base, 0], sizes)]
    origin = starts[base] - starts[base, :1] + (np.cumsum(sizes) - sizes)[:, None]  # block starts in `out`
    for j in range(place.max() + 1):
        # Each candidate's j-th term, if it has one: adding 0.0 would turn -0.0 into 0.0.
        t, k = place == j, owner[place == j]
        count = shared[k].ravel()
        diff = flat[runs(starts[plus[t]].ravel(), count)] - flat[runs(starts[minus[t]].ravel(), count)]
        out[runs(origin[k].ravel(), count)] += np.repeat(rate[t], shared[k].sum(axis=1)) * diff
    if not np.isfinite(out).all():
        raise ValueError("genome phases must be finite")
    ends = np.cumsum(sizes).tolist()
    return [NetworkGenome._trusted(archs[k], out[end - size : end].copy())
            for k, size, end in zip(base.tolist(), sizes.tolist(), ends)]


# A candidate's recombination draws: hidden level, cuts c = floor(u*p) + 1 in
# the candidate and its perturbed genome, and each child's pads.
Crossing = tuple[int, tuple[int, int], tuple[np.ndarray, np.ndarray]]


def draw_crossing(first: Architecture, second: Architecture, rng: np.random.Generator) -> Crossing:
    """Draw a hidden level both architectures have, one relative cut position
    u mapped onto both widths, then in one uniform call both children's pads:
    each moved neuron's weights from, then to, the neurons its donor lacks."""
    level = int(rng.integers(1, min(first.depth, second.depth) + 1))
    u = rng.random()
    cuts = (int(u * first.hidden_widths[level - 1]) + 1, int(u * second.hidden_widths[level - 1]) + 1)
    p, d = first.widths, second.widths
    counts = [(y[level] - cut) * (max(x[level - 1] - y[level - 1], 0) + max(x[level + 1] - y[level + 1], 0))
              for x, y, cut in ((p, d, cuts[1]), (d, p, cuts[0]))]
    pads = rng.uniform(-HALF_PI, HALF_PI, sum(counts))
    return level, cuts, (pads[: counts[0]], pads[counts[0] :])


def _fit(rows: np.ndarray, length: int, pads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`rows` truncated, or padded row after row from the front of `pads`, to
    `length` columns; and the pads left."""
    short = length - rows.shape[1]
    if short <= 0:
        return rows[:, :length], pads
    used = rows.shape[0] * short
    return np.concatenate((rows, pads[:used].reshape(-1, short)), axis=1), pads[used:]


def _splice(
    primary: NetworkGenome,
    donor: NetworkGenome,
    level: int,
    keep: int,
    donor_cut: int,
    pads: np.ndarray,
) -> NetworkGenome:
    """Child keeping `primary`'s depth, with hidden layer `level` rebuilt from
    primary bundles [1..keep] followed by donor bundles [donor_cut+1..].
    Transferred rows are truncated, or padded from `pads`, to the child's
    adjacent-layer widths, the incoming transition's pad first. A child that
    keeps every primary bundle and takes none is `primary` itself."""
    p_arch, d_arch = primary.architecture, donor.architecture
    p_width, d_width = p_arch.hidden_widths[level - 1], d_arch.hidden_widths[level - 1]
    if keep == p_width and donor_cut == d_width:
        return primary
    hidden = list(p_arch.hidden_widths)
    hidden[level - 1] = keep + d_width - donor_cut
    p_in, p_out = primary.transitions[level - 1 : level + 1]
    d_in, d_out = donor.transitions[level - 1 : level + 1]

    # Incoming transition: columns are the level's neurons. A kept neuron
    # takes the primary's whole column; a donor neuron takes the donor's
    # weights, fitted to the child's source width, then its bias and reversal.
    n = len(p_in) - 2
    incoming = np.empty((n + 2, hidden[level - 1]))
    incoming[:, :keep] = p_in[:, :keep]
    weights, pads = _fit(d_in[:-2, donor_cut:].T, n, pads)
    incoming[:n, keep:] = weights.T
    incoming[n:, keep:] = d_in[-2:, donor_cut:]
    # Outgoing weights: rows are the level's neurons.
    outgoing = np.concatenate((p_out[:keep], _fit(d_out[donor_cut:d_width], p_out.shape[1], pads)[0]))

    # Everything before the incoming transition, and everything after the
    # outgoing weights (that transition's bias and reversal rows onward), is
    # the primary's.
    head = sum(m.size for m in primary.transitions[: level - 1])
    tail = head + p_in.size + p_in.shape[1] * p_out.shape[1]  # a weight row per level neuron
    phases = np.concatenate(
        (primary.phases[:head], incoming.ravel(), outgoing.ravel(), primary.phases[tail:])
    )
    # Every width and entry is a validated parent's or a finite draw, in the
    # layout's order, so the child skips re-validation.
    arch = p_arch if hidden[level - 1] == p_width else Architecture._trusted(p_arch.input_width, tuple(hidden))
    return NetworkGenome._trusted(arch, phases)


def recombine(
    parent1: NetworkGenome,
    parent2: NetworkGenome,
    crossing: Crossing,
) -> tuple[NetworkGenome, NetworkGenome]:
    """Swap whole-neuron bundles at the crossing's shared hidden level.

    One relative cut position is mapped onto both parents' widths
    (c = floor(u*p) + 1), so recombining a genome with itself returns
    bit-equal copies while different widths still exchange variable-size
    tails. Transferred weight columns/rows are truncated or padded to the
    child's adjacent-layer widths; each child keeps its primary parent's
    depth.
    """
    level, (c1, c2), (pads1, pads2) = crossing
    return _splice(parent1, parent2, level, c1, c2, pads1), _splice(parent2, parent1, level, c2, c1, pads2)


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


def init_population(config: TrainingConfig, score) -> tuple[Population, int]:
    """Generation-0 population: sampled architectures (one shared architecture
    in the fixed modes), random genomes, scored in one `score` call, which
    maps a list of genomes to their (fitness, degenerate args), as `train`'s
    scorer does."""
    shared, p = None, config.population_size
    if config.mode is not TrainingMode.FULL:
        shared = _sample_architecture(config, next(_streams(config.seed, 0, range(p, p + 1))))
    candidates = []
    for rng in _streams(config.seed, 0, range(p)):
        arch = shared if shared is not None else _sample_architecture(config, rng)
        candidates.append(network.random_genome(arch, rng))
    results = score(candidates)
    fitness = np.array([fit for fit, _ in results])
    degenerate = sum(deg for _, deg in results)
    return Population(candidates, fitness), degenerate


_CHECKPOINT_SCHEMA = "qevo.checkpoint/2"


def save_checkpoint(run: TrainingRun, path: str | Path) -> None:
    payload = {
        "schema": _CHECKPOINT_SCHEMA,
        "seed": run.seed,
        "mode": run.mode,
        "fitness_trajectory": run.fitness_trajectory,
        "probability_trajectory": run.probability_trajectory,
        "success_totals": run.success_totals,
        "degenerate_args": run.degenerate_args,
        "population": [
            {
                "genome": base64.b64encode(network.genome_to_bytes(g)).decode("ascii"),
                "fitness": float(f),
            }
            for g, f in zip(run.population.candidates, run.population.fitness)
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
    """Read a `save_checkpoint` file. Another schema, a missing key, a value of
    the wrong type, bad base64, a bad genome, an empty population or fitness
    trajectory, a probability trajectory not one entry per varied generation,
    or a last fitness not the population's best raises CheckpointFormatError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {exc}")
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != _CHECKPOINT_SCHEMA:
        raise CheckpointFormatError(f"{path} is schema {schema!r}, not {_CHECKPOINT_SCHEMA}")
    try:
        entries = payload["population"]
        candidates = [
            network.genome_from_bytes(base64.b64decode(e["genome"], validate=True)) for e in entries
        ]
        fitness = np.array(_numbers([e["fitness"] for e in entries], float))
        seed, degenerate = _numbers([payload[k] for k in ("seed", "degenerate_args")], int)
        names = [s.value for s in STRATEGIES]
        run = TrainingRun(
            seed=seed,
            mode=TrainingMode(payload["mode"]).value,
            population=Population(candidates, fitness),
            fitness_trajectory=tuple(_numbers(payload["fitness_trajectory"], float)),
            probability_trajectory=tuple(tuple(_numbers(p, float, 3)) for p in payload["probability_trajectory"]),
            success_totals=dict(zip(names, _numbers([payload["success_totals"][n] for n in names], int))),
            degenerate_args=degenerate,
        )
        if not candidates or not run.fitness_trajectory:
            raise ValueError("empty population or fitness trajectory")
        varied = 0 if run.mode == TrainingMode.FIXED_ALL else run.next_generation - 1
        if len(run.probability_trajectory) != varied:
            raise ValueError(f"probability trajectory of {len(run.probability_trajectory)} entries "
                             f"after {varied} varied generations")
        if run.fitness_trajectory[-1] != run.best_fitness:
            raise ValueError(f"last fitness {run.fitness_trajectory[-1]} is not the best {run.best_fitness}")
        return run
    except (KeyError, TypeError, ValueError, GenomeFormatError) as exc:
        raise CheckpointFormatError(f"bad checkpoint {path}: {exc}") from exc


def _check_resume(resume: TrainingRun, config: TrainingConfig) -> None:
    """Raise CheckpointFormatError unless `resume` belongs to `config`'s run."""
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


def _step(run: TrainingRun, gen: int, score) -> TrainingRun:
    """Generation `gen` of `run`. Its children live only in this call, so
    none is held while the next generation is varied."""
    population = run.population
    # Vary: each stream draws its candidate's strategy, rate, donors and
    # crossing (a perturbed genome has its base's architecture); one pass
    # perturbs every candidate, then each recombines with its perturbed genome.
    best, strategies, terms, crossings = population.best_index, [], [], []
    for i, rng in enumerate(_streams(run.seed, gen, range(len(population.candidates)))):
        strategies.append(select_strategy(float(rng.random()), run.probabilities))
        rate = sample_modulation_rate(rng)
        terms.append(draw_terms(strategies[-1], i, population, best, rate, rng))
        parent, base = population.candidates[i], population.candidates[terms[-1][0]]
        crossings.append(draw_crossing(parent.architecture, base.architecture, rng))
    pairs = [recombine(*crossed) for crossed in zip(population.candidates, modulate(population, terms), crossings)]
    del crossings  # and their pads, before the children are scored
    # Evaluate: a child that is its candidate reuses the candidate's score.
    scored = score([child for pair in pairs for child in pair])
    # Select: elitist adoption and each strategy's successes and failures.
    candidates, fitness = [], np.empty(len(pairs))
    successes, failures = [0, 0, 0], [0, 0, 0]
    for i, (strategy, pair) in enumerate(zip(strategies, pairs)):
        genome, fitness[i], succeeded = select_survivor(
            (population.candidates[i], float(population.fitness[i])),
            [(child, fit) for child, (fit, _) in zip(pair, scored[2 * i : 2 * i + 2])],
        )
        candidates.append(genome)
        (successes if succeeded else failures)[STRATEGIES.index(strategy)] += 1
    return replace(
        run, population=Population(candidates, fitness),
        probability_trajectory=(*run.probability_trajectory, update_probabilities(successes, failures)),
        success_totals={s.value: run.success_totals[s.value] + n for s, n in zip(STRATEGIES, successes)},
        degenerate_args=run.degenerate_args + sum(deg for _, deg in scored),
    )


def train(
    config: TrainingConfig,
    train_data: WindowedDataset,
    *,
    checkpoint_dir: str | Path | None = None,
    resume: TrainingRun | None = None,
) -> tuple[NetworkGenome, TrainingRun]:
    """Run the training loop; return the best genome and the run record.

    Fitness is the RMSE of a genome's predictions over `train_data`, whose
    input states are encoded once and shared by every genome. The record's
    `to_dict()` is the report's "training" section.
    `checkpoint_dir` (created first, parents included) receives the record
    after every generation as `checkpoint_gen<g>.json`. `resume` (a
    `load_checkpoint` result) continues from that record and reproduces the
    uninterrupted run exactly; it raises CheckpointFormatError
    unless the checkpoint's seed, mode, population size, genome input width
    and generation fit `config`.
    """
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    states, targets = network.input_states(train_data.inputs), train_data.targets
    known = {}  # id -> (genome, (fitness, degenerate args)), pruned to the population after each select

    def score(genomes: list[NetworkGenome]) -> list[tuple[float, int]]:
        fresh = list({id(g): g for g in genomes if id(g) not in known}.values())
        for i, preds, degenerate in network.forward_grouped(fresh, states):
            known[id(fresh[i])] = fresh[i], (rmse(targets, preds), degenerate)
        return [known[id(g)][1] for g in genomes]

    if resume is None:
        population, degenerate = init_population(config, score)
        run = TrainingRun(
            config.seed, config.mode.value, population, (population.best_fitness,), degenerate
        )
        del population  # `run` alone holds generation 0, so a genome goes once it is replaced
    else:
        _check_resume(resume, config)
        run = resume

    for gen in range(run.next_generation, config.generations + 1):
        if config.mode is not TrainingMode.FIXED_ALL:
            run = _step(run, gen, score)
            known = {id(g): known[id(g)] for g in run.population.candidates if id(g) in known}
        run = replace(run, fitness_trajectory=(*run.fitness_trajectory, run.best_fitness))
        if checkpoint_dir is not None:
            save_checkpoint(run, checkpoint_dir / f"checkpoint_gen{gen:04d}.json")

    return run.population.best, run


def convergence_monitor(trajectory: list[float]) -> None:
    """Raise MonotonicityViolationError if the best-fitness trajectory ever
    rises (that would mean the elitist adoption rule was broken)."""
    for prev, cur in zip(trajectory, trajectory[1:]):
        if cur > prev:
            raise MonotonicityViolationError(f"best fitness rose from {prev} to {cur}")
