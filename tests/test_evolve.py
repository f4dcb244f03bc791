import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import dataset, evolve
from qevo.errors import (
    CheckpointFormatError,
    MonotonicityViolationError,
    PopulationTooSmallError,
)
from qevo.evolve import (
    STRATEGIES,
    DatasetFitness,
    Population,
    Strategy,
    StrategyState,
    TrainingConfig,
    TrainingMode,
    convergence_monitor,
    init_population,
    modulate,
    recombine,
    sample_modulation_rate,
    select_strategy,
    select_survivor,
    train,
    update_probabilities,
)
from qevo.network import Architecture, NetworkGenome, layout, random_genome

from conftest import sine_series


def const_genome(arch, value):
    return NetworkGenome(arch, np.full(layout(arch).total_length, float(value)))


def make_population(genomes, fitness=None):
    fitness = np.array(fitness if fitness is not None else [1.0] * len(genomes))
    return Population(candidates=list(genomes), fitness=fitness)


def tiny_dataset(seed=0, points=120, window=5):
    values = sine_series(seed, points)
    params = dataset.fit_normalizer(values)
    return dataset.build_windows(dataset.normalize(values, params), window)


def tiny_config(**overrides):
    defaults = dict(
        population_size=6,
        generations=4,
        window_size=5,
        hidden_range=(3, 5),
        depth_range=(1, 2),
        seed=1,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


# ------------------------------------------------------- modulation rate

def test_modulation_rate_open_interval_and_mean():
    rng = np.random.default_rng(0)
    draws = np.array([sample_modulation_rate(rng) for _ in range(100_000)])
    assert draws.min() > 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.02


# ------------------------------------------------------- strategy selection

def test_select_strategy_branches():
    state = StrategyState(probs=(0.33, 0.33, 0.34))
    assert select_strategy(0.2, state) is Strategy.RAND_ONE
    assert select_strategy(0.5, state) is Strategy.CURRENT_TO_BEST
    assert select_strategy(0.99, state) is Strategy.BEST_ONE


def test_select_strategy_boundaries():
    state = StrategyState(probs=(0.33, 0.33, 0.34))
    assert select_strategy(0.33, state) is Strategy.RAND_ONE  # inclusive upper
    assert select_strategy(0.66, state) is Strategy.CURRENT_TO_BEST
    assert select_strategy(0.0, state) is Strategy.BEST_ONE  # 0 falls through


# ------------------------------------------------------- probability update

def test_update_probabilities_symmetric():
    state = update_probabilities(StrategyState())
    assert state.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
    assert state.successes == [0, 0, 0] and state.failures == [0, 0, 0]


def test_update_probabilities_single_success():
    # smoothed eps = (2,1,1), tau = 0: St = 2(1 + 2 + 2) = 10,
    # T1 = 2*2/10 = 0.4, T2 = 1*3/10 = 0.3, T3 = 0.3
    state = update_probabilities(StrategyState(successes=[1, 0, 0]))
    assert state.probs == pytest.approx((0.4, 0.3, 0.3), abs=1e-12)


def test_update_probabilities_simplex():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = StrategyState(
            successes=[int(v) for v in rng.integers(0, 30, 3)],
            failures=[int(v) for v in rng.integers(0, 30, 3)],
        )
        out = update_probabilities(state)
        assert abs(sum(out.probs) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in out.probs)


# ------------------------------------------------------- modulation

def test_blockwise_difference_arithmetic():
    arch = Architecture(1, (1,))
    base = const_genome(arch, 1.0)
    donor_hi = const_genome(arch, 2.0)
    donor_lo = const_genome(arch, 1.0)
    out = evolve._combine_blockwise(base, [(0.5, donor_hi, donor_lo)])
    assert np.allclose(out, 1.5)


def test_modulate_rand_one_uses_donor_base():
    arch = Architecture(1, (1,))
    pop = make_population([const_genome(arch, 1.0)] + [const_genome(arch, 2.0)] * 3)
    delta = modulate(Strategy.RAND_ONE, 0, pop, pop.best, 0.7, np.random.default_rng(0))
    # all donors equal, so the difference term vanishes and the base is r1
    assert np.allclose(delta.phases, 2.0)


def test_modulate_current_to_best_fixed_point():
    arch = Architecture(2, (2,))
    g = random_genome(arch, np.random.default_rng(1))
    pop = make_population([g] * 5)
    delta = modulate(Strategy.CURRENT_TO_BEST, 0, pop, pop.best, 0.9, np.random.default_rng(2))
    assert delta == g


def test_modulate_best_one_evaluation():
    arch = Architecture(1, (1,))
    best = const_genome(arch, 5.0)
    pop = make_population(
        [const_genome(arch, 0.0), const_genome(arch, 3.0), const_genome(arch, 3.0),
         const_genome(arch, 3.0)],
    )
    delta = modulate(Strategy.BEST_ONE, 0, pop, best, 0.999999, np.random.default_rng(0))
    # donors are all equal, so delta collapses to the best vector
    assert np.allclose(delta.phases, 5.0)


def test_modulate_tiny_rate_returns_base_exactly():
    rng = np.random.default_rng(7)
    arch = Architecture(3, (4,))
    current = random_genome(arch, rng)
    donor = random_genome(arch, rng)
    best = random_genome(arch, rng)
    pop = make_population([current] + [donor] * 5)
    expected = {
        Strategy.RAND_ONE: donor,
        Strategy.CURRENT_TO_BEST: current,
        Strategy.BEST_ONE: best,
    }
    for strategy in STRATEGIES:
        delta = modulate(strategy, 0, pop, best, 1e-300, np.random.default_rng(11))
        assert delta == expected[strategy]


def test_modulate_cross_architecture_prefix_rule():
    # base has width 2; donors have widths 3 and 1, so every block overlaps
    # on exactly its first entry and the rest copies the base
    base = const_genome(Architecture(1, (2,)), 0.0)
    hi = const_genome(Architecture(1, (3,)), 1.0)
    lo = const_genome(Architecture(1, (1,)), 3.0)
    out = evolve._combine_blockwise(base, [(0.5, hi, lo)])
    expected = np.array([-1, 0, -1, 0, -1, 0, -1, 0, -1], dtype=float)
    assert np.array_equal(out, expected)


def test_modulate_cross_architecture_keeps_base_structure():
    rng = np.random.default_rng(5)
    pop = make_population(
        [
            random_genome(Architecture(4, (5, 3)), rng),
            random_genome(Architecture(4, (2,)), rng),
            random_genome(Architecture(4, (7,)), rng),
            random_genome(Architecture(4, (3, 3, 2)), rng),
        ]
    )
    for strategy in STRATEGIES:
        delta = modulate(strategy, 0, pop, pop.best, 0.5, np.random.default_rng(3))
        assert delta.phases.size == layout(delta.architecture).total_length


def test_modulate_population_too_small():
    arch = Architecture(1, (1,))
    pop = make_population([const_genome(arch, v) for v in (0.0, 1.0, 2.0)])
    with pytest.raises(PopulationTooSmallError):
        modulate(Strategy.RAND_ONE, 0, pop, pop.best, 0.5, np.random.default_rng(0))


# ------------------------------------------------------- recombination

def test_recombine_identical_parents_identity():
    rng = np.random.default_rng(0)
    for seed in range(10):
        arch = Architecture(4, tuple(np.random.default_rng(seed).integers(1, 6, 2)))
        g = random_genome(arch, rng)
        c1, c2 = recombine(g, g, np.random.default_rng(seed))
        assert c1 == g and c2 == g


def test_recombine_hand_widths():
    p1 = const_genome(Architecture(2, (2,)), 1.0)
    p2 = const_genome(Architecture(2, (3,)), 2.0)
    # Both cuts after the second neuron at level 1: keep = donor_cut = 2
    rng = np.random.default_rng(0)
    c1, c2 = evolve._splice(p1, p2, 1, 2, 2, rng), evolve._splice(p2, p1, 1, 2, 2, rng)
    assert c1.architecture.hidden_widths == (3,)  # 2 + (3 - 2)
    assert c2.architecture.hidden_widths == (2,)  # 2 + (2 - 2)
    assert c1.phases.size == layout(c1.architecture).total_length
    assert c2.phases.size == layout(c2.architecture).total_length


def test_recombine_moves_whole_bundles():
    p1 = const_genome(Architecture(2, (3,)), 1.0)
    p2 = const_genome(Architecture(2, (3,)), 2.0)
    # keep = donor_cut = 2 at level 1: two bundles from p1, the third from p2
    c1 = evolve._splice(p1, p2, 1, 2, 2, np.random.default_rng(0))
    assert c1.architecture.hidden_widths == (3,)
    hidden, output = layout(c1.architecture).transitions
    w_in = c1.phases[hidden.weight_slice].reshape(hidden.w_in, hidden.w_out)
    assert np.array_equal(w_in[:, :2], np.ones((2, 2)))
    assert np.array_equal(w_in[:, 2], np.full(2, 2.0))
    assert c1.phases[hidden.bias_slice].tolist() == [1.0, 1.0, 2.0]
    assert c1.phases[hidden.rev_slice].tolist() == [1.0, 1.0, 2.0]
    w_out = c1.phases[output.weight_slice].reshape(output.w_in, output.w_out)
    assert w_out[:, 0].tolist() == [1.0, 1.0, 2.0]
    # the output layer's own reversal stays with the primary parent
    assert c1.phases[output.rev_slice].tolist() == [1.0]


@settings(max_examples=150, deadline=None)
@given(
    input_width=st.integers(1, 6),
    hidden=st.lists(st.lists(st.integers(1, 8), min_size=1, max_size=4), min_size=2, max_size=2),
    scale=st.sampled_from([1.0, 1e300]),
    draw=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_spliced_children_equal_validated_genomes(input_width, hidden, scale, draw, seed):
    # Children skip NetworkGenome's checks; they must pass them all the same.
    rng = np.random.default_rng(seed)
    p1, p2 = (
        NetworkGenome(arch, scale * random_genome(arch, rng).phases)
        for arch in (Architecture(input_width, tuple(h)) for h in hidden)
    )
    level = draw.draw(st.integers(1, min(len(h) for h in hidden)))
    cut1, cut2 = (draw.draw(st.integers(1, h[level - 1])) for h in hidden)
    for child in (
        evolve._splice(p1, p2, level, cut1, cut2, rng),
        evolve._splice(p2, p1, level, cut2, cut1, rng),
    ):
        assert child.phases.shape == (layout(child.architecture).total_length,)
        assert child.phases.dtype == np.float64 and child.phases.flags.c_contiguous
        assert not child.phases.flags.writeable
        assert np.isfinite(child.phases).all()
        assert child == NetworkGenome(child.architecture, child.phases.copy())


def test_recombine_pads_transferred_vectors():
    rng = np.random.default_rng(1)
    p1 = random_genome(Architecture(3, (2, 4)), rng)  # donor columns come from width-2 layer
    p2 = random_genome(Architecture(3, (6, 1)), rng)
    for seed in range(20):
        c1, c2 = recombine(p1, p2, np.random.default_rng(seed))
        for child in (c1, c2):
            assert child.phases.size == layout(child.architecture).total_length
            assert np.isfinite(child.phases).all()
            assert all(w >= 1 for w in child.architecture.hidden_widths)


def test_recombine_width_bounds():
    rng = np.random.default_rng(4)
    p1 = random_genome(Architecture(2, (5,)), rng)
    p2 = random_genome(Architecture(2, (9,)), rng)
    for seed in range(50):
        c1, c2 = recombine(p1, p2, np.random.default_rng(seed))
        for child in (c1, c2):
            assert 1 <= child.architecture.hidden_widths[0] <= 5 + 9
    # children keep their primary parent's depth
    assert c1.architecture.depth == p1.architecture.depth
    assert c2.architecture.depth == p2.architecture.depth


# ------------------------------------------------------- survivor selection

def test_select_survivor_adopts_better_child():
    arch = Architecture(1, (1,))
    cur, child = const_genome(arch, 0.0), const_genome(arch, 1.0)
    genome, fit, ok = select_survivor((cur, 0.2), [(child, 0.1)])
    assert genome is child and fit == 0.1 and ok


def test_select_survivor_tie_adopts_child():
    arch = Architecture(1, (1,))
    cur, child = const_genome(arch, 0.0), const_genome(arch, 1.0)
    genome, _, ok = select_survivor((cur, 0.2), [(child, 0.2)])
    assert genome is child and ok


def test_select_survivor_keeps_better_current():
    arch = Architecture(1, (1,))
    cur, child = const_genome(arch, 0.0), const_genome(arch, 1.0)
    genome, fit, ok = select_survivor((cur, 0.2), [(child, 0.3)])
    assert genome is cur and fit == 0.2 and not ok


def test_select_survivor_first_of_equal_children():
    arch = Architecture(1, (1,))
    a, b = const_genome(arch, 1.0), const_genome(arch, 2.0)
    genome, _, _ = select_survivor((const_genome(arch, 0.0), 0.9), [(a, 0.5), (b, 0.5)])
    assert genome is a


@pytest.mark.parametrize("current_fit, child_fit", [(float("nan"), 0.1), (0.2, float("inf"))])
def test_select_survivor_rejects_a_non_finite_fitness(current_fit, child_fit):
    arch = Architecture(1, (1,))
    with pytest.raises(ValueError, match="non-finite fitness"):
        select_survivor((const_genome(arch, 0.0), current_fit), [(const_genome(arch, 1.0), child_fit)])


# ------------------------------------------------------- random streams

@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("generation", [0, 1, 2**32])
def test_streams_match_seed_sequence(seed, generation):
    # Each index's integers() draw leaves half a 64-bit word buffered, so the
    # next index also checks that reseeding clears it.
    for i, rng in enumerate(evolve._streams(seed, generation, range(9))):
        ref = np.random.default_rng(np.random.SeedSequence((seed, generation, i)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
        assert rng.normal() == ref.normal()
        assert rng.integers(1, 5) == ref.integers(1, 5)


def test_streams_reject_indices_of_two_words():
    with pytest.raises(ValueError):
        next(evolve._streams(0, 0, range(2**32, 2**32 + 1)))


# ------------------------------------------------------- population / training

def test_init_population_size_and_ranges():
    cfg = tiny_config(population_size=12)
    fitness_fn = DatasetFitness(tiny_dataset())
    pop, _ = init_population(cfg, fitness_fn)
    assert len(pop.candidates) == 12
    for g in pop.candidates:
        assert 1 <= g.architecture.depth <= 2
        assert all(3 <= w <= 5 for w in g.architecture.hidden_widths)
        assert g.phases.size == layout(g.architecture).total_length
    assert pop.best_index == int(np.argmin(pop.fitness))


def test_init_population_deterministic():
    cfg = tiny_config()
    fitness_fn = DatasetFitness(tiny_dataset())
    pop1, _ = init_population(cfg, fitness_fn)
    pop2, _ = init_population(cfg, fitness_fn)
    assert all(a == b for a, b in zip(pop1.candidates, pop2.candidates))
    assert np.array_equal(pop1.fitness, pop2.fitness)


def test_train_trajectory_and_report_shape():
    data = tiny_dataset()
    cfg = tiny_config()
    best, report = train(cfg, data)
    assert len(report.fitness_trajectory) == cfg.generations + 1
    assert len(report.probability_trajectory) == cfg.generations
    assert report.best_fitness == report.fitness_trajectory[-1]
    diffs = np.diff(report.fitness_trajectory)
    assert (diffs <= 0).all()
    assert set(report.success_totals) == {s.value for s in STRATEGIES}
    assert len(report.final_architectures) == cfg.population_size


def test_train_deterministic():
    data = tiny_dataset()
    cfg = tiny_config(seed=9)
    best1, report1 = train(cfg, data)
    best2, report2 = train(cfg, data)
    assert best1 == best2
    assert report1.to_dict() == report2.to_dict()


def test_train_zero_generations():
    data = tiny_dataset()
    cfg = tiny_config(generations=0)
    best, report = train(cfg, data)
    assert len(report.fitness_trajectory) == 1
    assert report.probability_trajectory == []
    assert report.best_fitness == report.fitness_trajectory[0]


def test_train_fixed_arch_mode_keeps_architectures(tmp_path):
    data = tiny_dataset()
    cfg = tiny_config(mode=TrainingMode.FIXED_ARCH)
    best, report = train(cfg, data, checkpoint_dir=tmp_path)
    assert len({tuple(a) for a in report.final_architectures}) == 1
    # true across every generation, not just the last: inspect checkpoints
    for gen in range(1, cfg.generations + 1):
        ckpt = evolve.load_checkpoint(tmp_path / f"checkpoint_gen{gen:04d}.json")
        archs = {g.architecture for g in ckpt.population.candidates}
        assert len(archs) == 1


def test_train_fixed_all_mode_is_initialization_only():
    data = tiny_dataset()
    cfg = tiny_config(mode="fixed-all")
    best, report = train(cfg, data)
    assert report.fitness_trajectory[0] == report.fitness_trajectory[-1]
    assert all(v == 0 for v in report.success_totals.values())
    assert report.probability_trajectory == []


def test_train_checkpoint_resume_matches_uninterrupted(tmp_path):
    data = tiny_dataset()
    cfg = tiny_config(generations=5, seed=4)
    best_full, report_full = train(cfg, data, checkpoint_dir=tmp_path)
    ckpt = evolve.load_checkpoint(tmp_path / "checkpoint_gen0002.json")
    best_resumed, report_resumed = train(cfg, data, resume=ckpt)
    assert best_resumed == best_full
    assert report_resumed.to_dict() == report_full.to_dict()


def test_train_resume_leaves_the_checkpoint_unchanged(tmp_path):
    data = tiny_dataset()
    cfg = tiny_config(generations=5, seed=4)
    _, report_full = train(cfg, data, checkpoint_dir=tmp_path)
    ckpt = evolve.load_checkpoint(tmp_path / "checkpoint_gen0002.json")
    for _ in range(2):
        _, report_resumed = train(cfg, data, resume=ckpt)
        assert report_resumed.to_dict() == report_full.to_dict()


def test_train_checkpoint_rejects_mismatched_config(tmp_path):
    data = tiny_dataset()
    cfg = tiny_config(generations=2, seed=4)
    train(cfg, data, checkpoint_dir=tmp_path)
    ckpt = evolve.load_checkpoint(tmp_path / "checkpoint_gen0001.json")
    with pytest.raises(CheckpointFormatError):
        train(tiny_config(generations=2, seed=5), data, resume=ckpt)


@pytest.mark.parametrize(
    "overrides",
    [dict(population_size=5), dict(population_size=7), dict(window_size=6), dict(generations=1)],
    ids=["smaller-population", "larger-population", "window", "generations"],
)
def test_train_resume_rejects_a_checkpoint_of_another_shape(tmp_path, overrides):
    train(tiny_config(generations=2, seed=4), tiny_dataset(), checkpoint_dir=tmp_path)
    ckpt = evolve.load_checkpoint(tmp_path / "checkpoint_gen0002.json")
    cfg = tiny_config(**{"generations": 2, "seed": 4, **overrides})
    with pytest.raises(CheckpointFormatError):
        train(cfg, tiny_dataset(window=cfg.window_size), resume=ckpt)


CHECKPOINT_KEYS = [
    "schema", "seed", "mode", "next_generation", "probabilities", "successes", "failures",
    "fitness_trajectory", "probability_trajectory", "success_totals", "degenerate_args",
    "population",
]


@pytest.fixture(scope="module")
def checkpoint_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("checkpoints")
    train(tiny_config(generations=1, seed=4), tiny_dataset(), checkpoint_dir=out)
    return json.loads((out / "checkpoint_gen0001.json").read_text())


def _load_payload(tmp_path, payload):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(payload))
    return evolve.load_checkpoint(path)


@pytest.mark.parametrize("key", CHECKPOINT_KEYS)
def test_load_checkpoint_rejects_a_missing_key(tmp_path, checkpoint_payload, key):
    assert sorted(checkpoint_payload) == sorted(CHECKPOINT_KEYS)
    payload = {k: v for k, v in checkpoint_payload.items() if k != key}
    with pytest.raises(CheckpointFormatError):
        _load_payload(tmp_path, payload)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "4"),
        ("next_generation", 2.5),
        ("degenerate_args", True),
        ("mode", 3),
        ("probabilities", [0.5, 0.5]),
        ("successes", [1, 2, "3"]),
        ("fitness_trajectory", {"0": 0.1}),
        ("probability_trajectory", [None]),
        ("success_totals", [1, 2, 3]),
        ("population", [{"genome": "not base64!", "fitness": 0.1}]),
        ("population", [{"genome": "AAAA", "fitness": 0.1}]),
        ("population", "abc"),
    ],
)
def test_load_checkpoint_rejects_a_wrong_value(tmp_path, checkpoint_payload, key, value):
    with pytest.raises(CheckpointFormatError):
        _load_payload(tmp_path, {**checkpoint_payload, key: value})


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_load_checkpoint_rejects_an_unreadable_file(tmp_path, kind):
    path = tmp_path / "checkpoint.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema": "\xff"}')
    with pytest.raises(CheckpointFormatError, match="cannot read checkpoint"):
        evolve.load_checkpoint(path)


def test_load_checkpoint_round_trips(tmp_path, checkpoint_payload):
    run = _load_payload(tmp_path, checkpoint_payload)
    evolve.save_checkpoint(run, tmp_path / "again.json")
    assert json.loads((tmp_path / "again.json").read_text()) == checkpoint_payload


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(population_size=3)
    with pytest.raises(ValueError):
        TrainingConfig(generations=-1)
    with pytest.raises(ValueError):
        TrainingConfig(hidden_range=(5, 4))


# ------------------------------------------------------- convergence monitor

def test_convergence_monitor_violation():
    with pytest.raises(MonotonicityViolationError):
        convergence_monitor([0.5, 0.6])

