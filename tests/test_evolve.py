import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import dataset, evolve, network
from qevo.errors import (
    CheckpointFormatError,
    MonotonicityViolationError,
    PopulationTooSmallError,
)
from qevo.evolve import (
    MAX_POPULATION_PHASES,
    STRATEGIES,
    Strategy,
    TrainingConfig,
    TrainingMode,
    convergence_monitor,
    draw_crossing,
    draw_terms,
    init_population,
    modulate,
    recombine,
    sample_modulation_rate,
    select_strategy,
    select_survivor,
    train,
    update_probabilities,
)
from qevo.metrics import rmse
from qevo.network import HALF_PI, Architecture, NetworkGenome, genome_length, random_genome

from conftest import sine_series


def const_genome(arch, value):
    return NetworkGenome(arch, np.full(genome_length(arch), float(value)))


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
    probs = (0.33, 0.33, 0.34)
    assert select_strategy(0.2, probs) is Strategy.RAND_ONE
    assert select_strategy(0.5, probs) is Strategy.CURRENT_TO_BEST
    assert select_strategy(0.99, probs) is Strategy.BEST_ONE


def test_select_strategy_boundaries():
    probs = (0.33, 0.33, 0.34)
    assert select_strategy(0.33, probs) is Strategy.RAND_ONE  # inclusive upper
    assert select_strategy(0.66, probs) is Strategy.CURRENT_TO_BEST
    assert select_strategy(0.0, probs) is Strategy.BEST_ONE  # 0 falls through


# ------------------------------------------------------- probability update

def test_update_probabilities_symmetric():
    probs = update_probabilities([0, 0, 0], [0, 0, 0])
    assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_update_probabilities_single_success():
    # smoothed eps = (2,1,1), tau = 0: St = 2(1 + 2 + 2) = 10,
    # T1 = 2*2/10 = 0.4, T2 = 1*3/10 = 0.3, T3 = 0.3
    probs = update_probabilities([1, 0, 0], [0, 0, 0])
    assert probs == pytest.approx((0.4, 0.3, 0.3), abs=1e-12)


def test_update_probabilities_simplex():
    rng = np.random.default_rng(3)
    for _ in range(200):
        probs = update_probabilities(
            [int(v) for v in rng.integers(0, 30, 3)], [int(v) for v in rng.integers(0, 30, 3)]
        )
        assert abs(sum(probs) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in probs)


# ------------------------------------------------------- modulation

def test_blockwise_difference_arithmetic():
    arch = Architecture(1, (1,))
    genomes = [const_genome(arch, v) for v in (1.0, 2.0, 1.0)]
    (out,) = modulate(genomes, [(0, ((0.5, 1, 2),))])
    assert np.allclose(out.phases, 1.5)


def test_modulate_rand_one_uses_donor_base():
    arch = Architecture(1, (1,))
    genomes = [const_genome(arch, 1.0)] + [const_genome(arch, 2.0)] * 3
    terms = draw_terms(Strategy.RAND_ONE, 0, len(genomes), 0, 0.7, np.random.default_rng(0))
    (delta,) = modulate(genomes, [terms])
    # all donors equal, so the difference term vanishes and the base is r1
    assert np.allclose(delta.phases, 2.0)


def test_modulate_current_to_best_fixed_point():
    arch = Architecture(2, (2,))
    g = random_genome(arch, np.random.default_rng(1))
    genomes = [g] * 5
    terms = draw_terms(Strategy.CURRENT_TO_BEST, 0, len(genomes), 0, 0.9, np.random.default_rng(2))
    (delta,) = modulate(genomes, [terms])
    assert delta == g


def test_modulate_best_one_evaluation():
    arch = Architecture(1, (1,))
    genomes = [const_genome(arch, 0.0), const_genome(arch, 3.0), const_genome(arch, 3.0),
               const_genome(arch, 3.0), const_genome(arch, 5.0)]
    (delta,) = modulate(genomes, [(4, ((0.999999, 1, 2),))])  # the best candidate is the base
    # donors are all equal, so delta collapses to the best vector
    assert np.allclose(delta.phases, 5.0)


def test_modulate_tiny_rate_returns_base_exactly():
    rng = np.random.default_rng(7)
    arch = Architecture(3, (4,))
    current = random_genome(arch, rng)
    donor = random_genome(arch, rng)
    best = random_genome(arch, rng)
    genomes = [current] + [donor] * 4 + [best]
    for strategy in STRATEGIES:
        base, terms = draw_terms(strategy, 0, len(genomes), 5, 1e-300, np.random.default_rng(11))
        (delta,) = modulate(genomes, [(base, terms)])
        assert delta == genomes[base]
        if strategy is Strategy.RAND_ONE:
            assert base != 0  # a donor
        else:
            assert base == (0 if strategy is Strategy.CURRENT_TO_BEST else 5)


def test_modulate_cross_architecture_prefix_rule():
    # base has width 2; donors have widths 3 and 1, so every block overlaps
    # on exactly its first entry and the rest copies the base
    genomes = [
        const_genome(Architecture(1, (2,)), 0.0),
        const_genome(Architecture(1, (3,)), 1.0),
        const_genome(Architecture(1, (1,)), 3.0),
    ]
    (out,) = modulate(genomes, [(0, ((0.5, 1, 2),))])
    expected = np.array([-1, 0, -1, 0, -1, 0, -1, 0, -1], dtype=float)
    assert np.array_equal(out.phases, expected)


def test_modulate_cross_architecture_keeps_base_structure():
    rng = np.random.default_rng(5)
    genomes = [
        random_genome(Architecture(4, (5, 3)), rng),
        random_genome(Architecture(4, (2,)), rng),
        random_genome(Architecture(4, (7,)), rng),
        random_genome(Architecture(4, (3, 3, 2)), rng),
    ]
    for strategy in STRATEGIES:
        terms = draw_terms(strategy, 0, len(genomes), 0, 0.5, np.random.default_rng(3))
        (delta,) = modulate(genomes, [terms])
        assert delta.architecture == genomes[terms[0]].architecture
        assert delta.phases.size == genome_length(delta.architecture)


def test_modulate_population_too_small():
    arch = Architecture(1, (1,))
    with pytest.raises(PopulationTooSmallError):
        draw_terms(Strategy.RAND_ONE, 0, 3, 0, 0.5, np.random.default_rng(0))


def _modulate_reference(genomes, base, terms):
    """One candidate's perturbed phases, entry by entry through index maps:
    each block's entries at the same flat offset in the base and every donor."""
    participants = [genomes[base]] + [genomes[j] for _, a, b in terms for j in (a, b)]
    maps = []
    for g in participants:
        index = np.full(genome_length(genomes[base].architecture), -1)
        theirs = network.transitions(g.architecture, np.arange(g.phases.size))
        mine = network.transitions(genomes[base].architecture, index)
        for w, v, dst, src in zip(genomes[base].architecture.widths, g.architecture.widths, mine, theirs):
            for d, s in ((dst[:w], src[:v]), (dst[w:-1], src[v:-1]), (dst[-1:], src[-1:])):
                d, s = d.reshape(-1), s.reshape(-1)
                d[: min(d.size, s.size)] = s[: min(d.size, s.size)]
        maps.append(index)
    shared = np.flatnonzero(np.minimum.reduce(maps) >= 0)
    out = genomes[base].phases.copy()
    value = out[shared]
    for k, (coeff, a, b) in enumerate(terms):
        value += coeff * (genomes[a].phases[maps[1 + 2 * k][shared]] - genomes[b].phases[maps[2 + 2 * k][shared]])
    out[shared] = value
    return out


@settings(max_examples=200, deadline=None)
@given(
    input_width=st.integers(1, 12),
    hidden=st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4), min_size=4, max_size=12),
    strategies=st.lists(st.sampled_from(STRATEGIES), min_size=12, max_size=12),
    rates=st.lists(
        st.one_of(st.sampled_from([1e-300, 0.999999]), st.floats(1e-300, 0.999999)), min_size=12, max_size=12,
    ),
    scale=st.sampled_from([1.0, 1.0, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
def test_modulate_matches_per_candidate_reference(input_width, hidden, strategies, rates, scale, seed):
    rng = np.random.default_rng(seed)
    genomes = []
    for h in hidden:
        phases = scale * random_genome(Architecture(input_width, tuple(h)), rng).phases
        signed = rng.random(phases.size)
        phases[signed < 0.2] = -0.0
        phases[signed > 0.9] = 0.0
        genomes.append(NetworkGenome(Architecture(input_width, tuple(h)), phases))
    best = int(np.argmin(rng.random(len(genomes))))
    terms = [
        draw_terms(strategy, i, len(genomes), best, rate, rng)
        for i, (strategy, rate) in enumerate(zip(strategies, rates[: len(genomes)]))
    ]
    # Phases near 1e308 overflow; both sides then end in a ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [_modulate_reference(genomes, base, ts) for base, ts in terms]
        if not all(np.isfinite(e).all() for e in expected):
            with pytest.raises(ValueError, match="finite"):
                modulate(genomes, terms)
            return
        deltas = modulate(genomes, terms)
    for delta, (base, _), phases in zip(deltas, terms, expected):
        assert delta.architecture is genomes[base].architecture
        assert delta.phases.tobytes() == phases.tobytes()  # -0.0 included
        assert np.array_equal(np.signbit(delta.phases), np.signbit(phases))


# ------------------------------------------------------- recombination

def recombine_pair(p1, p2, rng):
    """One candidate's children, its crossing drawn as the trainer draws it."""
    return recombine(p1, p2, draw_crossing(p1.architecture, p2.architecture, rng))


def splice_pair(p1, p2, level, cuts, rng):
    """The children of a crossing at `level` and `cuts`, its pads drawn as
    draw_crossing draws them: each moved neuron's missing weights from
    sources, then to destinations, child by child."""
    counts = []
    for (a, b), cut in zip(((p1, p2), (p2, p1)), cuts[::-1]):
        x, y = a.architecture.widths, b.architecture.widths
        counts.append((y[level] - cut) * (max(x[level - 1] - y[level - 1], 0) + max(x[level + 1] - y[level + 1], 0)))
    pads = rng.uniform(-HALF_PI, HALF_PI, sum(counts))
    return recombine(p1, p2, (level, cuts, (pads[: counts[0]], pads[counts[0] :])))


def test_recombine_identical_parents_identity():
    rng = np.random.default_rng(0)
    for seed in range(10):
        arch = Architecture(4, tuple(np.random.default_rng(seed).integers(1, 6, 2)))
        g = random_genome(arch, rng)
        c1, c2 = recombine_pair(g, g, np.random.default_rng(seed))
        assert c1 == g and c2 == g


def test_recombine_hand_widths():
    p1 = const_genome(Architecture(2, (2,)), 1.0)
    p2 = const_genome(Architecture(2, (3,)), 2.0)
    # Both cuts after the second neuron at level 1: keep = donor_cut = 2
    c1, c2 = splice_pair(p1, p2, 1, (2, 2), np.random.default_rng(0))
    assert c1.architecture.hidden_widths == (3,)  # 2 + (3 - 2)
    assert c2.architecture.hidden_widths == (2,)  # 2 + (2 - 2)
    assert c1.phases.size == genome_length(c1.architecture)
    assert c2.phases.size == genome_length(c2.architecture)


def test_recombine_moves_whole_bundles():
    p1 = const_genome(Architecture(2, (3,)), 1.0)
    p2 = const_genome(Architecture(2, (3,)), 2.0)
    # keep = donor_cut = 2 at level 1: two bundles from p1, the third from p2
    c1, _ = splice_pair(p1, p2, 1, (2, 2), np.random.default_rng(0))
    assert c1.architecture.hidden_widths == (3,)
    hidden, output = c1.transitions
    assert np.array_equal(hidden[:2, :2], np.ones((2, 2)))
    assert np.array_equal(hidden[:2, 2], np.full(2, 2.0))
    assert hidden[2].tolist() == [1.0, 1.0, 2.0]  # bias
    assert hidden[3].tolist() == [1.0, 1.0, 2.0]  # reversal
    assert output[:3, 0].tolist() == [1.0, 1.0, 2.0]
    # the output layer's own reversal stays with the primary parent
    assert output[3].tolist() == [1.0]


def test_splice_pads_land_in_draw_order():
    # Level 2 of a (4, 2, 4) primary takes two donor bundles whose source
    # layer (2) and next layer (2) are both narrower than the primary's (4).
    # The donor's child keeps its width-3 level and truncates, drawing nothing.
    primary = const_genome(Architecture(2, (4, 2, 4)), 1.0)
    donor = const_genome(Architecture(2, (2, 3, 2)), 2.0)
    rng = np.random.default_rng(5)
    child, _ = splice_pair(primary, donor, 2, (1, 1), rng)
    assert child.architecture.hidden_widths == (4, 3, 4)
    ref = np.random.default_rng(5)
    draws = ref.uniform(-HALF_PI, HALF_PI, 8)
    assert rng.bit_generator.state == ref.bit_generator.state
    first, incoming, outgoing, output = child.transitions
    # Incoming: each donor neuron's weights from sources 2 and 3, neuron
    # after neuron; outgoing: each donor neuron's weights to destinations 2
    # and 3, neuron after neuron.
    assert incoming[2:4, 1:].T.ravel().tolist() == draws[:4].tolist()
    assert outgoing[1:3, 2:4].ravel().tolist() == draws[4:].tolist()
    assert incoming[:2, 1:].tolist() == [[2.0, 2.0]] * 2
    assert incoming[4:].tolist() == [[1.0, 2.0, 2.0]] * 2  # bias and reversal
    assert outgoing[1:3, :2].tolist() == [[2.0, 2.0]] * 2
    primary_part = np.concatenate([first.ravel(), incoming[:, 0], outgoing[0], outgoing[3:].ravel(), output.ravel()])
    assert (primary_part == 1.0).all()


def test_splice_without_transfer_returns_the_primary():
    primary = random_genome(Architecture(2, (3, 4)), np.random.default_rng(0))
    donor = random_genome(Architecture(2, (5, 2)), np.random.default_rng(1))
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    # Each child keeps all its primary's bundles and takes none.
    for level, cuts in ((1, (3, 5)), (2, (4, 2))):
        c1, c2 = splice_pair(primary, donor, level, cuts, rng)
        assert c1 is primary and c2 is donor
    assert rng.random() == ref.random()
    # The general path's empty pads would have drawn nothing either.
    ref.uniform(-HALF_PI, HALF_PI, (0, 4))
    assert rng.random() == ref.random()


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
    for child in splice_pair(p1, p2, level, (cut1, cut2), rng):
        assert child.phases.shape == (genome_length(child.architecture),)
        assert child.phases.dtype == np.float64 and child.phases.flags.c_contiguous
        assert not child.phases.flags.writeable
        assert np.isfinite(child.phases).all()
        assert child == NetworkGenome(child.architecture, child.phases.copy())


def test_recombine_pads_transferred_vectors():
    rng = np.random.default_rng(1)
    p1 = random_genome(Architecture(3, (2, 4)), rng)  # donor columns come from width-2 layer
    p2 = random_genome(Architecture(3, (6, 1)), rng)
    for seed in range(20):
        c1, c2 = recombine_pair(p1, p2, np.random.default_rng(seed))
        for child in (c1, c2):
            assert child.phases.size == genome_length(child.architecture)
            assert np.isfinite(child.phases).all()
            assert all(w >= 1 for w in child.architecture.hidden_widths)


def test_recombine_width_bounds():
    rng = np.random.default_rng(4)
    p1 = random_genome(Architecture(2, (5,)), rng)
    p2 = random_genome(Architecture(2, (9,)), rng)
    for seed in range(50):
        c1, c2 = recombine_pair(p1, p2, np.random.default_rng(seed))
        for child in (c1, c2):
            assert 1 <= child.architecture.hidden_widths[0] <= 5 + 9
    # children keep their primary parent's depth
    assert c1.architecture.depth == p1.architecture.depth
    assert c2.architecture.depth == p2.architecture.depth


def _fit_reference(rows, length, rng):
    short = length - rows.shape[1]
    if short <= 0:
        return rows[:, :length]
    return np.concatenate((rows, rng.uniform(-HALF_PI, HALF_PI, (rows.shape[0], short))), axis=1)


def _splice_reference(primary, donor, level, keep, donor_cut, rng):
    """One child, built matrix by matrix and drawing its pads as it goes."""
    p_width, d_width = primary.architecture.hidden_widths[level - 1], donor.architecture.hidden_widths[level - 1]
    if keep == p_width and donor_cut == d_width:
        return primary
    hidden = list(primary.architecture.hidden_widths)
    hidden[level - 1] = keep + d_width - donor_cut
    arch = Architecture(primary.architecture.input_width, tuple(hidden))
    p_in, p_out = primary.transitions[level - 1 : level + 1]
    d_in, d_out = donor.transitions[level - 1 : level + 1]
    n = len(p_in) - 2
    incoming = np.empty((n + 2, hidden[level - 1]))
    incoming[:, :keep] = p_in[:, :keep]
    incoming[:n, keep:] = _fit_reference(d_in[:-2, donor_cut:].T, n, rng).T
    incoming[n:, keep:] = d_in[-2:, donor_cut:]
    outgoing = np.concatenate((p_out[:keep], _fit_reference(d_out[donor_cut:d_width], p_out.shape[1], rng)))
    phases = np.empty(genome_length(arch))
    mats = network.transitions(arch, phases)
    for t, m in enumerate(mats):
        if t == level - 1:
            m[...] = incoming
        elif t == level:
            m[: len(outgoing)] = outgoing
            m[len(outgoing) :] = p_out[p_width:]
        else:
            m[...] = primary.transitions[t]
    return NetworkGenome(arch, phases)


def _recombine_reference(parent1, parent2, rng):
    level = int(rng.integers(1, min(parent1.architecture.depth, parent2.architecture.depth) + 1))
    u = rng.random()
    c1 = int(u * parent1.architecture.hidden_widths[level - 1]) + 1
    c2 = int(u * parent2.architecture.hidden_widths[level - 1]) + 1
    return _splice_reference(parent1, parent2, level, c1, c2, rng), _splice_reference(parent2, parent1, level, c2, c1, rng)


@settings(max_examples=200, deadline=None)
@given(
    input_width=st.integers(1, 8),
    hidden=st.lists(st.lists(st.integers(1, 10), min_size=1, max_size=4), min_size=2, max_size=16),
    same=st.lists(st.booleans(), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_recombine_matches_per_child_reference(input_width, hidden, same, seed):
    # Parents and partners of every depth and width (a partner of the
    # parent's own architecture, as the trainer's, in about half the
    # candidates) and phases with -0.0 and 0.0; pads drawn in the draw pass
    # against pads drawn as each child is built.
    rng = np.random.default_rng(seed)

    def genome(widths):
        phases = random_genome(Architecture(input_width, tuple(widths)), rng).phases.copy()
        signed = rng.random(phases.size)
        phases[signed < 0.2] = -0.0
        phases[signed > 0.9] = 0.0
        return NetworkGenome(Architecture(input_width, tuple(widths)), phases)

    half = len(hidden) // 2
    parents = [genome(h) for h in hidden[:half]]
    partners = [genome(p.architecture.hidden_widths if s else h) for p, h, s in zip(parents, hidden[half:], same)]
    crossings, expected = [], []
    for i, (parent, partner) in enumerate(zip(parents, partners)):
        stream, ref = np.random.default_rng([seed, i]), np.random.default_rng([seed, i])
        crossings.append(draw_crossing(parent.architecture, partner.architecture, stream))
        expected.append(_recombine_reference(parent, partner, ref))
        assert stream.bit_generator.state == ref.bit_generator.state
    pairs = [recombine(*crossed) for crossed in zip(parents, partners, crossings)]
    for pair, reference, parent, partner in zip(pairs, expected, parents, partners):
        for child, ref, primary in zip(pair, reference, (parent, partner)):
            assert (child is primary) == (ref is primary)
            assert child.architecture == ref.architecture
            assert child.phases.tobytes() == ref.phases.tobytes()  # -0.0 included
            assert np.array_equal(np.signbit(child.phases), np.signbit(ref.phases))
            assert not child.phases.flags.writeable


# ------------------------------------------------------- survivor selection

# Each row is one candidate: its fitness, its two children's, and the child
# select_survivor picks and whether that child is adopted. The whole table is
# also selected as one generation.
SELECTIONS = {
    "better-child-adopted": (0.2, (0.3, 0.1), 1, True),
    "tie-with-candidate-adopted": (0.2, (0.2, 0.4), 0, True),
    "worse-children-keep-candidate": (0.2, (0.3, 0.4), 0, False),
    "first-of-equal-children": (0.9, (0.5, 0.5), 0, True),
}


@pytest.mark.parametrize("rows", [[row] for row in SELECTIONS.values()] + [list(SELECTIONS.values())],
                         ids=[*SELECTIONS, "one-generation"])
def test_select_survivor(rows):
    current, children, pick, adopted = (np.array(column) for column in zip(*rows))
    got_pick, got_adopted = select_survivor(current, children)
    assert got_pick.tolist() == pick.tolist() and got_adopted.tolist() == adopted.tolist()


@pytest.mark.parametrize("current_fit, child_fit", [(math.nan, 0.1), (0.2, math.inf), (0.2, -math.inf)])
def test_select_survivor_rejects_a_non_finite_fitness(current_fit, child_fit):
    fitness, children = np.array([0.5, current_fit]), np.array([(0.4, 0.6), (0.3, child_fit)])
    with pytest.raises(ValueError, match="non-finite fitness"):
        select_survivor(fitness, children)


def per_candidate_survivor(current, children):
    """The rule select_survivor applies to every row at once, one candidate at
    a time: the best child, the first on a tie, and whether it is adopted."""
    best, best_fit = 0, children[0]
    for k, fit in enumerate(children[1:], 1):
        if fit < best_fit:
            best, best_fit = k, fit
    return best, best_fit <= current


# A few shared values make ties between children, and with the candidate, common.
fitness_values = st.one_of(st.sampled_from([0.0, -0.0, 0.125, 0.5]), st.floats(0.0, 2.0))


@given(st.lists(st.tuples(fitness_values, fitness_values, fitness_values), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_select_survivor_matches_the_per_candidate_rule(rows):
    current, children = np.array([r[0] for r in rows]), np.array([r[1:] for r in rows])
    pick, adopted = select_survivor(current, children)
    expected = [per_candidate_survivor(c, kids) for c, kids in zip(current.tolist(), children.tolist())]
    assert list(zip(pick.tolist(), adopted.tolist())) == expected


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
    # Read from the range's end: walking 2**32 + 1 indices would take minutes.
    with pytest.raises(ValueError):
        next(evolve._streams(0, 0, range(2**32 + 1)))


# ------------------------------------------------------- population / training

def rmse_scorer(data):
    """A scorer as `train` makes one: each genome's RMSE over `data` and its
    degenerate count, here one `forward_states` call a genome."""
    states = network.input_states(data.inputs)

    def score(genomes):
        results = [network.forward_states(g, states) for g in genomes]
        return np.array([rmse(data.targets, preds) for preds, _ in results]), sum(d for _, d in results)

    return score


def test_init_population_size_and_ranges():
    cfg = tiny_config(population_size=12)
    run = init_population(cfg, rmse_scorer(tiny_dataset()))
    assert len(run.candidates) == 12
    for g in run.candidates:
        assert 1 <= g.architecture.depth <= 2
        assert all(3 <= w <= 5 for w in g.architecture.hidden_widths)
        assert g.phases.size == genome_length(g.architecture)
    assert run.best_index == int(np.argmin(run.fitness))
    assert run.next_generation == 1 and run.fitness_trajectory == (run.best_fitness,)


def test_init_population_deterministic():
    cfg = tiny_config()
    score = rmse_scorer(tiny_dataset())
    run1 = init_population(cfg, score)
    run2 = init_population(cfg, score)
    assert all(a == b for a, b in zip(run1.candidates, run2.candidates))
    assert np.array_equal(run1.fitness, run2.fitness)


def test_train_trajectory_and_report_shape():
    data = tiny_dataset()
    cfg = tiny_config()
    report = train(cfg, data)
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
    report1 = train(cfg, data)
    report2 = train(cfg, data)
    assert report1.best == report2.best
    assert report1.to_dict() == report2.to_dict()


def test_architecture_caches_stay_under_their_byte_bound():
    # 256 plans of at most 2**13 phases and 32 bytes a phase
    # (test_plan_tables_take_at_most_32_bytes_a_phase), and one larger plan.
    assert network._small_plan.cache_info().maxsize * network._SMALL_PLAN_PHASES * 32 <= 2**26
    assert network._large_plan.cache_info().maxsize == 1
    # Hidden widths 20-80 at depth 1-3 give most children an architecture of
    # their own; at seed 4 some genomes are past the cutoff, so the one-plan
    # cache evicts during the run. Emptying both caches changes no result.
    data = tiny_dataset(points=60)
    config = tiny_config(hidden_range=(20, 80), depth_range=(1, 3), generations=3, seed=4)
    reference = train(config, data)
    network._small_plan.cache_clear()
    network._large_plan.cache_clear()
    run = train(config, data)
    assert run.best == reference.best and run.to_dict() == reference.to_dict()
    assert network._small_plan.cache_info().currsize > 0 and network._large_plan.cache_info().misses > 1


def test_train_scores_a_child_that_is_its_parent_once(monkeypatch):
    # Each pass adds one degenerate argument, so the run's count shows
    # whether a reused score carries its parent's count.
    forward, passes, kept = network.forward_states, [], []

    def counting_forward(genome, states, stack=None):
        passes.append(genome)
        preds, degenerate = forward(genome, states, stack)
        return preds, degenerate + 1

    def counting_recombine(parent1, parent2, crossing):
        children = recombine(parent1, parent2, crossing)
        kept.append(children[0] is parent1)
        return children

    monkeypatch.setattr(network, "forward_states", counting_forward)
    monkeypatch.setattr(evolve, "recombine", counting_recombine)
    cfg = tiny_config(hidden_range=(1, 2), generations=6)
    run = train(cfg, tiny_dataset())
    p, g, k = cfg.population_size, cfg.generations, sum(kept)
    assert len(kept) == p * g and k > 0
    assert len(passes) == p + 2 * p * g - k
    assert run.degenerate_args == p + 2 * p * g


def test_train_calls_variation_through_the_module_attributes(monkeypatch):
    # perfbench's tracer times variation and selection by swapping these attributes.
    calls = {"modulate": 0, "recombine": 0, "select_survivor": 0}
    for name in calls:
        def counted(*args, _fn=getattr(evolve, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(evolve, name, counted)
    cfg = tiny_config()
    train(cfg, tiny_dataset())
    assert calls == {"modulate": cfg.generations, "recombine": cfg.population_size * cfg.generations,
                     "select_survivor": cfg.generations}


def test_train_zero_generations():
    data = tiny_dataset()
    cfg = tiny_config(generations=0)
    report = train(cfg, data)
    assert len(report.fitness_trajectory) == 1
    assert report.probability_trajectory == ()
    assert report.next_generation == 1 and report.probabilities == evolve.INITIAL_PROBABILITIES
    assert report.best_fitness == report.fitness_trajectory[0]


def test_train_fixed_arch_mode_keeps_architectures(tmp_path):
    data = tiny_dataset()
    cfg = tiny_config(mode=TrainingMode.FIXED_ARCH)
    report = train(cfg, data, checkpoint_dir=tmp_path)
    assert len({tuple(a) for a in report.final_architectures}) == 1
    # true across every generation, not just the last: inspect checkpoints
    for gen in range(1, cfg.generations + 1):
        ckpt = evolve.load_checkpoint(tmp_path / f"checkpoint_gen{gen:04d}.json")
        archs = {g.architecture for g in ckpt.candidates}
        assert len(archs) == 1


def test_train_fixed_all_mode_is_initialization_only():
    data = tiny_dataset()
    cfg = tiny_config(mode="fixed-all")
    report = train(cfg, data)
    assert report.fitness_trajectory[0] == report.fitness_trajectory[-1]
    assert all(v == 0 for v in report.success_totals.values())
    assert report.probability_trajectory == ()
    assert report.probabilities == evolve.INITIAL_PROBABILITIES


@pytest.fixture(scope="module")
def five_generations(tmp_path_factory):
    """A 5-generation run in a mode: its config, record and checkpoint directory."""

    @functools.cache
    def run_in(mode: str = "full"):
        out = tmp_path_factory.mktemp(f"five-generations-{mode}")
        cfg = tiny_config(generations=5, seed=4, mode=mode)
        return cfg, train(cfg, tiny_dataset(), checkpoint_dir=out), out

    return run_in


# Generation 5 is the last: resuming from it runs no generation. Full mode's
# cases are named by generation alone.
@pytest.mark.parametrize(
    "mode, generation",
    [
        pytest.param(mode, g, id=str(g) if mode == "full" else f"{mode}-{g}")
        for mode in ("full", "fixed-arch", "fixed-all")
        for g in range(1, 6)
    ],
)
def test_train_checkpoint_resume_matches_uninterrupted(five_generations, mode, generation):
    cfg, report_full, out = five_generations(mode)
    ckpt = evolve.load_checkpoint(out / f"checkpoint_gen{generation:04d}.json")
    assert ckpt.next_generation == generation + 1 and ckpt.mode is cfg.mode
    report_resumed = train(cfg, tiny_dataset(), resume=ckpt)
    assert report_resumed.best == report_full.best
    assert report_resumed.to_dict() == report_full.to_dict()


def test_train_resume_leaves_the_checkpoint_unchanged(five_generations):
    cfg, report_full, out = five_generations()
    ckpt = evolve.load_checkpoint(out / "checkpoint_gen0002.json")
    for _ in range(2):
        report_resumed = train(cfg, tiny_dataset(), resume=ckpt)
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
    "schema", "seed", "mode", "fitness_trajectory", "probability_trajectory", "success_totals",
    "degenerate_args", "population",
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


# Explicit ids keep each case's name whatever its place in the list.
@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "4"),
        ("degenerate_args", True),
        ("mode", 3),
        pytest.param("fitness_trajectory", {"0": 0.1}, id="fitness_trajectory-value6"),
        pytest.param("probability_trajectory", [None], id="probability_trajectory-value7"),
        pytest.param("success_totals", [1, 2, 3], id="success_totals-value8"),
        pytest.param("population", [{"genome": "not base64!", "fitness": 0.1}], id="population-value9"),
        pytest.param("population", [{"genome": "AAAA", "fitness": 0.1}], id="population-value10"),
        ("population", "abc"),
    ],
)
def test_load_checkpoint_rejects_a_wrong_value(tmp_path, checkpoint_payload, key, value):
    with pytest.raises(CheckpointFormatError):
        _load_payload(tmp_path, {**checkpoint_payload, key: value})


# Edits of a full-mode generation-1 checkpoint, whose trajectories hold two
# fitness values and one probability triple.
@pytest.mark.parametrize(
    "edit, match",
    [
        (
            lambda p: {**p, "schema": "qevo.checkpoint/1", "next_generation": 2,
                       "probabilities": p["probability_trajectory"][-1],
                       "successes": [0, 0, 0], "failures": [0, 0, 0]},
            "schema 'qevo.checkpoint/1'",
        ),
        (lambda p: {**p, "probability_trajectory": []}, "probability trajectory of 0 entries after 1"),
        (lambda p: {**p, "mode": "fixed-all"}, "probability trajectory of 1 entries after 0"),
        (
            lambda p: {**p, "fitness_trajectory": [*p["fitness_trajectory"][:-1], 1e9]},
            "last fitness 1000000000.0 is not the best",
        ),
        (lambda p: {**p, "fitness_trajectory": []}, "empty population or fitness trajectory"),
        (lambda p: {**p, "population": []}, "empty population or fitness trajectory"),
        (
            lambda p: {**p, "population": [{**e, "fitness": math.inf} for e in p["population"]],
                       "fitness_trajectory": [math.inf, math.inf]},
            "got inf",
        ),
        (lambda p: {**p, "fitness_trajectory": [math.nan, *p["fitness_trajectory"][1:]]}, "got nan"),
        (lambda p: {**p, "fitness_trajectory": [-1.0, *p["fitness_trajectory"][1:]]}, "got -1.0"),
        (lambda p: {**p, "fitness_trajectory": [0.0, *p["fitness_trajectory"][1:]]}, "best fitness rose from 0.0"),
        (lambda p: {**p, "probability_trajectory": [[2.0, -1.0, 0.0]]}, "in [0, 1.0], got 2.0"),
        (lambda p: {**p, "probability_trajectory": [[0.6, 0.6, 0.6]]}, "probabilities (0.6, 0.6, 0.6) sum to"),
        (lambda p: {**p, "degenerate_args": -1}, "got -1"),
        (lambda p: {**p, "success_totals": {**p["success_totals"], "best-one": -1}}, "got -1"),
        (lambda p: {**p, "seed": -4}, "got -4"),
        (
            lambda p: {**p, "population": [{**e, "fitness": 10**400} for e in p["population"]]},
            "int too large to convert to float",
        ),
    ],
    ids=["v1", "probabilities-short", "probabilities-in-fixed-all", "last-fitness-not-best",
         "empty-trajectory", "empty-population", "fitness-inf", "trajectory-nan", "trajectory-negative",
         "trajectory-rises", "probabilities-off-the-wheel", "probabilities-off-the-simplex", "degenerate-negative", "success-negative",
         "seed-negative", "fitness-past-float"],
)
def test_load_checkpoint_rejects_an_inconsistent_run(tmp_path, checkpoint_payload, edit, match):
    with pytest.raises(CheckpointFormatError, match=re.escape(match)):
        _load_payload(tmp_path, edit(checkpoint_payload))


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
    # The bound is P times the genome length of the widest, deepest architecture.
    for w, h, d in ((10, 10, 4), (1, 1, 1), (3, 17, 6)):
        largest = genome_length(Architecture(w, (h,) * d))
        ranges = dict(window_size=w, hidden_range=(1, h), depth_range=(1, d))
        TrainingConfig(population_size=MAX_POPULATION_PHASES // largest, **ranges)
        with pytest.raises(ValueError, match="phases"):
            TrainingConfig(population_size=MAX_POPULATION_PHASES // largest + 1, **ranges)
    with pytest.raises(ValueError, match="phases"):
        TrainingConfig(population_size=2**32)  # past what _streams can number, too
    with pytest.raises(ValueError, match="phases"):  # one 10-100000-100000-1 genome is 74.5 GiB
        TrainingConfig(population_size=4, hidden_range=(100_000, 100_000), depth_range=(2, 2))
    with pytest.raises(ValueError, match="phases"):  # no tuple of depth_max widths is built
        TrainingConfig(depth_range=(1, 10**9))
    with pytest.raises(ValueError):
        TrainingConfig(generations=-1)
    with pytest.raises(ValueError):
        TrainingConfig(hidden_range=(5, 4))


# ------------------------------------------------------- convergence monitor

def test_convergence_monitor_violation():
    with pytest.raises(MonotonicityViolationError):
        convergence_monitor([0.5, 0.6])

