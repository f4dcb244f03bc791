import numpy as np
import pytest

from qevo import network, testkit
from qevo.network import Architecture, NetworkGenome, genome_length, random_genome, transitions


def random_small_net(rng):
    depth = int(rng.integers(1, 3))
    widths = tuple(int(w) for w in rng.integers(1, 4, depth))
    return random_genome(Architecture(3, widths), rng)


def test_oracle_matches_forward_on_small_nets():
    rng = np.random.default_rng(0)
    max_dev = 0.0
    for _ in range(50):
        genome = random_small_net(rng)
        row = rng.random(3)
        dev = abs(network.forward(genome, row) - testkit.oracle_forward(genome, row))
        max_dev = max(max_dev, dev)
    assert max_dev <= 1e-10


def test_oracle_hand_trace():
    arch = Architecture(1, (1,))
    genome = NetworkGenome(arch, np.zeros(genome_length(arch)))
    assert testkit.oracle_forward(genome, [0.0]) == pytest.approx(0.0, abs=1e-12)


def test_oracle_detects_perturbation():
    rng = np.random.default_rng(1)
    genome = random_genome(Architecture(3, (2,)), rng)
    phases = genome.phases.copy()
    phases[-2] += 0.1  # output weight phase
    perturbed = NetworkGenome(genome.architecture, phases)
    rows = rng.random((20, 3))
    devs = [
        abs(network.forward(perturbed, row) - testkit.oracle_forward(genome, row))
        for row in rows
    ]
    assert max(devs) > 1e-10


def test_oracle_rejects_bad_row():
    genome = random_genome(Architecture(3, (2,)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        testkit.oracle_forward(genome, [0.1, 0.2])


def test_oracle_accepts_reversals_far_below_zero():
    # exp(800) overflows a float; the gate must still come out near 0.
    arch = Architecture(2, (2,))
    phases = random_genome(arch, np.random.default_rng(5)).phases.copy()
    for m in transitions(arch, phases):
        m[-1] = -800.0
    genome = NetworkGenome(arch, phases)
    row = [0.3, 0.7]
    value = testkit.oracle_forward(genome, row)
    assert np.isfinite(value)
    assert abs(value - network.forward(genome, row)) <= 1e-12
