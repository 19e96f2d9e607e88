"""Unit tests for repro.rng, repro.types and the error hierarchy."""

import numpy as np
import pytest

import repro
from repro import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    derive_seed,
    make_rng,
    spawn_seeds,
)
from repro.types import UNDECIDED, as_int_vector


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_from_none_gives_fresh_entropy(self):
        a = make_rng(None).random(5)
        b = make_rng(None).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_from_seed_sequence(self):
        sequence = np.random.SeedSequence(5)
        assert isinstance(make_rng(sequence), np.random.Generator)


class TestSpawning:
    def test_spawned_children_are_independent(self):
        children = [make_rng(s) for s in spawn_seeds(make_rng(3), 3)]
        streams = [child.random(4) for child in children]
        assert not np.array_equal(streams[0], streams[1])
        assert not np.array_equal(streams[1], streams[2])

    def test_spawning_is_deterministic(self):
        a = [make_rng(s).random(3) for s in spawn_seeds(make_rng(3), 2)]
        b = [make_rng(s).random(3) for s in spawn_seeds(make_rng(3), 2)]
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(make_rng(0), -1)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_varies_with_index_and_root(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(42, -1)

    def test_accepts_generator_roots(self):
        value = derive_seed(np.random.default_rng(1), 0)
        assert isinstance(value, int) and value >= 0


class TestAsIntVector:
    def test_plain_list(self):
        vec = as_int_vector([1, 2, 3])
        assert vec.dtype == np.int64
        assert vec.tolist() == [1, 2, 3]

    def test_copies_input(self):
        source = np.array([1, 2, 3], dtype=np.int64)
        vec = as_int_vector(source)
        vec[0] = 99
        assert source[0] == 1

    def test_integral_floats_ok(self):
        assert as_int_vector([1.0, 2.0]).tolist() == [1, 2]

    def test_fractional_rejected(self):
        with pytest.raises(ValueError):
            as_int_vector([1.5])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            as_int_vector(np.zeros((2, 2)))

    def test_undecided_sentinel(self):
        assert UNDECIDED == 0


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for error_cls in (
            repro.ConfigurationError,
            repro.ProtocolError,
            repro.SchedulerError,
            repro.SimulationError,
            repro.BatchSizeError,
            repro.RegimeError,
            repro.ExperimentError,
            repro.SerializationError,
        ):
            assert issubclass(error_cls, ReproError)

    def test_batch_size_error_is_simulation_error(self):
        assert issubclass(repro.BatchSizeError, SimulationError)

    def test_catchable_as_family(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("x")
        with pytest.raises(ReproError):
            raise ProtocolError("y")
