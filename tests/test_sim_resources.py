"""Tests for the RNG factory."""

import numpy as np

from repro.sim.rng import RngFactory, derive_seed


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_derive_seed_varies_by_name_and_root(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_factory_caches_streams(self):
        factory = RngFactory(7)
        g1 = factory.get("x")
        g2 = factory.get("x")
        assert g1 is g2

    def test_factory_reproducible_across_instances(self):
        a = RngFactory(7).get("x").random(5)
        b = RngFactory(7).get("x").random(5)
        assert np.allclose(a, b)

    def test_fresh_restarts_stream(self):
        factory = RngFactory(7)
        first = factory.get("x").random(3)
        fresh = factory.fresh("x").random(3)
        assert np.allclose(first, fresh)

    def test_streams_independent(self):
        factory = RngFactory(7)
        a = factory.get("a").random(5)
        b = factory.get("b").random(5)
        assert not np.allclose(a, b)
