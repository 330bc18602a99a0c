"""Tests for the RNG factory."""

from repro.sim.rng import RngFactory, derive_seed


def draws(stream, n):
    """``n`` scalar ``random()`` draws (a pod draws scalars only)."""
    return [stream.random() for _ in range(n)]


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
        a = draws(RngFactory(7).get("x"), 5)
        b = draws(RngFactory(7).get("x"), 5)
        assert a == b

    def test_fresh_restarts_stream(self):
        factory = RngFactory(7)
        first = draws(factory.get("x"), 3)
        fresh = draws(factory.fresh("x"), 3)
        assert first == fresh

    def test_streams_independent(self):
        factory = RngFactory(7)
        a = draws(factory.get("a"), 5)
        b = draws(factory.get("b"), 5)
        assert all(x != y for x, y in zip(a, b))
