"""``repro.sim.rng.Stream`` against numpy, draw by draw.

A pod's random streams used to be ``numpy.random.default_rng`` generators;
``Stream`` rewrites the five scalar draws a pod makes in the standard
library and must give the same bits.  numpy stays the oracle
(``tests/reference_rng.py`` keeps the old factory):

* Hypothesis draws seeds -- 0, 32- and 64-bit edges, values past 2**64
  (more than two 32-bit words of entropy) and past 2**128 (more than
  SeedSequence's pool of four) -- and interleavings of the five
  kinds, so ``integers``' buffered 32-bit half is carried across other
  draws.  Every value, and the generator state after the run, must be equal.
* The committed ziggurat tables are proven by crafted states (numpy's
  ``state`` setter, and the multiplier's inverse mod 2**128 to choose the
  next two output words): for each of the 256 steps of both ziggurats the
  draw lands just inside the fast branch (at integer 1 the value is the
  width entry itself; at ``k - 1`` the largest integer the bound ``k``
  accepts) and just inside the slow branch (at ``k``), and on either side
  of the wedge test the density entries decide.  The branch shows in the
  state: the fast one consumes one word, an accepted wedge two.
* ``derive_seed``'s pure SHA-256 equals ``hashlib``'s.
* ``import repro`` loads no numpy, and a pod at work loads neither
  ``numpy.random`` nor OpenSSL's ``_hashlib``; a source scan keeps
  module-level numpy imports out of the ``import repro`` closure.

``CHAOS_MAX_EXAMPLES`` scales the search effort (the nightly job runs
2,000); tier-1 never runs fewer than 100 examples.
"""

import ast
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngFactory, Stream, derive_seed
from repro.sim.ziggurat import FE, FI, KE, KI, WE, WI

from . import reference_rng as ref

MAX_EXAMPLES = max(100, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")))
ROOT = Path(__file__).resolve().parents[1]

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**200),
)
FINITE = dict(allow_nan=False, allow_infinity=False)
DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e9, 1e9, **FINITE),
              st.floats(0.0, 1e9, **FINITE)),
    st.tuples(st.just("exponential"), st.floats(0.0, 1e6, **FINITE)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.one_of(st.integers(1, 64),
                         st.sampled_from([2**32 - 1, 2**32, 2**32 + 1,
                                          2**62, 3 * 2**61 + 7]),
                         st.integers(1, 2**62))),
    st.tuples(st.just("lognormal"), st.floats(-10.0, 10.0, **FINITE),
              st.floats(0.0, 3.0, **FINITE)),
    st.tuples(st.just("standard_normal")),
)


def draw(rng, op):
    """One draw of ``op`` from a ``Stream`` or a numpy generator."""
    kind, *args = op
    if kind == "uniform":
        low, span = args
        return rng.uniform(low, low + span)
    if kind == "integers":
        low, span = args
        return int(rng.integers(low, low + span))
    return getattr(rng, kind)(*args)


def same(a, b) -> bool:
    """Bit-equal, NaN included."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


class TestDrawForDraw:
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=SEEDS, ops=st.lists(DRAWS, max_size=200))
    def test_every_draw_matches_numpy(self, seed, ops):
        import numpy as np

        stream, oracle = Stream(seed), np.random.default_rng(seed)
        assert ref.state_of(stream) == ref.state_of(oracle)
        for i, op in enumerate(ops):
            ours, theirs = draw(stream, op), draw(oracle, op)
            if not isinstance(theirs, int):
                theirs = float(theirs)
            assert same(ours, theirs), (i, op, ours, theirs)
        assert ref.state_of(stream) == ref.state_of(oracle)

    def test_the_buffered_half_outlives_other_draws(self):
        """A 32-bit ``integers`` splits a word; the upper half waits through
        64-bit draws of every other kind for the next one."""
        import numpy as np

        stream, oracle = Stream(11), np.random.default_rng(11)
        ops = [("integers", 0, 1000), ("random",), ("exponential", 2.0),
               ("uniform", 0.0, 5.0), ("lognormal", 1.0, 0.5),
               ("integers", 0, 2**40), ("integers", 0, 1000)]
        for op in ops[:-1]:
            assert same(draw(stream, op), float(draw(oracle, op))
                        if op[0] != "integers" else int(draw(oracle, op)))
            assert stream.uinteger is not None
            assert ref.state_of(stream) == ref.state_of(oracle)
        assert draw(stream, ops[-1]) == int(draw(oracle, ops[-1]))
        assert stream.uinteger is None
        assert ref.state_of(stream) == ref.state_of(oracle)

    def test_factory_streams_are_the_numpy_streams(self):
        ours, theirs = RngFactory(17), ref.RngFactory(17)
        for name in ("echo-client", "raft-n0", "perf/block", "serve/bg"):
            a, b = ours.get(name), theirs.get(name)
            assert [a.exponential(1e-4) for _ in range(50)] == [
                float(b.exponential(1e-4)) for _ in range(50)]
            assert ref.state_of(ours.fresh(name)) == ref.state_of(
                theirs.fresh(name))

    def test_derive_seed_is_sha256(self):
        names = random.Random(5)
        for _ in range(300):
            name = "".join(chr(names.randrange(32, 0x2FF))
                           for _ in range(names.randrange(0, 150)))
            root = names.randrange(-2**70, 2**70)
            assert derive_seed(root, name) == ref.derive_seed(root, name)


def exponential_word(ri: int, index: int) -> int:
    return ri << 11 | index << 3 | 5


def normal_word(ri: int, index: int, negative: bool) -> int:
    return 3 << 61 | ri << 9 | negative << 8 | index


def boundary(accept) -> int | None:
    """The least 53-bit ``u`` that ``accept(u * 2**-53)`` rejects (the test
    is monotone in ``u``), or ``None`` when no ``u`` or every ``u`` does."""
    lo, hi = 0, 1 << 53
    if not accept(0.0) or accept((hi - 1) * 2.0**-53):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accept(mid * 2.0**-53) else (lo, mid)
    return hi


def wedges(index, bound, top_ri, widths, densities, log_density) -> list:
    """``[(ri, x, u)]`` for step ``index``'s wedge test: integers past the
    bound, from the inner edge (a boundary uniform near 1, where the upper
    density decides) to the outer (near 0, where the lower one does), whose
    ``x`` the committed densities accept for a uniform of
    ``(u - 1) * 2**-53`` and reject from ``u * 2**-53`` on."""
    high, low = densities[index - 1], densities[index]
    found = []
    for part in (0, 8, 64, 128, 192, 248, 255):
        ri = bound + (top_ri - bound) * part // 256
        x = ri * widths[index]
        u = boundary(lambda unit: (high - low) * unit + low < math.exp(log_density(x)))
        if u is not None:
            found.append((ri, x, u))
    return found


def crafted_draw(first, second, hi_bits, ours_draw, theirs_draw) -> tuple:
    """One draw from a ``Stream`` and from numpy, both put at a state whose
    next output words are ``first`` and ``second``: the (equal) value and
    the number of words the draw consumed."""
    state, inc = ref.state_before(first, second, hi_bits)
    stream, oracle = ref.stream_at(state, inc), ref.generator_at(state, inc)
    ours, theirs = ours_draw(stream), float(theirs_draw(oracle))
    assert same(ours, theirs), (hex(first), hex(second), ours, theirs)
    after = ref.state_of(oracle)
    assert ref.state_of(stream) == after
    words = 0
    while state != after[0]:
        state, words = (state * ref.MULT + inc) & ref._M128, words + 1
    return ours, words


class TestZigguratTables:
    """Both branches of every step, crafted; see the module docstring.

    Step 1 of both ziggurats has an acceptance bound of 0, so it has no
    fast branch, and step 0's slow branch is the tail.  On steps 1-255,
    past the bound, the second word is the uniform of the wedge test; it is
    put at the last ``u`` the committed density entries accept and at the
    first they reject, where an entry one ulp off would let numpy decide
    the other way.
    """

    SECOND = 0x123456789ABCDEF

    def test_exponential_steps(self):
        def draw(ri, index, second=self.SECOND):
            return crafted_draw(exponential_word(ri, index), second,
                                index * 0x9E3779B97F4A7C15,
                                lambda s: s.exponential(1.0),
                                lambda g: g.exponential(1.0))

        for index, k in enumerate(KE):
            if k > 1:
                assert draw(1, index) == (WE[index], 1), index
            if k > 0:
                assert draw(k - 1, index)[1] == 1, index
            assert draw(k, index)[1] > 1, index
            found = wedges(index, k, (1 << 53) - 1, WE, FE, lambda v: -v) if index else []
            assert len(found) >= 3 or not index, index
            for ri, x, u in found:
                assert draw(ri, index, (u - 1) << 11 | 0x7FF) == (x, 2), index
                assert draw(ri, index, u << 11)[1] > 2, index

    def test_normal_steps(self):
        def draw(ri, index, negative, second=self.SECOND):
            return crafted_draw(normal_word(ri, index, negative), second,
                                index * 0x9E3779B97F4A7C15 + negative,
                                lambda s: s.standard_normal(),
                                lambda g: g.standard_normal())

        for index, k in enumerate(KI):
            for negative in (False, True):
                sign = -1.0 if negative else 1.0
                if k > 1:
                    assert draw(1, index, negative) == (sign * WI[index], 1), index
                if k > 0:
                    assert draw(k - 1, index, negative)[1] == 1, index
                assert draw(k, index, negative)[1] > 1, index
                found = wedges(index, k, (1 << 52) - 1, WI, FI,
                               lambda v: -0.5 * v * v) if index else []
                assert len(found) >= 3 or not index, index
                for ri, x, u in found:
                    assert draw(ri, index, negative, (u - 1) << 11 | 0x7FF) == (
                        sign * x, 2), index
                    assert draw(ri, index, negative, u << 11)[1] > 2, index


class TestSharpEdges:
    """Every argument numpy refuses, ``Stream`` refuses with ``ValueError``;
    the two it refuses beyond numpy's checks, and the one where numpy raises
    ``OverflowError`` instead, are listed in ``BEYOND_NUMPY`` and
    ``NUMPY_OVERFLOW``."""

    CASES = [
        ("exponential", (-1.0,), "scale"),
        ("exponential", (-1e-300,), "scale"),
        ("exponential", (-0.0,), "scale"),
        ("exponential", (-math.inf,), "scale"),
        ("exponential", (math.nan,), "scale"),
        ("lognormal", (0.0, -0.5), "sigma"),
        ("lognormal", (0.0, -0.0), "sigma"),
        ("lognormal", (0.0, math.nan), "sigma"),
        ("integers", (5, 5), "low < high"),
        ("integers", (5, 4), "low < high"),
        ("integers", (0, 0), "low < high"),
        ("integers", (10, -10), "low < high"),
        ("integers", (0, 2**63 + 1), "int64"),
        ("integers", (-2**63 - 1, 0), "int64"),
        ("uniform", (0.0, math.inf), "uniform"),
        ("uniform", (-math.inf, 0.0), "uniform"),
        ("uniform", (0.0, math.nan), "uniform"),
        ("uniform", (-1e308, 1e308), "uniform"),
        ("uniform", (1.0, 0.0), "uniform"),
    ]
    BEYOND_NUMPY = {("exponential", (math.nan,)), ("lognormal", (0.0, math.nan))}
    NUMPY_OVERFLOW = {("uniform", args) for args in [
        (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)]}

    @pytest.mark.parametrize("kind, args, match", CASES)
    def test_refused_as_numpy_refuses(self, kind, args, match):
        import numpy as np

        with pytest.raises(ValueError, match=match):
            getattr(Stream(1), kind)(*args)
        numpy_draw = getattr(np.random.default_rng(1), kind)
        key = (kind, args)
        if key in self.BEYOND_NUMPY:
            assert math.isnan(numpy_draw(*args))
        else:
            error = OverflowError if key in self.NUMPY_OVERFLOW else ValueError
            with pytest.raises(error):
                numpy_draw(*args)

    @pytest.mark.parametrize("kind, args", [
        ("exponential", (0.0,)), ("exponential", (math.inf,)),
        ("lognormal", (0.0, 0.0)), ("lognormal", (0.0, math.inf)),
        ("uniform", (2.0, 2.0)), ("integers", (7, 8))])
    def test_edges_numpy_accepts_are_accepted(self, kind, args):
        import numpy as np

        stream, numpy_rng = Stream(9), np.random.default_rng(9)
        assert getattr(stream, kind)(*args) == getattr(numpy_rng, kind)(*args)

    def test_a_refused_draw_consumes_nothing(self):
        stream = Stream(3)
        before = ref.state_of(stream)
        for bad in (lambda: stream.exponential(-1.0),
                    lambda: stream.integers(3, 3),
                    lambda: stream.uniform(0.0, math.inf)):
            with pytest.raises(ValueError):
                bad()
        assert ref.state_of(stream) == before


# -- what a simulator process loads --------------------------------------------

PROBE = """
import json, sys
import repro
bare = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
from repro.experiments.fig10 import run_echo
from repro.experiments.rack import main_rack
run_echo("oasis", 256, 20_000.0, duration_s=0.002, seed=17)
assert main_rack(["--hosts", "8", "--pools", "2", "--churn", "64",
                  "--duration", "0.002", "--json"]) == 0
print(json.dumps({"bare": bare, "after": sorted(sys.modules)}))
"""


def test_a_pod_loads_no_numpy_random_and_no_openssl():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=600, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["bare"] == []                      # ``import repro``: no numpy
    loaded = set(doc["after"])
    assert "repro.sim.rng" in loaded and "repro.core.raft.node" in loaded
    assert "numpy.random" not in loaded
    assert "_hashlib" not in loaded


def import_closure() -> list:
    """The ``repro`` modules ``import repro`` loads, as source paths."""
    code = ("import json, sys, repro; print(json.dumps(sorted("
            "m.__file__ for n, m in sys.modules.items() "
            "if n.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    return [Path(p) for p in json.loads(out.stdout)]


def module_level_numpy_imports(path: Path) -> list:
    """``import numpy`` / ``from numpy ...`` lines outside any function."""
    found = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import) and any(
                    a.name.split(".")[0] == "numpy" for a in child.names):
                found.append(child.lineno)
            if (isinstance(child, ast.ImportFrom) and child.level == 0
                    and (child.module or "").split(".")[0] == "numpy"):
                found.append(child.lineno)
            walk(child)

    walk(ast.parse(path.read_text()))
    return found


def test_the_import_closure_has_no_module_level_numpy_import():
    closure = import_closure()
    assert len(closure) > 50
    offenders = {str(p.relative_to(ROOT)): lines for p in closure
                 if (lines := module_level_numpy_imports(p))}
    assert offenders == {}


def test_the_scan_sees_a_module_level_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os\nif True:\n    import numpy as np\n"
                      "from numpy.random import default_rng\n"
                      "def f():\n    import numpy\n")
    assert module_level_numpy_imports(sample) == [3, 4]

