"""``repro.analysis.stats.percentile`` against numpy, bit for bit.

Every latency percentile under ``src/repro`` is the standard-library
``percentile``; numpy stays the oracle (``tests/reference_stats.py`` keeps
the ndarray code it replaced):

* Hypothesis draws records of 1-300 samples (duplicates, negatives, values
  spanning many magnitudes) and one of 25,000, and q from [0, 100] with 0,
  100, 99.9 and 99.99 always in reach; ``percentile`` must equal
  ``np.percentile`` with ``==``, and a sequence of q must give the same
  values from one sort.
* ``summarize_latencies``, ``AppClient.p99_timeline`` and
  ``EchoStats.loss_timeline`` must equal their numpy-era versions, NaN bins
  in the same positions, on drawn records whose times sit on bin edges, and
  on Fig 14's own failover timeline.

``CHAOS_MAX_EXAMPLES`` scales the search effort; tier-1 never runs fewer
than 100 examples.
"""

import math
import os
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarize_latencies
from repro.workloads.apps import AppClient
from repro.workloads.echo import EchoStats

from . import reference_stats as ref

MAX_EXAMPLES = max(100, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")))
SETTINGS = settings(max_examples=MAX_EXAMPLES, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SAMPLE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-5, 5).map(float),                  # ties
    st.floats(1e-3, 1e9, allow_nan=False).map(lambda x: round(x, 3)),
)
RECORDS = st.lists(SAMPLE, min_size=1, max_size=300)
QS = st.one_of(st.sampled_from([0.0, 100.0, 50.0, 90.0, 99.0, 99.9, 99.99]),
               st.floats(0.0, 100.0))


def same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


class TestPercentile:
    @SETTINGS
    @given(xs=RECORDS, q=QS)
    def test_equals_numpy(self, xs, q):
        assert percentile(xs, q) == np.percentile(xs, q)

    @SETTINGS
    @given(xs=RECORDS, qs=st.lists(QS, min_size=1, max_size=6))
    def test_a_sequence_of_q_reads_one_sort(self, xs, qs):
        assert percentile(xs, qs) == [percentile(xs, q) for q in qs]

    def test_a_record_of_25000(self):
        rng = random.Random(25_000)
        xs = [rng.lognormvariate(2.5, 0.6) for _ in range(24_000)]
        xs += [float(rng.randint(1, 40)) for _ in range(1_000)]   # ties
        qs = [0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 99.99, 100,
              *(rng.uniform(0, 100) for _ in range(200))]
        assert percentile(xs, qs) == [np.percentile(xs, q) for q in qs]

    def test_empty_is_nan_and_q_is_checked(self):
        assert math.isnan(percentile([], 50))
        with pytest.raises(ValueError):
            percentile([1.0], 100.5)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestSummaries:
    @SETTINGS
    @given(xs=st.lists(SAMPLE, max_size=300))
    def test_summarize_latencies(self, xs):
        want = ref.summarize_latencies(xs)
        del want["mean"]                # no reader; the key is gone
        got = summarize_latencies(xs)
        assert list(got) == list(want)
        assert all(same(got[k], want[k]) for k in want)

    @SETTINGS
    @given(data=st.data(), bin_s=st.sampled_from([0.1, 0.02, 0.05, 1e-3]),
           bins=st.integers(1, 12))
    def test_p99_timeline(self, data, bin_s, bins):
        duration = bins * bin_s
        edge = st.integers(0, bins + 1).map(lambda b: b * bin_s)
        time = st.one_of(edge, edge.map(lambda t: math.nextafter(t, -1)),
                         st.floats(0.0, duration * 1.1))
        pairs = data.draw(st.lists(st.tuples(time, SAMPLE), max_size=200))
        client = SimpleNamespace(response_times=[t for t, _ in pairs],
                                 latencies_us=[x for _, x in pairs])
        got = AppClient.p99_timeline(client, bin_s, duration)
        want = ref.p99_timeline(client.response_times, client.latencies_us,
                                bin_s, duration)
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want))

    @SETTINGS
    @given(times=st.lists(st.floats(0.0, 0.35), max_size=200),
           bin_s=st.sampled_from([0.1, 0.05, 0.03]))
    def test_loss_timeline(self, times, bin_s):
        stats = EchoStats()
        stats.outstanding = dict(enumerate(times))
        got = stats.loss_timeline(bin_s, 0.3)
        assert got == list(ref.loss_timeline(times, bin_s, 0.3))


def test_fig14_timeline_and_its_reductions(monkeypatch):
    """Fig 14's own failover run: the timeline equals the ndarray one, and
    its baseline and peak equal ``np.nanmedian`` / ``np.nanmax``."""
    from repro.experiments import fig14

    seen = []
    timeline = AppClient.p99_timeline

    def recording(self, bin_s, duration):
        seen.append(self)
        return timeline(self, bin_s, duration)

    monkeypatch.setattr(AppClient, "p99_timeline", recording)
    out = fig14.run(duration_s=0.6, rate_rps=2500, fail_at_s=0.322,
                    bin_s=0.005)
    (client,) = seen
    want = ref.p99_timeline(client.response_times, client.latencies_us,
                            0.005, 0.6)
    got = out["timeline_p99_us"]
    assert all(same(g, w) for g, w in zip(got, want)) and len(got) == 120
    assert np.isnan(want).sum() == 2      # bins the outage left empty
    pre = want[:62]
    assert out["baseline_p99_us"] == float(np.nanmedian(pre))
    spikes = [i for i, v in enumerate(got)
              if v > 3 * out["baseline_p99_us"] and i * 0.005 >= 0.317]
    assert spikes and out["peak_p99_ms"] == float(
        np.nanmax(want[spikes[0]:spikes[-1] + 1])) / 1000
