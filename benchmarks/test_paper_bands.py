"""Every paper band at ``OASIS_SCALE``: each experiment's ``main()`` prints
its table or figure once, then every row of :mod:`repro.experiments.bands`
for it must hold (``-k fig10`` selects one figure's rows)."""

import functools
import importlib

import pytest

from repro.experiments.bands import BANDS
from repro.experiments.common import scale


@functools.cache
def main_results(module: str) -> dict:
    return importlib.import_module(f"repro.experiments.{module}").main()


@pytest.mark.parametrize("key", list(BANDS))
def test_paper_band(key):
    row = BANDS[key]
    values = row.values(main_results(row.module))
    assert row.holds(values), (key, row.paper, (row.lo, row.hi), values)


#: PR 15 changed how ``repro.mem`` stores lines, not which lines move: at full
#: scale the per-category link bytes are, to the last bit, what the per-line
#: model counted (45,002 NIC operations per row, scaled to 4 MOp/s).
PARENT_FULL_SCALE = {
    "busy_75": {"payload_gbps": 0.9180113772721212, "message_gbps": 1.4953660726189948,
                "total_gbps": 2.413377449891116, "ops_measured": 45002.0},
    "busy_1500": {"payload_gbps": 12.216011377272121, "message_gbps": 1.4953660726189948,
                  "total_gbps": 13.711377449891115, "ops_measured": 45002.0},
}


def test_table3_full_scale_link_bytes_are_pinned():
    if scale() == 1.0:
        results = main_results("table3")
        for load, expected in PARENT_FULL_SCALE.items():
            assert results[load] == expected, load
