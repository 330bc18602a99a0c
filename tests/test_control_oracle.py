"""Differential test of the one-table control state against the twin-table
representation it replaced (PR 24; the PR 15/16 idiom).

``tests/reference_control.py`` is the parent's ``ControlState`` +
``AllocatorStateMachine``: separate NIC and SSD tables and a ``-storage``
twin of ``place`` / ``reacquire`` / ``release``.  Hypothesis draws command
sequences in the *new* vocabulary -- every op, both kinds, duplicate cids,
advancing ``lwm`` marks, failovers onto a live, a dead and no backup,
batches -- ``to_old`` rewrites each for the oracle, and after every step the
two machines must agree on everything replicated.  Along the way the new
machine is swapped for ``restore(snapshot())`` of itself (through JSON, as
``install_snapshot`` carries it), so a snapshot that loses SSD state shows up
as a divergence on the next command.

The generator keeps two promises the decide path keeps.  An instance has one
host for life: the parent's NIC place overwrote a shared ``hosts[ip]`` where
its SSD place only filled a gap and each release asked the other kind's
table whether to drop it; the one table keeps the host row per kind, which
reads the same as long as an instance never changes host.  And ``migrate``
is only decided for an instance that holds a NIC (``PodAllocator.migrate``
returns early otherwise), so it is not drawn inside a batch, where the
state it would meet is not known, and a drawn one is pointed at an instance
that holds a NIC (skipped when none does).

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly job);
tier-1 never runs fewer than 200 examples.
"""

import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator.policy import DeviceState
from repro.core.control import AllocatorStateMachine, ControlState
from repro.net.packet import make_ip

from .reference_control import ReferenceControlState, ReferenceStateMachine

MAX_EXAMPLES = max(200, int(os.environ.get("CHAOS_MAX_EXAMPLES", "25")))

#: name -> (kind, host, is_backup)
DEVICES = {
    "nic0": ("nic", "h0", False), "nic1": ("nic", "h1", False),
    "nic-b": ("nic", "h1", True),
    "ssd0": ("ssd", "h0", False), "ssd1": ("ssd", "h1", False),
}
NICS = [name for name, (kind, _h, _b) in DEVICES.items() if kind == "nic"]
IPS = [make_ip(10, 0, 0, i) for i in range(1, 4)]


def device_state(name):
    kind, host, is_backup = DEVICES[name]
    return DeviceState(name, host=host, capacity=100.0, is_backup=is_backup,
                       kind=kind)


def machines():
    new = AllocatorStateMachine(ControlState(lease_ttl_s=1.0))
    old = ReferenceStateMachine(ReferenceControlState(lease_ttl_s=1.0))
    for name, (kind, _host, _backup) in DEVICES.items():
        new.state.add_device(device_state(name))
        table = (old.state.devices if kind == "nic"
                 else old.state.storage_devices)
        table[name] = device_state(name)
    return new, old


def to_old(cmd):
    """One command of the seven-op vocabulary, as the parent spelt it."""
    op = cmd["op"]
    if op == "batch":
        return {**cmd, "cmds": [to_old(sub) for sub in cmd["cmds"]]}
    if op == "expire":
        return {**cmd, "entries": [[ip, dev, epoch, DEVICES[dev][0]]
                                   for ip, dev, epoch in cmd["entries"]]}
    if op == "migrate":
        return cmd
    old = dict(cmd)
    kind = DEVICES[old.pop("device")][0]
    old[kind] = cmd["device"]
    if kind == "ssd":
        old["op"] = op + "-storage"
        old.pop("backup", None)
    return old


# -- command strategies ---------------------------------------------------------

ips = st.sampled_from(IPS)
epochs = st.integers(0, 40)
demands = st.sampled_from([0.0, 0.25, 1.0, 2.5])
cids = st.one_of(st.none(), st.integers(1, 30))


@st.composite
def grants(draw):
    device = draw(st.sampled_from(sorted(DEVICES)))
    ip = draw(ips)
    backup = None
    if DEVICES[device][0] == "nic":
        backup = draw(st.sampled_from(
            [None] + [nic for nic in NICS if nic != device]))
    return {"op": draw(st.sampled_from(["place", "reacquire"])), "ip": ip,
            "host": f"h{ip & 1}", "device": device, "backup": backup,
            "demand": draw(demands), "epoch": draw(epochs)}


@st.composite
def releases(draw):
    cmd = {"op": "release", "ip": draw(ips),
           "device": draw(st.sampled_from(sorted(DEVICES))),
           "revoke_epoch": draw(epochs)}
    if draw(st.booleans()):
        cmd["demand"] = draw(demands)
    return cmd


@st.composite
def migrations(draw):
    old, new = draw(st.permutations(NICS))[:2]
    return {"op": "migrate", "ip": draw(ips), "old": old, "new": new,
            "demand": draw(demands), "revoke_epoch": draw(epochs),
            "grant_epoch": draw(epochs)}


@st.composite
def failovers(draw):
    # The backup is any other NIC or none; whether it is alive is up to the
    # failovers drawn before this one.
    device = draw(st.sampled_from(NICS))
    backup = draw(st.sampled_from(
        [None] + [nic for nic in NICS if nic != device]))
    # Decided against an older map: any instances, not only those still on
    # the device.
    moved = draw(st.lists(st.tuples(ips, epochs), min_size=2, max_size=3,
                          unique_by=lambda pair: pair[0]))
    return {"op": "failover", "device": device, "backup": backup,
            "revoke_epoch": draw(epochs),
            "moved": [list(pair) for pair in moved]}


@st.composite
def expiries(draw):
    entries = draw(st.lists(
        st.tuples(ips, st.sampled_from(sorted(DEVICES)), epochs), max_size=3))
    return {"op": "expire", "entries": sorted(list(e) for e in entries)}


singles = st.one_of(grants(), grants(), releases(), migrations(), failovers(),
                    expiries())


@st.composite
def stamped(draw, body):
    """``body`` with the fields ``_stamp`` / ``_propose`` add."""
    cmd = dict(draw(body))
    cid = draw(cids)
    if cid is not None:
        cmd["cid"] = cid
    if draw(st.integers(0, 3)) == 0:
        cmd["lwm"] = draw(st.integers(0, 31))
    return cmd


batches = st.builds(lambda cmds: {"op": "batch", "cmds": cmds},
                    st.lists(stamped(st.one_of(
                        grants(), releases(), failovers(), expiries())),
                        max_size=4))
#: (command, swap the new machine for its own snapshot first?)
steps = st.lists(st.tuples(stamped(st.one_of(singles, singles, batches)),
                           st.integers(0, 7).map(lambda n: n == 0)),
                 min_size=8, max_size=50)


def decided_at(cmd, now):
    cmd = {**cmd, "now": now}
    if cmd["op"] == "batch":
        cmd["cmds"] = [decided_at(sub, now) for sub in cmd["cmds"]]
    return cmd


# -- agreement ------------------------------------------------------------------


def old_layout(signature):
    """The one-table ``signature()`` rearranged into the parent's tuple."""
    tables, leases, failovers_n, migrations_n, failover_log, epochs_seen = \
        signature
    (nic, nic_devices, nic_assigned, nic_parked), \
        (ssd, ssd_devices, ssd_assigned, ssd_parked) = tables
    assert (nic, ssd, ssd_parked) == ("nic", "ssd", ())
    return (nic_devices,
            tuple((name, failed, allocated)
                  for name, failed, _backup, allocated in ssd_devices),
            leases, nic_assigned, ssd_assigned, nic_parked,
            failovers_n, migrations_n, failover_log, epochs_seen)


def assert_agree(new, old):
    state, ref = new.state, old.state
    assert old_layout(state.signature()) == ref.signature()
    nic, ssd = state.tables["nic"], state.tables["ssd"]
    assert {**ssd.hosts, **nic.hosts} == ref.hosts
    assert nic.parked == ref.parked
    assert state.epochs_seen == ref.epochs_seen
    assert nic.backups == ref.backup_assignments and ssd.backups == {}
    assert (nic.demands, ssd.demands) == (ref.demands, ref.storage_demands)
    assert state.lease_expirations == ref.lease_expirations
    assert (state.applied_mark, state.applied_cids) == (
        ref.applied_mark, ref.applied_cids)
    for name, table in state.table_of.items():
        twin = (ref.devices if table is nic else ref.storage_devices)[name]
        assert table.devices[name].allocated == twin.allocated   # bit-equal
        assert table.devices[name].failed == twin.failed


@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps)
def test_one_table_machine_matches_the_twin_table_oracle(sequence):
    new, old = machines()
    for step, (cmd, reseed) in enumerate(sequence):
        if reseed:
            new.restore(json.loads(json.dumps(new.state.snapshot())))
            assert_agree(new, old)
        if cmd["op"] == "migrate":
            holders = sorted(new.state.tables["nic"].assignments)
            if not holders:
                continue
            cmd = {**cmd, "ip": holders[cmd["ip"] % len(holders)]}
        cmd = decided_at(cmd, step * 0.4)     # leases (ttl 1 s) do expire
        applied = new.apply(cmd)
        assert applied == old.apply(to_old(cmd))
        assert_agree(new, old)
        if applied and cmd["op"] == "failover":
            took, ref = new.last_failover, old.last_failover
            assert (took["device"], took["backup"], took["moved"]) == (
                ref["nic"], ref["backup"], ref["moved"])


def test_snapshot_round_trips_with_ssd_state_present():
    new, _old = machines()
    ip = IPS[0]
    for cid, device in enumerate(("nic0", "ssd1"), 1):
        new.apply({"op": "place", "cid": cid, "ip": ip, "host": "h1",
                   "device": device, "backup": None, "demand": 0.5,
                   "epoch": cid, "now": 0.0})
    new.apply({"op": "expire", "cid": 3, "now": 2.0,
               "entries": [[ip, "nic0", 3], [ip, "ssd1", 4]]})
    state = new.state
    assert state.tables["nic"].parked == {ip: ("h1", 0.5)}      # movable
    assert state.tables["ssd"].assignments == {ip: "ssd1"}      # stays put
    snap = json.loads(json.dumps(state.snapshot()))
    restored = ControlState.restore(snap)
    assert restored.signature() == state.signature()
    assert restored.snapshot() == state.snapshot()
    assert restored.tables["ssd"].demands == {ip: 0.5}
    assert restored.table_of["ssd1"] is restored.tables["ssd"]
    assert restored.tables["ssd"].devices["ssd1"].kind == "ssd"


def test_machine_restore_keeps_late_devices_of_either_kind():
    """Devices register outside the log: one newer than the snapshot being
    installed carries over, whichever table it belongs to."""
    new, _old = machines()
    snap = new.state.snapshot()
    late = [DeviceState("nic-late", host="h0", capacity=100.0),
            DeviceState("ssd-late", host="h0", capacity=4.0, kind="ssd")]
    for device in late:
        new.state.add_device(device)
    new.restore(snap)
    for device in late:
        table = new.state.tables[device.kind]
        assert table.devices[device.name] is device
        assert new.state.table_of[device.name] is table
    assert new.apply({"op": "place", "cid": 1, "ip": IPS[0], "host": "h0",
                      "device": "ssd-late", "demand": 1.0, "epoch": 1,
                      "now": 0.0})
    assert new.state.tables["ssd"].devices["ssd-late"].allocated == 1.0
