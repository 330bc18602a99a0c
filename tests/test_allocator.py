"""Unit tests for the pod-wide allocator pieces: leases, telemetry, policy."""

import pytest

from repro.core.allocator.leases import Lease, LeaseTable
from repro.core.allocator.policy import DeviceState, PlacementPolicy
from repro.core.allocator.telemetry import TelemetryStore
from repro.errors import AllocationError, LeaseError


class TestLeases:
    def test_grant_and_validity(self):
        table = LeaseTable(ttl_s=1.0)
        lease = table.grant(1, "nic0", now=0.0)
        assert lease.valid(0.5)
        assert not lease.valid(1.5)

    def test_double_grant_rejected(self):
        table = LeaseTable(ttl_s=1.0)
        table.grant(1, "nic0", now=0.0)
        with pytest.raises(LeaseError):
            table.grant(1, "nic0", now=0.1)

    def test_expired_lease_can_be_regranted(self):
        table = LeaseTable(ttl_s=1.0)
        table.grant(1, "nic0", now=0.0)
        table.grant(1, "nic0", now=5.0)   # old one expired

    def test_renew_extends(self):
        table = LeaseTable(ttl_s=1.0)
        lease = table.grant(1, "nic0", now=0.0)
        lease.renew(0.9)
        assert lease.valid(1.5)

    def test_renew_revoked_raises(self):
        table = LeaseTable(ttl_s=1.0)
        lease = table.grant(1, "nic0", now=0.0)
        table.revoke(1, "nic0")
        with pytest.raises(LeaseError):
            lease.renew(0.5)

    def test_revoke_device_returns_affected(self):
        table = LeaseTable(ttl_s=10.0)
        table.grant(1, "nic0", now=0.0)
        table.grant(2, "nic0", now=0.0)
        table.grant(3, "nic1", now=0.0)
        revoked = table.revoke_device("nic0")
        assert sorted(l.instance_ip for l in revoked) == [1, 2]
        assert len(table._by_key) == 1

    def test_renew_device(self):
        table = LeaseTable(ttl_s=1.0)
        table.grant(1, "nic0", now=0.0)
        table.grant(2, "nic0", now=0.0)
        assert table.renew_device("nic0", now=0.9) == 2

    def test_expired_listing(self):
        table = LeaseTable(ttl_s=1.0)
        table.grant(1, "nic0", now=0.0)
        table.grant(2, "nic1", now=5.0)
        expired = table.expired(now=2.0)
        assert [l.instance_ip for l in expired] == [1]

    def test_grant_over_expired_replaces_entry(self):
        table = LeaseTable(ttl_s=1.0)
        old = table.grant(1, "nic0", now=0.0)
        new = table.grant(1, "nic0", now=5.0)
        assert table.get(1, "nic0") is new
        assert new is not old

    def test_expired_lease_is_invalid_but_unrevoked(self):
        """Expiry and revocation are distinct: the sweep turns the former
        into the latter; consumers must check ``valid``, not ``revoked``."""
        table = LeaseTable(ttl_s=1.0)
        lease = table.grant(1, "nic0", now=0.0)
        assert not lease.valid(2.0)
        assert not lease.revoked

    def test_revoking_expired_leases_empties_sweep_listing(self):
        """The sweep's contract: revoke everything ``expired`` returns and
        the listing drains."""
        table = LeaseTable(ttl_s=1.0)
        table.grant(1, "nic0", now=0.0)
        table.grant(2, "nic1", now=0.0)
        for lease in table.expired(now=2.0):
            table.revoke(lease.instance_ip, lease.device)
        assert table.expired(now=2.0) == []
        assert len(table._by_key) == 0

    def test_grant_carries_epoch(self):
        table = LeaseTable(ttl_s=1.0)
        lease = table.grant(1, "nic0", now=0.0, epoch=7)
        assert lease.epoch == 7


class TestTelemetryStore:
    def _record(self, nic="nic0", host="h0", t=0.0, bw=1e9):
        return {"device": nic, "host": host, "time": t, "tx_bw": bw, "rx_bw": 0.0}

    def test_latest_and_load(self):
        store = TelemetryStore(interval_s=0.1)
        store.ingest(self._record(bw=2e9))
        assert store._latest["nic0"]["tx_bw"] == 2e9
        assert "unknown" not in store._latest

    def test_host_alive_within_threshold(self):
        store = TelemetryStore(interval_s=0.1, missed_threshold=3)
        store.ingest(self._record(t=1.0))
        assert store.dead_hosts(now=1.25) == []
        assert store.dead_hosts(now=1.5) == ["h0"]

    def test_never_reported_host_assumed_alive(self):
        store = TelemetryStore(interval_s=0.1)
        assert "mystery" not in store.dead_hosts(now=100.0)

    def test_dead_hosts_listing(self):
        store = TelemetryStore(interval_s=0.1, missed_threshold=3)
        store.ingest(self._record(host="h0", t=0.0))
        store.ingest(self._record(nic="nic1", host="h1", t=1.0))
        assert store.dead_hosts(now=1.05) == ["h0"]


class TestPlacementPolicy:
    def _devices(self):
        return {
            "local": DeviceState("local", host="h0", capacity=100.0),
            "remote-idle": DeviceState("remote-idle", host="h1", capacity=100.0),
            "remote-busy": DeviceState("remote-busy", host="h2", capacity=100.0,
                                       allocated=80.0),
            "backup": DeviceState("backup", host="h3", capacity=100.0,
                                  is_backup=True),
        }

    def test_local_first(self):
        policy = PlacementPolicy()
        chosen = policy.choose(self._devices(), host="h0", demand=10.0)
        assert chosen.name == "local"

    def test_least_loaded_remote_when_no_local(self):
        policy = PlacementPolicy()
        devices = self._devices()
        devices["local"].allocated = 20.0   # break the tie: remote-idle wins
        chosen = policy.choose(devices, host="h9", demand=10.0)
        assert chosen.name == "remote-idle"

    def test_backup_excluded_for_remote_hosts(self):
        policy = PlacementPolicy()
        devices = {"backup": DeviceState("backup", host="h3", capacity=100.0,
                                         is_backup=True)}
        with pytest.raises(AllocationError):
            policy.choose(devices, host="h9", demand=1.0)

    def test_backup_usable_locally(self):
        policy = PlacementPolicy()
        devices = {"backup": DeviceState("backup", host="h3", capacity=100.0,
                                         is_backup=True)}
        assert policy.choose(devices, host="h3", demand=1.0).name == "backup"

    def test_failed_devices_skipped(self):
        policy = PlacementPolicy()
        devices = self._devices()
        devices["local"].failed = True
        chosen = policy.choose(devices, host="h0", demand=10.0)
        assert chosen.name == "remote-idle"

    def test_capacity_respected_without_oversubscription(self):
        policy = PlacementPolicy(allow_oversubscription=1.0)
        devices = {"only": DeviceState("only", host="h0", capacity=100.0,
                                       allocated=95.0)}
        with pytest.raises(AllocationError):
            policy.choose(devices, host="h0", demand=10.0)

    def test_oversubscription_allows_overcommit(self):
        policy = PlacementPolicy(allow_oversubscription=2.0)
        devices = {"only": DeviceState("only", host="h0", capacity=100.0,
                                       allocated=95.0)}
        assert policy.choose(devices, host="h0", demand=50.0).name == "only"

    def test_choose_backup_prefers_designated(self):
        policy = PlacementPolicy()
        backup = policy.choose_backup(self._devices(), exclude="local")
        assert backup.name == "backup"

    def test_choose_backup_falls_back_to_least_loaded(self):
        policy = PlacementPolicy()
        devices = self._devices()
        del devices["backup"]
        backup = policy.choose_backup(devices, exclude="local")
        assert backup.name == "remote-idle"

    def test_choose_backup_none_when_all_failed(self):
        policy = PlacementPolicy()
        devices = {"d": DeviceState("d", host="h0", capacity=1.0, failed=True)}
        assert policy.choose_backup(devices) is None
