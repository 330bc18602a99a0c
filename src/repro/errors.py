"""Exception hierarchy for the Oasis reproduction."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MemoryFault",
    "ProtectionFault",
    "ChannelError",
    "ChannelFullError",
    "DeviceError",
    "DeviceFailedError",
    "AllocationError",
    "LeaseError",
    "ConfigError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class MemoryFault(ReproError):
    """Access outside a mapped CXL region or past a region boundary."""


class ProtectionFault(MemoryFault):
    """An instance touched shared CXL memory outside its own buffer area."""


class ChannelError(ReproError):
    """Message-channel protocol violation (size, ownership, epoch)."""


class ChannelFullError(ChannelError):
    """Sender ran out of free slots (receiver's consumed counter too old).

    ``sent`` is how many messages of the refused batch did go out.
    """

    def __init__(self, message: str = "", sent: int = 0):
        super().__init__(message)
        self.sent = sent


class DeviceError(ReproError):
    """PCIe device protocol error (bad descriptor, queue misuse)."""


class DeviceFailedError(DeviceError):
    """Operation attempted on a failed device."""


class AllocationError(ReproError):
    """Pod-wide allocator could not satisfy a resource request."""


class LeaseError(ReproError):
    """Lease expired, revoked, or doubly granted."""


class ConfigError(ReproError):
    """Invalid configuration value."""
