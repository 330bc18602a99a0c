"""Oasis network engine: NIC pooling (§3.3)."""

from .backend import NetBackend
from .frontend import BackendLink, NetFrontend, VirtualNIC
from .messages import (
    NET_MESSAGE_SIZE,
    OP_RX,
    OP_RX_COMP,
    OP_TX,
    OP_TX_COMP,
    NetMessage,
)

__all__ = [
    "NetFrontend",
    "NetBackend",
    "VirtualNIC",
    "BackendLink",
    "NetMessage",
    "OP_TX",
    "OP_TX_COMP",
    "OP_RX",
    "OP_RX_COMP",
    "NET_MESSAGE_SIZE",
]
