"""Protocol registry: build protocols by name."""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..config import ProtocolConfig
from ..errors import ConfigError
from .base import Protocol
from .boki import BokiProtocol
from .halfmoon_read import HalfmoonReadProtocol
from .halfmoon_write import HalfmoonWriteProtocol
from .transitional import TransitionalProtocol
from .unsafe import UnsafeProtocol

PROTOCOL_CLASSES: Dict[str, Type[Protocol]] = {
    UnsafeProtocol.name: UnsafeProtocol,
    BokiProtocol.name: BokiProtocol,
    HalfmoonReadProtocol.name: HalfmoonReadProtocol,
    HalfmoonWriteProtocol.name: HalfmoonWriteProtocol,
    TransitionalProtocol.name: TransitionalProtocol,
}

#: The four systems every figure compares; ``unsafe`` is the control
#: that shows an audit can fire.
SYSTEMS = (
    UnsafeProtocol.name,
    BokiProtocol.name,
    HalfmoonReadProtocol.name,
    HalfmoonWriteProtocol.name,
)

#: The systems that promise exactly-once (every one but the control).
EXACTLY_ONCE_SYSTEMS = SYSTEMS[1:]

#: Names usable as switching targets (Section 4.7).
SWITCHABLE_PROTOCOLS = (
    HalfmoonReadProtocol.name,
    HalfmoonWriteProtocol.name,
)


def build_protocol(name: str,
                   config: Optional[ProtocolConfig] = None) -> Protocol:
    """Instantiate the protocol registered under ``name``."""
    cls = PROTOCOL_CLASSES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown protocol {name!r}; choose from "
            f"{sorted(PROTOCOL_CLASSES)}"
        )
    return cls(config)


def protocol_names() -> list:
    """Names of all registered protocols."""
    return sorted(PROTOCOL_CLASSES)
