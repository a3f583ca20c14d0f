"""Logging protocols: the paper's contribution plus its baselines.

* :class:`HalfmoonReadProtocol`  — log-free reads (Figure 5);
* :class:`HalfmoonWriteProtocol` — log-free writes (Figure 7);
* :class:`BokiProtocol`          — symmetric logging baseline;
* :class:`UnsafeProtocol`        — no logging, no exactly-once;
* :class:`TransitionalProtocol`  — logs everything, bridges both
  versioning schemas during a protocol switch (Section 5.2).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Invoker", "LoggedProtocol", "Protocol"),
    ".boki": ("BokiProtocol",),
    ".halfmoon_read": ("HalfmoonReadProtocol",),
    ".halfmoon_write": ("HalfmoonWriteProtocol",),
    ".registry": (
        "EXACTLY_ONCE_SYSTEMS", "PROTOCOL_CLASSES", "SWITCHABLE_PROTOCOLS",
        "SYSTEMS", "build_protocol", "protocol_names",
    ),
    ".transitional": ("TransitionalProtocol",),
    ".unsafe": ("UnsafeProtocol",),
})

__all__ = [
    "BokiProtocol",
    "EXACTLY_ONCE_SYSTEMS",
    "HalfmoonReadProtocol",
    "HalfmoonWriteProtocol",
    "Invoker",
    "LoggedProtocol",
    "PROTOCOL_CLASSES",
    "Protocol",
    "SWITCHABLE_PROTOCOLS",
    "SYSTEMS",
    "TransitionalProtocol",
    "UnsafeProtocol",
    "build_protocol",
    "protocol_names",
]
