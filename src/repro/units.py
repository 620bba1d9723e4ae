"""Unit constants and formatting helpers used across the library.

The paper mixes decimal (GB/s link bandwidth, TFLOPS) and binary (MiB
on-chip memories, GiB HBM) units.  Keeping the constants in one module makes
every model's arithmetic explicit and auditable.
"""

from __future__ import annotations

# --- decimal (SI) byte units: used for bandwidths and link rates ----------
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12

# --- binary byte units: used for memory capacities -------------------------
KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3
TIB = 1024.0**4

# --- compute ----------------------------------------------------------------
MFLOP = 1e6
GFLOP = 1e9
TFLOP = 1e12
PFLOP = 1e15

# --- time -------------------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

# --- energy -----------------------------------------------------------------
KWH = 3.6e6  # joules per kilowatt-hour


def format_bytes(num_bytes: float, *, binary: bool = True) -> str:
    """Render a byte count with an appropriate unit suffix.

    >>> format_bytes(32 * GIB)
    '32.00 GiB'
    >>> format_bytes(1.2e12, binary=False)
    '1.20 TB'
    """
    if binary:
        steps = [(TIB, "TiB"), (GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")]
    else:
        steps = [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]
    for scale, suffix in steps:
        if abs(num_bytes) >= scale:
            return f"{num_bytes / scale:.2f} {suffix}"
    return f"{num_bytes:.0f} B"


def format_rate(bytes_per_second: float) -> str:
    """Render a bandwidth in decimal units, as vendors quote them.

    >>> format_rate(50 * GB)
    '50.00 GB/s'
    """
    return f"{format_bytes(bytes_per_second, binary=False)}/s"


def format_flops(flops_per_second: float) -> str:
    """Render a compute rate.

    >>> format_flops(275 * TFLOP)
    '275.0 TFLOPS'
    """
    for scale, suffix in [(PFLOP, "PFLOPS"), (TFLOP, "TFLOPS"),
                          (GFLOP, "GFLOPS"), (MFLOP, "MFLOPS")]:
        if abs(flops_per_second) >= scale:
            return f"{flops_per_second / scale:.1f} {suffix}"
    return f"{flops_per_second:.0f} FLOPS"


def format_seconds(seconds: float) -> str:
    """Render a duration with a readable unit.

    >>> format_seconds(0.0021)
    '2.10 ms'
    """
    if seconds >= HOUR:
        return f"{seconds / HOUR:.2f} h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.2f} min"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= MS:
        return f"{seconds / MS:.2f} ms"
    if seconds >= US:
        return f"{seconds / US:.2f} us"
    return f"{seconds / NS:.1f} ns"
