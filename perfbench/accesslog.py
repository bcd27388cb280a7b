"""Seeded synthetic Squid ``access.log`` generator.

The ``ingest-compare`` workload parses a proxy log the way
``repro ingest --compare`` does.  No real log ships with the benchmark, so
this module writes one: Zipf-popular streaming URLs spread over origin
hosts, requested by a client population, with a small seeded share of
lines the ingester must count as malformed and of well-formed lines its
default filters must drop (non-GET methods, 4xx/5xx statuses).

The same seed always yields a byte-identical log, and the generator
reports exactly how many malformed and filtered lines it injected so the
benchmark can check the ingest summary against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Lines the ingester's ``parse_squid_line`` rejects, one per corruption
#: kind real logs show: truncated records, a garbled timestamp, a lost
#: ``code/status`` separator and a non-numeric size.
_MALFORMED_KINDS = 4

#: Methods and statuses the default ingest filters drop.
_FILTERED_METHODS = ("POST", "HEAD", "CONNECT")
_FILTERED_STATUSES = (404, 403, 500, 503)


@dataclass(frozen=True)
class AccessLogSpec:
    """Shape of one synthetic log (everything except the seed)."""

    lines: int = 60_000
    urls: int = 3_000
    clients: int = 256
    servers: int = 40
    zipf_alpha: float = 0.73
    malformed_share: float = 0.01
    filtered_share: float = 0.03
    hit_share: float = 0.2
    start_timestamp: float = 1_066_036_250.0
    mean_interarrival_s: float = 0.05


@dataclass(frozen=True)
class GeneratedLog:
    """What was written, and what the ingester must report about it."""

    path: Path
    lines: int
    malformed: int
    filtered: int
    nbytes: int


def render_access_log(spec: AccessLogSpec, seed: int) -> tuple:
    """Render the log text for ``seed``; returns ``(text, malformed, filtered)``."""
    rng = np.random.default_rng((0x5A1D, seed & 0xFFFFFFFF))
    ranks = np.arange(1, spec.urls + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_alpha
    weights /= weights.sum()
    object_of_line = rng.choice(spec.urls, size=spec.lines, p=weights)
    object_server = rng.integers(0, spec.servers, size=spec.urls)
    object_bytes = np.maximum(
        rng.lognormal(mean=15.0, sigma=0.8, size=spec.urls), 64_000.0
    ).astype(np.int64)
    client_of_line = rng.integers(0, spec.clients, size=spec.lines)
    arrivals = spec.start_timestamp + np.cumsum(
        rng.exponential(spec.mean_interarrival_s, size=spec.lines)
    )
    elapsed_ms = rng.integers(20, 20_000, size=spec.lines)
    # A partial transfer (status 206) moves a prefix of the object.
    partial = rng.random(spec.lines) < 0.15
    fraction = rng.uniform(0.05, 1.0, size=spec.lines)
    hit = rng.random(spec.lines) < spec.hit_share
    kind_draw = rng.random(spec.lines)
    malformed = kind_draw < spec.malformed_share
    filtered = (~malformed) & (
        kind_draw < spec.malformed_share + spec.filtered_share
    )
    malformed_kind = rng.integers(0, _MALFORMED_KINDS, size=spec.lines)
    filter_pick = rng.integers(0, 2 * len(_FILTERED_METHODS), size=spec.lines)

    lines = []
    for index in range(spec.lines):
        object_id = int(object_of_line[index])
        size = int(object_bytes[object_id])
        status = 200
        if partial[index]:
            status = 206
            size = max(int(size * fraction[index]), 1)
        method = "GET"
        if filtered[index]:
            pick = int(filter_pick[index])
            if pick < len(_FILTERED_METHODS):
                method = _FILTERED_METHODS[pick]
            else:
                status = _FILTERED_STATUSES[pick % len(_FILTERED_STATUSES)]
                size = 512
        code = "TCP_HIT" if hit[index] else "TCP_MISS"
        # Squid stamps a line when the transfer completes, so concurrent
        # transfers leave the log slightly out of arrival order.
        stamp = arrivals[index] + elapsed_ms[index] / 1000.0
        client = int(client_of_line[index])
        host = f"media{int(object_server[object_id])}.example.net"
        fields = [
            f"{stamp:.3f}",
            f"{int(elapsed_ms[index]):6d}",
            f"10.{client // 256}.{client % 256}.{1 + client % 250}",
            f"{code}/{status}",
            str(size),
            method,
            f"http://{host}/clips/{object_id:05d}.rm",
            "-",
            f"DIRECT/{host}",
            "video/x-pn-realvideo",
        ]
        if malformed[index]:
            kind = int(malformed_kind[index])
            if kind == 0:
                fields = fields[:5]
            elif kind == 1:
                fields[0] = "17:04:11"
            elif kind == 2:
                fields[3] = f"{code}-{status}"
            else:
                fields[4] = "n/a"
        lines.append(" ".join(fields))
    text = "\n".join(lines) + "\n"
    return text, int(malformed.sum()), int(filtered.sum())


def write_access_log(directory: Path, spec: AccessLogSpec, seed: int) -> GeneratedLog:
    """Write the seeded log into ``directory``; the caller removes it."""
    text, malformed, filtered = render_access_log(spec, seed)
    path = Path(directory) / f"access-{seed}.log"
    data = text.encode("ascii")
    path.write_bytes(data)
    return GeneratedLog(
        path=path,
        lines=spec.lines,
        malformed=malformed,
        filtered=filtered,
        nbytes=len(data),
    )
