"""Proxy filtering — the paper's §3 data-preprocessing step.

"A possible pitfall in our analysis is the existence of enterprise or ISP
HTTP proxies, since the CDN server's TCP connection would terminate at the
proxy ... We filter sessions using a proxy when: (i) we see different
client IP addresses or user agents between HTTP requests and client-side
beacons, or (ii) the client IP address appears in a very large number of
sessions (e.g., more minutes of video per day than there are minutes in a
day).  After filtering proxies, our dataset consists of 77% of sessions."

Rule (ii) is stated in absolute wall-clock terms; for arbitrary collection
windows we generalize it to *physical impossibility*: one client IP cannot
watch more media time than the collection window contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..telemetry.dataset import Dataset

__all__ = ["ProxyFilterReport", "filter_proxies"]


@dataclass
class ProxyFilterReport:
    """What the filter removed and why."""

    n_input_sessions: int
    n_kept_sessions: int
    ip_mismatch_sessions: Set[str] = field(default_factory=set)
    ua_mismatch_sessions: Set[str] = field(default_factory=set)
    mega_ip_sessions: Set[str] = field(default_factory=set)
    mega_ips: Set[str] = field(default_factory=set)

    @property
    def n_removed(self) -> int:
        return self.n_input_sessions - self.n_kept_sessions

    @property
    def kept_fraction(self) -> float:
        if self.n_input_sessions == 0:
            return 0.0
        return self.n_kept_sessions / self.n_input_sessions

    def removal_reasons(self) -> Dict[str, int]:
        """Counts per rule (a session can match several)."""
        return {
            "ip_mismatch": len(self.ip_mismatch_sessions),
            "ua_mismatch": len(self.ua_mismatch_sessions),
            "mega_ip": len(self.mega_ip_sessions),
        }


def _collection_window_ms(dataset: Dataset) -> float:
    """Length of the collection window, from session-start spread.

    Adds one hour of slack so the last sessions' own watch time does not
    make legitimate tail clients look impossible.
    """
    starts = [s.start_ms for s in dataset.player_sessions]
    if not starts:
        return 0.0
    return (max(starts) - min(starts)) + 3_600_000.0


def filter_proxies(
    dataset: Dataset,
    media_budget_factor: float = 1.0,
    min_sessions_for_mega_ip: int = 20,
) -> Tuple[Dataset, ProxyFilterReport]:
    """Remove proxy sessions; returns (filtered dataset, report).

    *media_budget_factor* scales the physical watch-time budget of one IP
    (1.0 = exactly the collection window, the paper's "more minutes of
    video per day than there are minutes in a day" generalized).
    *min_sessions_for_mega_ip* guards the volume rule against tiny datasets.
    """
    if media_budget_factor <= 0:
        raise ValueError("media_budget_factor must be positive")

    # counted while iterating: a spilled dataset yields its sessions lazily
    player_sessions = {}
    n_input_sessions = 0
    for session in dataset.player_sessions:
        player_sessions[session.session_id] = session
        n_input_sessions += 1
    report = ProxyFilterReport(n_input_sessions=n_input_sessions, n_kept_sessions=0)

    # Rule (i): IP / user-agent mismatch between CDN logs and beacons.
    for cdn_session in dataset.cdn_sessions:
        beacon = player_sessions.get(cdn_session.session_id)
        if beacon is None:
            continue
        if beacon.client_ip != cdn_session.client_ip:
            report.ip_mismatch_sessions.add(cdn_session.session_id)
        if beacon.user_agent != cdn_session.user_agent:
            report.ua_mismatch_sessions.add(cdn_session.session_id)

    # Rule (ii): one CDN-visible IP watching more media than time allows.
    window_ms = _collection_window_ms(dataset)
    media_by_session: Dict[str, float] = {}
    for chunk in dataset.player_chunks:
        media_by_session[chunk.session_id] = (
            media_by_session.get(chunk.session_id, 0.0) + chunk.chunk_duration_ms
        )
    sessions_by_ip: Dict[str, List[str]] = {}
    media_by_ip: Dict[str, float] = {}
    for cdn_session in dataset.cdn_sessions:
        sessions_by_ip.setdefault(cdn_session.client_ip, []).append(cdn_session.session_id)
        media_by_ip[cdn_session.client_ip] = media_by_ip.get(
            cdn_session.client_ip, 0.0
        ) + media_by_session.get(cdn_session.session_id, 0.0)
    if window_ms > 0:
        for ip, media_ms in media_by_ip.items():
            too_many = len(sessions_by_ip[ip]) >= min_sessions_for_mega_ip
            impossible = media_ms > media_budget_factor * window_ms
            if too_many and impossible:
                report.mega_ips.add(ip)
                report.mega_ip_sessions.update(sessions_by_ip[ip])

    removed = (
        report.ip_mismatch_sessions
        | report.ua_mismatch_sessions
        | report.mega_ip_sessions
    )
    kept_ids = [s.session_id for s in dataset.player_sessions if s.session_id not in removed]
    filtered = dataset.filter_sessions(kept_ids)
    report.n_kept_sessions = len(kept_ids)
    return filtered, report
