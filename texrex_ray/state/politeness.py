"""Per-host politeness: robots.txt parsing + access scheduling.

Semantics follow the reference's politeness manager (ref:
trpoliteness.pas):

- robots parser (ref: trpoliteness.pas:164-285): split into User-agent
  sections; the applicable section is chosen with precedence exact agent
  name > agent-name prefix > ``*``; keep its ``Disallow`` path prefixes and
  ``Crawl-delay`` seconds.
- ``seconds_until_retrieval(url, now)`` (ref: trpoliteness.pas:320-373):
  −1 if robots-disallowed; 0 if the host was never accessed; else
  ``max(max(robots_crawl_delay, min_politeness) − (now − last_access), 0)``.
- ``retrieved(url, now)`` records the access time.

Time here is VIRTUAL (integer rounds of the crawl engine): the reference
walker sleeps wall-clock seconds; in the hermetic sandbox one round ≡ one
second, preserving ordering semantics exactly for the single-walker
projection and politeness spacing for multi-walker runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit


@dataclass
class RobotsRules:
    disallows: list[str] = field(default_factory=list)
    crawl_delay: int = 0

    def allows(self, path: str) -> bool:
        if not path:
            path = "/"
        return not any(d and path.startswith(d) for d in self.disallows)


def parse_robots(body: str, agent: str = "texrex") -> RobotsRules:
    """Pick the most specific User-agent section (exact > prefix > *)."""
    agent_l = agent.lower()
    sections: list[tuple[str, list[str], int]] = []  # (ua, disallows, delay)
    cur_uas: list[str] = []
    cur_dis: list[str] = []
    cur_delay = 0
    in_section = False

    def flush():
        nonlocal cur_uas, cur_dis, cur_delay, in_section
        for ua in cur_uas:
            sections.append((ua, list(cur_dis), cur_delay))
        cur_uas, cur_dis, cur_delay, in_section = [], [], 0, False

    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if in_section:
                flush()
            cur_uas.append(val.lower())
        elif key == "disallow":
            in_section = True
            if val:
                cur_dis.append(val)
        elif key == "crawl-delay":
            in_section = True
            try:
                cur_delay = int(float(val))
            except ValueError:
                pass
    flush()

    best: tuple[int, RobotsRules] | None = None  # (specificity, rules)
    for ua, dis, delay in sections:
        if ua == agent_l:
            spec = 3
        elif ua != "*" and agent_l.startswith(ua):
            spec = 2
        elif ua == "*":
            spec = 1
        else:
            continue
        if best is None or spec > best[0]:
            best = (spec, RobotsRules(disallows=dis, crawl_delay=delay))
    return best[1] if best else RobotsRules()


@dataclass
class HostState:
    """ref: trpoliteness.pas:61-83 TTrHostAccessInfo."""

    last_access: int = -1
    robots: RobotsRules | None = None
    robots_fetched_at: int = -1


class PolitenessManager:
    """Per-host access bookkeeping for one frontier partition."""

    def __init__(
        self,
        min_politeness: int = 1,
        robots_refresh_interval: int = 10_000,
        agent: str = "texrex",
    ):
        self.min_politeness = min_politeness
        self.robots_refresh_interval = robots_refresh_interval
        self.agent = agent
        self.hosts: dict[str, HostState] = {}

    def _host_state(self, host: str) -> HostState:
        st = self.hosts.get(host)
        if st is None:
            st = HostState()
            self.hosts[host] = st
        return st

    def needs_robots(self, host: str, now: int) -> bool:
        st = self._host_state(host)
        return (
            st.robots is None
            or now - st.robots_fetched_at >= self.robots_refresh_interval
        )

    def set_robots(self, host: str, body: str | None, now: int) -> None:
        st = self._host_state(host)
        st.robots = parse_robots(body, self.agent) if body else RobotsRules()
        st.robots_fetched_at = now

    def seconds_until_retrieval(self, url: str, now: int) -> int:
        """−1 disallowed; 0 fetch now; >0 wait (ref: trpoliteness.pas:320-373)."""
        sp = urlsplit(url)
        host = (sp.hostname or "").lower()
        st = self._host_state(host)
        rules = st.robots or RobotsRules()
        if not rules.allows(sp.path or "/"):
            return -1
        if st.last_access < 0:
            return 0
        delay = max(rules.crawl_delay, self.min_politeness)
        return max(delay - (now - st.last_access), 0)

    def retrieved(self, url: str, now: int) -> None:
        host = (urlsplit(url).hostname or "").lower()
        self._host_state(host).last_access = now

    # -- snapshot / restore / host migration -------------------------------

    def snapshot(self) -> dict:
        return {
            "min_politeness": self.min_politeness,
            "robots_refresh_interval": self.robots_refresh_interval,
            "agent": self.agent,
            "hosts": {h: _encode(st) for h, st in self.hosts.items()},
        }

    @classmethod
    def restore(cls, snap: dict) -> "PolitenessManager":
        pm = cls(
            min_politeness=snap["min_politeness"],
            robots_refresh_interval=snap["robots_refresh_interval"],
            agent=snap["agent"],
        )
        pm.import_hosts(snap["hosts"])
        return pm

    def export_hosts(self, hosts: list[str]) -> dict:
        """Remove the given hosts' state and return it in the
        ``snapshot()["hosts"]`` encoding (hot-host migration)."""
        out = {}
        for h in hosts:
            st = self.hosts.pop(h, None)
            if st is not None:
                out[h] = _encode(st)
        return out

    def import_hosts(self, states: dict) -> None:
        for h, s in states.items():
            st = HostState(
                last_access=s["last_access"], robots_fetched_at=s["robots_fetched_at"]
            )
            if s["disallows"] is not None:
                st.robots = RobotsRules(
                    disallows=list(s["disallows"]), crawl_delay=s["crawl_delay"]
                )
            self.hosts[h] = st


def _encode(st: HostState) -> dict:
    return {
        "last_access": st.last_access,
        "robots_fetched_at": st.robots_fetched_at,
        "disallows": st.robots.disallows if st.robots else None,
        "crawl_delay": st.robots.crawl_delay if st.robots else 0,
    }
