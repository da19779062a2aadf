"""Phi-accrual failure detection over heartbeat inter-arrival times.

Classic Hayashibara-style accrual detection: each peer's heartbeat
inter-arrival times feed a sliding window; the suspicion level of a
silent peer is ``phi = -log10(P[interval > t_silent])`` under a normal
fit of that window. Phi grows continuously with silence, so one
detector serves two thresholds — ``phi_suspect`` (demote the schedule
away from the quiet rail) and ``phi_dead`` (trigger the elastic
communicator rebuild) — instead of a single brittle timeout.

The clock is injectable, so the unit suite drives the state machine
healthy → suspect → dead deterministically without sleeping, and the
analytic inverse (:meth:`PhiAccrualDetector.detection_latency_s`) gives
the simulator the expected time-to-detection for pricing recovery at
paper scale.
"""

from __future__ import annotations

import math
import threading
import time
from statistics import NormalDist
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "PEER_HEALTHY",
    "PEER_SUSPECT",
    "PEER_DEAD",
    "PhiAccrualDetector",
    "detector_for",
]

PEER_HEALTHY = "healthy"
PEER_SUSPECT = "suspect"
PEER_DEAD = "dead"

#: phi is capped here: a survival probability below ~1e-30 is silence
_PHI_CAP = 30.0

#: phi at which a peer becomes *suspect* (the demotion trigger)
PHI_SUSPECT = 2.0
#: sliding window of heartbeat inter-arrival samples
WINDOW = 32
#: floor on the interval standard deviation (jitter tolerance)
MIN_STD_S = 0.004
#: seconds a retransmit-marked peer stays suspect before healing
SUSPECT_HEAL_S = 1.0
#: the acceptable pause, in heartbeat intervals (Akka's heuristic)
PAUSE_BEATS = 3.0


class PhiAccrualDetector:
    """Sliding-window phi-accrual detector; thread-safe, injectable clock.

    Peers enter the window on :meth:`watch` (or their first
    :meth:`beat`). Until a peer has two intervals on record, phi is
    computed against the bootstrap interval so a peer that never beats
    still accrues suspicion. :meth:`note_slow` layers an experiential
    signal on top of the statistics: a peer whose messages needed
    retransmission is held suspect for ``suspect_heal_s`` even while
    its heartbeats look healthy (straggler ≠ silent).

    ``acceptable_pause_s`` is the Akka-style grace deducted from the
    observed silence before phi is computed: on oversubscribed hosts a
    live peer's heartbeat thread can stall for whole scheduler quanta,
    which tight inter-arrival statistics would misread as death.
    """

    def __init__(
        self,
        *,
        window: int = WINDOW,
        phi_suspect: float = PHI_SUSPECT,
        phi_dead: float = 8.0,
        min_std_s: float = MIN_STD_S,
        bootstrap_interval_s: float = 0.01,
        suspect_heal_s: float = SUSPECT_HEAL_S,
        acceptable_pause_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0 < phi_suspect < phi_dead:
            raise ValueError(
                f"need 0 < phi_suspect < phi_dead, got {phi_suspect} / {phi_dead}"
            )
        if window < 2:
            raise ValueError(f"window must be at least 2, got {window}")
        if acceptable_pause_s < 0:
            raise ValueError(
                f"acceptable_pause_s must be non-negative, got {acceptable_pause_s}"
            )
        self.window = int(window)
        self.phi_suspect = float(phi_suspect)
        self.phi_dead = float(phi_dead)
        self.min_std_s = float(min_std_s)
        self.bootstrap_interval_s = float(bootstrap_interval_s)
        self.suspect_heal_s = float(suspect_heal_s)
        self.acceptable_pause_s = float(acceptable_pause_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._last_beat: Dict[int, float] = {}
        self._intervals: Dict[int, List[float]] = {}
        self._dead: set[int] = set()
        self._slow_until: Dict[int, float] = {}
        self.beats_seen = 0

    # -- inputs --------------------------------------------------------------
    def watch(self, peer: int, now: Optional[float] = None) -> None:
        """Start the silence clock for ``peer`` without a heartbeat."""
        now = self._clock() if now is None else now
        with self._lock:
            self._last_beat.setdefault(peer, now)
            self._intervals.setdefault(peer, [])

    def beat(self, peer: int, now: Optional[float] = None) -> None:
        """Record one heartbeat arrival from ``peer``."""
        now = self._clock() if now is None else now
        with self._lock:
            self.beats_seen += 1
            if peer in self._dead:
                return  # death is final for this incarnation of the comm
            last = self._last_beat.get(peer)
            if last is not None:
                window = self._intervals.setdefault(peer, [])
                window.append(max(0.0, now - last))
                if len(window) > self.window:
                    del window[: len(window) - self.window]
            else:
                self._intervals.setdefault(peer, [])
            self._last_beat[peer] = now

    def mark_dead(self, peer: int) -> None:
        """Out-of-band confirmation (death notice / exhausted rebuild)."""
        with self._lock:
            self._dead.add(peer)

    def note_slow(self, peer: int, now: Optional[float] = None) -> None:
        """Hold ``peer`` suspect for ``suspect_heal_s`` (retransmit seen)."""
        now = self._clock() if now is None else now
        with self._lock:
            self._slow_until[peer] = now + self.suspect_heal_s

    def forget(self, peers: Iterable[int]) -> None:
        """Drop all state for ``peers`` (communicator rebuild renumbers)."""
        with self._lock:
            for peer in list(peers):
                self._last_beat.pop(peer, None)
                self._intervals.pop(peer, None)
                self._slow_until.pop(peer, None)
                self._dead.discard(peer)

    # -- suspicion ------------------------------------------------------------
    def _window_stats(self, peer: int) -> tuple[float, float]:
        """(mean, std) of the peer's interval window, with floors."""
        window = self._intervals.get(peer) or []
        if len(window) < 2:
            mean = self.bootstrap_interval_s
        else:
            mean = sum(window) / len(window)
            mean = max(mean, 1e-9)
        if len(window) < 2:
            std = self.min_std_s
        else:
            var = sum((x - mean) ** 2 for x in window) / (len(window) - 1)
            std = max(math.sqrt(var), self.min_std_s)
        return mean, std

    def phi(self, peer: int, now: Optional[float] = None) -> float:
        """Suspicion level of ``peer``; 0 when freshly beaten or unknown."""
        now = self._clock() if now is None else now
        with self._lock:
            if peer in self._dead:
                return _PHI_CAP
            last = self._last_beat.get(peer)
            if last is None:
                return 0.0  # never watched: no basis for suspicion
            mean, std = self._window_stats(peer)
        # the acceptable pause (Akka-style) absorbs scheduler stalls that
        # delay a live peer's heartbeat far beyond its usual jitter —
        # only silence past the grace accrues suspicion
        silent = now - last - self.acceptable_pause_s
        if silent <= 0:
            return 0.0
        # P[interval > silent] under Normal(mean, std); erfc keeps the
        # far tail accurate where 1 - cdf() would round to zero
        z = (silent - mean) / (std * math.sqrt(2.0))
        survival = 0.5 * math.erfc(z)
        if survival <= 10.0 ** (-_PHI_CAP):
            return _PHI_CAP
        return -math.log10(survival)

    def state(self, peer: int, now: Optional[float] = None) -> str:
        """healthy / suspect / dead classification of ``peer``."""
        now = self._clock() if now is None else now
        with self._lock:
            if peer in self._dead:
                return PEER_DEAD
            slow_until = self._slow_until.get(peer, 0.0)
        p = self.phi(peer, now)
        if p >= self.phi_dead:
            return PEER_DEAD
        if p >= self.phi_suspect or now < slow_until:
            return PEER_SUSPECT
        return PEER_HEALTHY

    def suspects(self, peers: Iterable[int], now: Optional[float] = None) -> List[int]:
        """Peers currently classified suspect (not dead)."""
        now = self._clock() if now is None else now
        return [p for p in peers if self.state(p, now) == PEER_SUSPECT]

    def dead_peers(self, peers: Optional[Iterable[int]] = None) -> set[int]:
        """Peers currently classified dead (confirmed or by silence)."""
        with self._lock:
            confirmed = set(self._dead)
            watched = list(self._last_beat) if peers is None else list(peers)
        now = self._clock()
        by_silence = {p for p in watched if self.phi(p, now) >= self.phi_dead}
        return confirmed | by_silence

    def snapshot(self, peers: Iterable[int]) -> dict:
        """Counter-style summary for telemetry export."""
        now = self._clock()
        states = {p: self.state(p, now) for p in peers}
        return {
            "beats_seen": self.beats_seen,
            "healthy": sum(1 for s in states.values() if s == PEER_HEALTHY),
            "suspect": sum(1 for s in states.values() if s == PEER_SUSPECT),
            "dead": sum(1 for s in states.values() if s == PEER_DEAD),
        }

    # -- analytics -------------------------------------------------------------
    def detection_latency_s(self, phi: Optional[float] = None) -> float:
        """Silence needed to reach ``phi`` under bootstrap statistics.

        The analytic inverse of :meth:`phi` at window defaults: the
        simulator prices expected time-to-detection with this, and
        the functional detector converges to it once windows fill.
        """
        phi = self.phi_dead if phi is None else float(phi)
        survival = 10.0 ** (-min(phi, _PHI_CAP))
        z = NormalDist().inv_cdf(1.0 - survival)
        return self.acceptable_pause_s + self.bootstrap_interval_s + z * self.min_std_s


def detector_for(options) -> PhiAccrualDetector:
    """The detector a :class:`~repro.comms.ft.FaultToleranceOptions` runs.

    Heartbeats bootstrap the inter-arrival statistics and set the
    acceptable pause (``PAUSE_BEATS`` intervals); ``phi_dead`` is the
    options' own. The FT channel watches its peers with this detector
    and :func:`repro.sim.faultmodel.ft_detection_seconds` prices its
    latency, so the wire and the simulator share one model.
    """
    beat = options.heartbeat_interval_s
    return PhiAccrualDetector(
        phi_dead=options.phi_dead,
        bootstrap_interval_s=beat,
        acceptable_pause_s=PAUSE_BEATS * beat,
    )
