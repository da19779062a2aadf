"""The fault-tolerance constants keep the values the options once carried.

The detector's suspicion threshold, window and jitter floor, the
acceptable pause, the suspect heal time, the backoff's growth and cap,
and the rebuild, idle and drain deadlines are module constants rather
than option fields. These tests pin each one, and pin the simulator's
detection latency bit for bit, so a change to any of them is deliberate.
"""

import inspect

from repro.comms.ft import FaultToleranceOptions
from repro.comms.ft import channel as ft_channel
from repro.comms.ft.channel import FtChannel
from repro.comms.ft.rebuild import rebuild_communicator
from repro.mpi import run_spmd
from repro.overlap import scheduler
from repro.sim.faultmodel import ft_detection_seconds


def default_channel():
    [ch] = run_spmd(1, FtChannel)
    return ch


def test_default_detector_parameters():
    det = default_channel().detector
    assert det.window == 32
    assert det.phi_suspect == 2.0
    assert det.phi_dead == 8.0
    assert det.min_std_s == 0.004
    assert det.bootstrap_interval_s == 0.25
    assert det.suspect_heal_s == 1.0
    assert det.acceptable_pause_s == 3 * 0.25


def test_default_retry_policy():
    retry = default_channel().retry
    assert retry.max_retries == 3
    assert retry.base_delay_s == 0.002
    assert retry.factor == 2.0
    assert retry.max_delay_s == 0.05
    assert retry.jitter == 0.0
    assert [retry.delay_s(k) for k in range(6)] == [
        0.002, 0.004, 0.008, 0.016, 0.032, 0.05,
    ]


def test_deadlines():
    assert ft_channel.IDLE_SHUTDOWN_S == 2.0
    timeout = inspect.signature(rebuild_communicator).parameters["timeout"]
    assert timeout.default == 5.0
    assert scheduler.DRAIN_TIMEOUT_S == 60.0


def test_detection_seconds_unchanged():
    # the floats the options-driven detector gave before the constants
    assert ft_detection_seconds() == 1.022448004973222
    fast = FaultToleranceOptions(heartbeat_interval_s=0.1, phi_dead=10.0)
    assert ft_detection_seconds(fast) == 0.4254453635587897
