"""The oracle's closing-entry map and the latency join, on a hand-built trace."""

from types import SimpleNamespace

import pytest

from qoebench.serving import Oracle, build_oracle, diff_diagnoses, join_latencies
from repro.capture.weblog import WeblogEntry

PAGE = "www.youtube.com"
MEDIA = "r4---sn-abc.googlevideo.com"


def entry(subscriber, t, host):
    return WeblogEntry(
        subscriber_id=subscriber,
        timestamp_s=t,
        server_name=host,
        server_ip="10.0.0.1",
        server_port=443,
        object_bytes=100_000,
        transaction_s=0.5,
        rtt_min_ms=20.0,
        rtt_avg_ms=30.0,
        rtt_max_ms=40.0,
        bdp_bytes=1000.0,
        bif_avg_bytes=500.0,
        bif_max_bytes=900.0,
        loss_pct=0.0,
        retx_pct=0.0,
        encrypted=True,
    )


class EchoFramework:
    """Diagnoses every record as 'no stall', keeping its id."""

    def diagnose(self, records):
        return [SimpleNamespace(session_id=r.session_id, stall_class="no",
                                representation_class=None, has_quality_switches=None)
                for r in records]


def trace():
    return [
        entry("a", 0.0, PAGE),    # 0
        entry("a", 1.0, MEDIA),   # 1
        entry("b", 1.5, PAGE),    # 2
        entry("a", 2.0, MEDIA),   # 3
        entry("b", 2.5, MEDIA),   # 4
        entry("a", 3.0, MEDIA),   # 5
        entry("b", 3.5, MEDIA),   # 6
        entry("b", 4.0, MEDIA),   # 7
        entry("a", 5.0, PAGE),    # 8: new watch page closes a/online-1
        entry("a", 6.0, MEDIA),   # 9
        entry("b", 60.0, MEDIA),  # 10: idle gap (> 30 s) closes b/online-1
    ]


def test_oracle_maps_each_in_stream_session_to_the_entry_that_closed_it():
    oracle = build_oracle(EchoFramework(), trace())
    assert oracle.closing == {"a/online-1": 8, "b/online-1": 10}
    # Sessions still open at the end are flushed: a's second one has too
    # few media chunks and is discarded, b's second one likewise.
    assert oracle.sessions == 2


def test_join_measures_from_the_closing_entrys_send_time():
    closing = {"a/online-1": 8, "b/online-1": 10}
    sent_at = [100.0 + i for i in range(11)]
    callbacks = [
        ("warm-0/online-1", 99.0),     # warm-up subscriber: ignored
        ("a/online-1", 108.25),
        ("b/online-1", 110.5),
        ("a/online-1", 200.0),         # a repeat never replaces the first
        ("b/online-2", 300.0),         # closed at drain: not in-stream
    ]
    latencies, missing = join_latencies(closing, sent_at, callbacks)
    assert sorted(latencies) == pytest.approx([0.25, 0.5])
    assert missing == []


def test_join_reports_sessions_that_never_reached_the_callback():
    latencies, missing = join_latencies({"a/online-1": 0, "b/online-1": 1}, [0.0, 1.0], [("a/online-1", 0.1)])
    assert latencies == pytest.approx([0.1])
    assert missing == ["b/online-1"]


def test_diff_counts_missing_and_unexpected_diagnoses():
    oracle = build_oracle(EchoFramework(), trace())
    right = EchoFramework().diagnose([SimpleNamespace(session_id=s) for s in ("a/online-1", "b/online-1")])
    assert diff_diagnoses(oracle, right) == (0, 0)
    wrong = list(right)
    wrong[0] = SimpleNamespace(**{**vars(wrong[0]), "stall_class": "severe"})
    assert diff_diagnoses(oracle, wrong) == (1, 1)
    assert diff_diagnoses(oracle, right[:1]) == (1, 0)
    assert diff_diagnoses(Oracle(expected=oracle.expected, closing={}), right + right[:1]) == (0, 1)
