"""The bench regression gate (``bench --check``).

``evaluate_check`` is a pure function of two records, so the gate rules
are tested directly: normalized packets per host second within
tolerance passes, beyond tolerance fails, events/second is only a
diagnostic, and the deterministic copy-count gate fails on any
increase.  The copy-count measurement itself is smoke-tested at a tiny
packet count.
"""

import pytest

from repro.exec.bench import (
    bench_memory,
    bench_tlp_segmentation,
    bench_virtqueue_walk,
    evaluate_check,
    measure_copies_per_packet,
)

#: The committed baseline's workload shape: 4 cells x 400 packets.
CELLS, PACKETS = 4, 400


def _baseline(wall_s=2.0, events=200_000, score=10_000_000.0, virtio_reads=12.0,
              xdma_reads=4.0):
    return {
        "schema": "bench-v2",
        "rev": "baseline",
        "workload": {"cells": CELLS, "packets": PACKETS},
        "serial": {
            "wall_s": wall_s,
            "events": events,
            "events_per_second": events / wall_s,
        },
        "micro": {
            "cpu_score": score,
            "end_to_end": {"wall_s": wall_s, "events_per_second": events / wall_s},
            "copy_counts": {
                "virtio": {"read": virtio_reads},
                "xdma": {"read": xdma_reads},
            },
        },
    }


def _current(wall_s=2.0, events=200_000, score=10_000_000.0, virtio_reads=12.0,
             xdma_reads=4.0):
    return {
        "cpu_score": score,
        "end_to_end": {
            "packets": CELLS * PACKETS,
            "wall_s": wall_s,
            "events": events,
            "events_per_second": events / wall_s,
        },
        "copy_counts": {
            "virtio": {"read": virtio_reads},
            "xdma": {"read": xdma_reads},
        },
    }


def test_identical_measurement_passes():
    ok, failures, details = evaluate_check(_baseline(), _current(), tolerance=0.15)
    assert ok and not failures
    assert details["packets_per_second"]["ratio"] == pytest.approx(1.0)
    assert details["packets_per_second"]["normalized"]


def test_small_regression_within_tolerance_passes():
    ok, failures, _ = evaluate_check(
        _baseline(), _current(wall_s=2.2), tolerance=0.15
    )
    assert ok and not failures


def test_large_regression_fails():
    ok, failures, details = evaluate_check(
        _baseline(), _current(wall_s=2.5), tolerance=0.15
    )
    assert not ok
    assert any("packets/s regressed" in failure for failure in failures)
    assert details["packets_per_second"]["ratio"] == pytest.approx(0.8)


def test_half_the_events_at_the_same_wall_time_passes():
    """Fewer simulator events per packet is a gain: events/s halves,
    packets/s does not move."""
    ok, failures, details = evaluate_check(
        _baseline(), _current(events=100_000), tolerance=0.15
    )
    assert ok and not failures
    assert details["packets_per_second"]["ratio"] == pytest.approx(1.0)
    assert details["events_per_second"]["current"] == pytest.approx(50_000.0)
    assert details["events_per_packet"] == {
        "baseline": pytest.approx(125.0), "current": pytest.approx(62.5)
    }


def test_same_events_at_longer_wall_time_fails():
    ok, failures, details = evaluate_check(
        _baseline(), _current(wall_s=2.0 * 1.3), tolerance=0.15
    )
    assert not ok
    assert any("packets/s regressed" in failure for failure in failures)
    assert details["packets_per_second"]["ratio"] == pytest.approx(1 / 1.3)


def test_cpu_score_normalization_excuses_a_slow_machine():
    """Half the machine speed and twice the wall time is not a code
    regression: the normalized ratio is 1.0."""
    ok, failures, details = evaluate_check(
        _baseline(), _current(wall_s=4.0, score=5_000_000.0), tolerance=0.15
    )
    assert ok and not failures
    assert details["packets_per_second"]["ratio"] == pytest.approx(1.0)


def test_faster_machine_cannot_hide_a_regression():
    """Twice the machine speed with flat packets/s IS a regression."""
    ok, failures, _ = evaluate_check(
        _baseline(), _current(score=20_000_000.0), tolerance=0.15
    )
    assert not ok


def test_copy_count_increase_fails_exactly():
    ok, failures, _ = evaluate_check(
        _baseline(), _current(virtio_reads=13.0), tolerance=0.15
    )
    assert not ok
    assert any("virtio" in failure and "copies/packet" in failure for failure in failures)


def test_copy_count_decrease_passes():
    ok, failures, _ = evaluate_check(
        _baseline(), _current(xdma_reads=3.0), tolerance=0.15
    )
    assert ok and not failures


def test_v1_baseline_compares_raw():
    """A pre-micro (bench-v1) baseline still gates, unnormalized and
    without the copy-count rule."""
    baseline = {
        "schema": "bench-v1",
        "workload": {"cells": CELLS, "packets": PACKETS},
        "serial": {"wall_s": 2.0, "events_per_second": 100_000.0},
    }
    ok, _, details = evaluate_check(baseline, _current(wall_s=2.2), tolerance=0.15)
    assert ok
    assert not details["packets_per_second"]["normalized"]
    assert details["events_per_packet"]["baseline"] is None
    ok, failures, _ = evaluate_check(baseline, _current(wall_s=2.5), tolerance=0.15)
    assert not ok and failures


def test_warm_cache_rerun_miss_fails():
    current = _current()
    current["cache_rerun"] = {"cells": 4, "hits": 3, "misses": 1}
    ok, failures, details = evaluate_check(_baseline(), current, tolerance=0.15)
    assert not ok
    assert any("warm cache rerun missed" in failure for failure in failures)
    assert details["cache_rerun"] == {"cells": 4, "hits": 3, "misses": 1}


def test_warm_cache_rerun_all_hits_passes():
    current = _current()
    current["cache_rerun"] = {"cells": 4, "hits": 4, "misses": 0}
    ok, failures, details = evaluate_check(_baseline(), current, tolerance=0.15)
    assert ok and not failures
    assert details["cache_rerun"]["misses"] == 0


def test_no_cache_rerun_section_is_fine():
    # bench --check without an active cache records no rerun; the
    # gate must not demand one.
    ok, _, details = evaluate_check(_baseline(), _current(), tolerance=0.15)
    assert ok and "cache_rerun" not in details


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        evaluate_check(_baseline(), _current(), tolerance=0.0)
    with pytest.raises(ValueError):
        evaluate_check(_baseline(), _current(), tolerance=1.0)


def test_baseline_without_eps_rejected():
    with pytest.raises(ValueError, match="packets/second unknown"):
        evaluate_check({"schema": "bench-v2"}, _current())


# -- microbench smoke ----------------------------------------------------------


def test_copy_count_measurement_is_deterministic():
    first = measure_copies_per_packet("virtio", packets=4, warmup=2)
    second = measure_copies_per_packet("virtio", packets=4, warmup=2)
    assert first == second
    assert first["read"] > 0  # the RX snapshot copy is real and counted


def test_copy_count_rejects_unknown_driver():
    with pytest.raises(ValueError, match="unknown driver"):
        measure_copies_per_packet("e1000", packets=2, warmup=1)


def test_micro_smoke():
    mem = bench_memory(block=4096, rounds=4)
    assert mem["read_copy_mb_s"] > 0 and mem["view_mb_s"] > 0
    tlp = bench_tlp_segmentation(payload=1024, iters=8)
    assert tlp["tlps_per_call"] == 4  # 1024B at Max_Payload_Size 256
    vq = bench_virtqueue_walk(iters=16)
    assert vq["cycles_per_second"] > 0
