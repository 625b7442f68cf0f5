"""Host-speed scaling: chunk windows and which sample values get scaled."""

import pytest

import hostclock
import run


def _clock(chunks):
    clock = hostclock.HostClock()
    clock.chunks = list(chunks)
    return clock


def test_chunks_around_the_interval_set_the_scale():
    ref = hostclock.REFERENCE_CHUNK_S
    # a slow phase from t = 10 to t = 20 s, chunks twice the reference time
    chunks = [(t * 0.1, 2 * ref if 100 <= t < 200 else ref) for t in range(300)]
    clock = _clock(chunks)
    assert clock.scale(12.0, 18.0) == pytest.approx(0.5)
    assert clock.scale(3.0, 5.0) == pytest.approx(1.0)
    assert clock.scale(25.0, 27.0) == pytest.approx(1.0)


def test_too_few_chunks_fall_back_to_the_nearest():
    ref = hostclock.REFERENCE_CHUNK_S
    chunks = [(0.0, ref), (1.0, ref), (50.0, 4 * ref), (51.0, 4 * ref), (52.0, 4 * ref), (53.0, 4 * ref)]
    assert _clock(chunks).scale(49.0, 49.5) == pytest.approx(0.25)
    with pytest.raises(RuntimeError):
        _clock([]).scale(0.0, 1.0)


def test_a_running_clock_takes_chunks():
    clock = hostclock.HostClock().start()
    try:
        while len(clock.chunks) < 2:
            clock._stop.wait(0.01)
    finally:
        clock.stop()
    assert all(cpu > 0 for _, cpu in clock.chunks)


def test_only_times_are_scaled():
    result = {
        "wall_s": 2.0, "cpu_s": 1.0, "setup_s": 0.3, "import_s": 0.2, "parse_s": 0.01,
        "exit_code": 0, "peak_rss_mb": 70.0,
        "layers": {"duhamel.solve_s": 1.5, "duhamel.picard_sweeps": 6, "duhamel.solve_peak_mb": 20.0},
    }
    run.scale_times(result, 0.5)
    assert result["wall_s"] == 1.0 and result["setup_s"] == 0.15 and result["parse_s"] == 0.005
    assert result["raw"]["wall_s"] == 2.0 and result["scale"] == 0.5
    assert result["peak_rss_mb"] == 70.0 and result["exit_code"] == 0
    assert result["layers"] == {"duhamel.solve_s": 0.75, "duhamel.picard_sweeps": 6, "duhamel.solve_peak_mb": 20.0}
