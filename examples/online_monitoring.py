"""Online monitoring: streaming extraction.

Run with::

    python examples/online_monitoring.py

The control room receives readings window by window;
:class:`OnlineEventTracker` maintains open events incrementally and emits
each micro-cluster the moment the event ends (quiet for ``delta_t``),
producing exactly the batch extractor's clusters without ever holding a
full day of records.
"""

import numpy as np

from repro import SimulationConfig, TrafficSimulator
from repro.core.records import RecordBatch
from repro.core.streaming import OnlineEventTracker


def stream_one_day(sim: TrafficSimulator, day: int) -> None:
    """Replay one day through the online tracker, reporting live."""
    chunk = sim.simulate_day(day)
    mask = chunk.atypical_mask()
    batch = RecordBatch(
        chunk.sensor_ids[mask],
        chunk.windows[mask],
        chunk.congested[mask].astype(np.float64),
    ).sorted_by_window()

    tracker = OnlineEventTracker(sim.network, window_spec=sim.window_spec)
    spec = sim.window_spec
    emitted = 0
    for window in range(day * spec.windows_per_day, (day + 1) * spec.windows_per_day):
        window_mask = batch.windows == window
        closed = tracker.push_window(window, batch.select(window_mask))
        for cluster in closed:
            if cluster.severity() >= 100:
                minute = spec.minute_of_day(window)
                print(
                    f"  [{minute // 60:02d}:{minute % 60:02d}] event closed: "
                    f"{cluster.severity():.0f} min over "
                    f"{len(cluster.spatial)} sensors"
                )
        emitted += len(closed)
    emitted += len(tracker.flush())
    print(f"  ... {emitted} events emitted over the day")


def main() -> None:
    sim = TrafficSimulator(SimulationConfig.small())

    print("=== Streaming extraction, day 2 (events >= 100 min shown live) ===")
    stream_one_day(sim, 2)


if __name__ == "__main__":
    main()
