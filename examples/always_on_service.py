"""Always-on service: score captures online while the network runs.

The batch pipeline classifies a capture set after the fact; the
service scores it *while monitoring*: every hour's captures are served
in arrival order on a virtual clock through a bounded ingestion queue,
are featurized incrementally, and are scored in batches through the
compiled forest — with the health watchdog listening for queue
saturation the whole time.

1. train the detector exactly as the batch pipeline does;
2. deploy a fresh pseudo-honeypot network;
3. attach a :class:`SnifferService` and serve N monitored hours;
4. report verdict counts, latency percentiles, and any alerts.

Run:  python examples/always_on_service.py
"""

import logging

from repro import configure_logging
from repro.core import PseudoHoneypotExperiment, SelectionPlan
from repro.core.network import PseudoHoneypotNetwork
from repro.obs import reset as reset_obs
from repro.obs.health import HealthEngine
from repro.service import SnifferService, service_rules
from repro.twittersim import SimulationConfig


def main() -> None:
    configure_logging(logging.INFO)
    reset_obs()

    print("Building the synthetic Twitter world...")
    experiment = PseudoHoneypotExperiment(
        SimulationConfig.small(seed=42), candidate_pool=500
    )
    experiment.warm_up(4)

    print("Training the detector on 6 hours of ground truth...")
    collection = experiment.collect_ground_truth(
        hours=6, n_targets=6, per_value=4
    )
    dataset = experiment.label_ground_truth(collection)
    detector = experiment.train_detector(collection, dataset)

    print("Deploying a fresh pseudo-honeypot network...")
    network = PseudoHoneypotNetwork(
        experiment.engine,
        experiment.make_selector(seed_offset=71),
        SelectionPlan.random_plan(6, 4, seed=71),
        switch_every_hours=1,
    )
    network.deploy()

    hours = 5
    print(f"Serving {hours} monitored hours online...")
    service = SnifferService(detector)
    with HealthEngine(rules=service_rules()) as health:
        stats = service.run_network(network, hours=hours)

    print(
        f"\nScored {stats.scored} tweets in {stats.batches} batches "
        f"({stats.spams} spams from {len(service.spammer_ids)} "
        "spammers)"
    )
    print(
        f"latency p50 {stats.p50_ms:.2f}ms / p99 {stats.p99_ms:.2f}ms, "
        f"{stats.tweets_per_sec:,.0f} tweets/sec"
    )
    print(
        "accounting: "
        f"{stats.ingested} ingested == {stats.scored} scored + "
        f"{stats.dropped} dropped + {stats.in_flight} in flight"
    )
    assert stats.ingested == stats.scored + stats.dropped
    assert stats.in_flight == 0
    if health.alerts_fired:
        fired = sorted(i.rule for i in health.incidents.incidents)
        print(f"alerts fired: {', '.join(fired)}")
    else:
        print("alerts fired: none")


if __name__ == "__main__":
    main()
