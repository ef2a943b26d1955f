"""End-to-end and per-layer benchmark of the pseudo-honeypot sniffer.

Run one workload with ``python3 sniffbench/run.py --workload live
--seed 1 --seconds 10 --trace 0`` from the repository root.  The last
line of standard output is the JSON result; ``METRICS.md`` defines
every metric and what each layer metric should move.
"""
