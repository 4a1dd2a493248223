"""End-to-end and per-layer benchmark of the credal library.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``bench/run.py`` for the workloads and metrics.
"""
