"""Outside-in benchmark for ``analyze()``, ``repro pylint`` and ``repro serve``.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and the metric catalogue.
"""
