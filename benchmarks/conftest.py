"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper end to end
and asserts its expected *shape* (who wins, orderings, monotonicity) —
absolute numbers come from the synthetic substrate and are recorded in
EXPERIMENTS.md rather than asserted.

Heavy experiments run once per benchmark (pedantic mode) — the timing of
interest is "how long does regenerating the result take", not a
micro-benchmark statistic.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
