"""Workload definitions: the CLI argv each workload runs, and its seeded order.

Why each workload exists, and which layer metric it should move, is in
README.md next to this file.
"""

from __future__ import annotations

import random

Command = tuple[str, ...]

WORKLOADS: dict[str, tuple[Command, ...]] = {
    # final-only dataset regeneration: 16 p_gs rows, 10 to 100 modes per
    # chain, T from 1 to 100, and 11 truncation rows sharing one (n, ramp)
    "sweep": (
        ("sweep-size", "--n", "20,200", "--t-final", "1,10", "--coupling", "thermo"),
        ("sweep-size", "--n", "20", "--t-final", "100", "--coupling", "thermo"),
        ("sweep-truncation", "--n", "20", "--t-final", "10"),
    ),
    # sampled output: ~9,900 short integrator restarts plus one probability
    # assembly per sample, 100 rows
    "trace": (
        ("trace", "--n", "200", "--t-final", "10", "--samples", "100", "--coupling", "thermo"),
    ),
    # the only workload where coefficients and spin_oracle do real work
    "crosscheck": (
        ("verify",),
        ("oracle", "--n", "8", "--t-final", "10", "--coupling", "direct"),
        ("oracle", "--n", "10", "--t-final", "1", "--coupling", "exact"),
    ),
}


def command_key(command: Command) -> str:
    """The key a command's references are stored under."""
    return " ".join(command)


def pass_order(workload: str, seed: int, pass_index: int) -> list[int]:
    """Indices of the workload's commands in the order one pass runs them.

    The order depends only on (workload, seed, pass_index), so the same
    seed gives the same inputs, and successive passes of one run use
    different orders whenever the workload has more than one command.
    """
    order = list(range(len(WORKLOADS[workload])))
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(order)
    return order
