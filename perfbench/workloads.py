"""The benchmark's workloads: each is a list of convmc command lines.

A command line is written with input references: a token "@name" stands
for the model file `name` that `write_inputs` generates.  The logical
command line, with references unresolved, is the key under which the
expected exit code and stdout digest are pinned.
"""

from __future__ import annotations

import os
import random

import inputs

# Degrees k of the self-maps a_i -> k^i a_i of CP3 that hopf-batch compares.
# The constant map (k = 0) is left out: it skips the cobar composite and
# would make the batch's cost depend on how often the seed draws it.
HOPF_DEGREES = (-2, -1, 1, 2, 3, 4)
HOPF_CALLS = 15
HOPF_EQUAL = 3
HOPF_WINDOW = "12"

# Degrees of the generators of the free Lie algebra each cobar-based call
# builds: the coalgebra's degrees, one down.
LETTER_DEGREES = {
    "s2vs3": (1, 2),
    "@cp3": (1, 3, 5),
    "@cp4": (1, 3, 5, 7),
}


def hopf_pairs(seed: int) -> list[tuple[int, int]]:
    """HOPF_CALLS ordered pairs (j, k), HOPF_EQUAL of them with j = k.

    Every degree fills the same number of the 2 * HOPF_CALLS slots, so
    the seed changes which maps meet, not how many maps of each degree
    the batch pushes through the cobar composite."""
    rng = random.Random(seed)
    equal = rng.sample(HOPF_DEGREES, HOPF_EQUAL)
    per_degree = 2 * HOPF_CALLS // len(HOPF_DEGREES)
    slots = [k for k in HOPF_DEGREES for _ in range(per_degree)]
    for k in equal:
        slots.remove(k)
        slots.remove(k)
    while True:
        rng.shuffle(slots)
        pairs = list(zip(slots[::2], slots[1::2]))
        if all(j != k for j, k in pairs):
            break
    pairs += [(k, k) for k in equal]
    rng.shuffle(pairs)
    return pairs


def homotopic_call(j: int, k: int) -> list[str]:
    return ["homotopic", "@cp3", "@cp3", f"@f{j}", f"@f{k}",
            "--window", HOPF_WINDOW]


def calls(workload: str, seed: int) -> list[list[str]]:
    """The logical command lines of one sample of a workload."""
    if workload == "loop-transfer":
        return [["transfer", "s2vs3", "--window", "11"]]
    if workload == "cobar-cpn":
        return [["cobar", "@cp3", "--window", "12"],
                ["cobar", "@cp4", "--window", "11"]]
    if workload == "moduli-search":
        return [["components", "@cp3", "@s2vs3_loops"]]
    if workload == "hopf-batch":
        return [homotopic_call(j, k) for j, k in hopf_pairs(seed)]
    raise KeyError(f"unknown workload {workload!r}")


def write_inputs(workdir: str) -> dict[str, str]:
    """Write every input model into workdir; map reference names to paths."""
    paths = {"s2vs3_loops": inputs.S2VS3_LOOPS}
    for n in (3, 4):
        paths[f"cp{n}"] = inputs.write(os.path.join(workdir, f"cp{n}.json"),
                                       inputs.cp_coalgebra(n))
    for k in HOPF_DEGREES:
        paths[f"f{k}"] = inputs.write(os.path.join(workdir, f"f{k}.json"),
                                      inputs.self_map(3, k))
    return paths


def resolve(argv: list[str], paths: dict[str, str]) -> list[str]:
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]
