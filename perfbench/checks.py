"""Correctness checks on the output of one convmc call.

A call passes when its exit code and the sha256 of its stdout equal the
pinned values and its subcommand's oracle accepts the output.  The
oracles do not trust convmc:

- free Lie dimensions come from the Poincare-Birkhoff-Witt identity
  U(L(V)) = T(V), solved degree by degree in plain integers;
- homotopic answers Equal exactly when the two self-maps of CP3 have the
  same degree, and its certificate must replay under `gauge-check`;
- every class a component search reports must say it verified.

Some oracles need a verdict computed in a fresh convmc process after the
timed region (the free Lie basis of a cobar output, the gauge-check of a
certificate).  That verdict is passed in; a missing one fails the call.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from workloads import LETTER_DEGREES


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def witt_dims(letter_degrees, top: int) -> dict[int, int]:
    """Dimensions in degrees 1..top of the free graded Lie algebra on
    letters of the given degrees (all >= 1).

    U(L) = T(V) as graded vector spaces, and by PBW the Poincare series of
    U(L) is the product over n of (1 + t^n)^dim L_n for odd n and
    (1 - t^n)^-dim L_n for even n.  The coefficient of t^n in that product
    is dim L_n plus a term fixed by lower degrees, so each dimension is the
    difference between 1 / (1 - V(t)) and the product so far."""
    tensor = [1] + [0] * top
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in letter_degrees if d <= n)
    product = [1] + [0] * top
    dims = {}
    for n in range(1, top + 1):
        dims[n] = dim = tensor[n] - product[n]
        for _ in range(dim):
            if n % 2:
                for i in range(top, n - 1, -1):  # times (1 + t^n)
                    product[i] += product[i - n]
            else:
                for i in range(n, top + 1):  # times 1 / (1 - t^n)
                    product[i] += product[i - n]
    return dims


def _window(argv) -> int:
    return int(argv[argv.index("--window") + 1])


def needs_verdict(argv) -> str | None:
    """The kind of post-run verdict a call's oracle needs, if any."""
    return {"cobar": "freelie_dims", "homotopic": "gauge_check"}.get(argv[0])


def _oracle_transfer(argv, rc, rec, verdict):
    exact_through = _window(argv) - 1
    witt = witt_dims(LETTER_DEGREES[argv[1]], exact_through)
    # The report lists loop homology in the shifted grading: the class of
    # a free Lie element of degree n sits in degree n + 1.
    seen = Counter(row["degree"] for row in rec.get("homology", []))
    return [f"homology dim {seen[n + 1]} != Witt dim {d} in degree {n + 1}"
            for n, d in witt.items() if n + 1 <= exact_through
            and seen[n + 1] != d]


def _oracle_cobar(argv, rc, rec, verdict):
    window = _window(argv)
    if rec.get("exact_through") != window - 1:
        return [f"exact_through {rec.get('exact_through')!r} != {window - 1}"]
    if verdict is None or "dims" not in verdict:
        return ["no free Lie basis verdict"]
    dims = {int(d): n for d, n in verdict["dims"].items()}
    witt = witt_dims(LETTER_DEGREES[argv[1]], window - 1)
    return [f"basis dim {dims.get(n, 0)} != Witt dim {d} in degree {n}"
            for n, d in witt.items() if dims.get(n, 0) != d]


def _oracle_components(argv, rc, rec, verdict):
    classes = rec.get("classes", [])
    if not classes:
        return ["no component classes"]
    bad = sum(1 for c in classes if c.get("verified") is not True)
    return [f"{bad} of {len(classes)} classes not verified"] if bad else []


def _oracle_homotopic(argv, rc, rec, verdict):
    j, k = int(argv[3][2:]), int(argv[4][2:])
    want = "equal" if j == k else "distinct"
    problems = []
    if rec.get("outcome") != want:
        problems.append(f"outcome {rec.get('outcome')!r} != {want!r}")
    if rc != (0 if j == k else 1):
        problems.append(f"exit {rc!r} does not match the outcome {want!r}")
    if verdict is None:
        problems.append("no gauge-check verdict")
    elif verdict.get("rc") != 0 or verdict.get("valid") is not True \
            or verdict.get("outcome") != want:
        problems.append(f"gauge-check rejected the certificate: {verdict}")
    return problems


ORACLES = {
    "transfer": _oracle_transfer,
    "cobar": _oracle_cobar,
    "components": _oracle_components,
    "homotopic": _oracle_homotopic,
}


def check_call(argv, rc, out: str, pin, verdict=None) -> list[str]:
    """Reasons a call failed; empty when it passed."""
    if pin is None:
        return ["no pinned result for this call"]
    problems = []
    if rc != pin["exit"]:
        problems.append(f"exit {rc!r} != pinned {pin['exit']}")
    if sha256_text(out) != pin["sha256"]:
        problems.append("stdout sha256 differs from the pinned one")
    try:
        rec = json.loads(out)
    except json.JSONDecodeError:
        return problems + ["stdout is not JSON"]
    return problems + ORACLES[argv[0]](argv, rc, rec, verdict)
