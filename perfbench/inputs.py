"""Inputs for the benchmark, written as model files without importing
convmc, so that a change to the package cannot change its own inputs.

CP_n is the reduced homology coalgebra of complex projective n-space:
one class a_k in degree 2k for k = 1..n, zero differential, and the
divided-power coproduct a_k -> sum_{0<i<k} a_i (x) a_{k-i}.  The
degree-k self-map of CP_n sends a_i to k^i a_i; it commutes with that
coproduct because k^i k^(k-i) = k^k.
"""

from __future__ import annotations

import hashlib
import json
import os

FORMAT_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
# Transferred loop homology of S2 v S3 at window 8: the record
# modelio.linfty_to_record writes for transfer_linfty(cobar(S2vS3,
# degree_max=8), arity_max=3).  Frozen, so that a change to the transfer
# code cannot change the input of the component search.
S2VS3_LOOPS = os.path.join(HERE, "data", "s2vs3_loops_w8.linfty.json")
S2VS3_LOOPS_SHA256 = (
    "e9dae1162e9586610b3fadde72417235b0d4b9178b81021d20063b659a208fb8")


def _header(kind: str, name: str) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, "name": name}


def cp_coalgebra(n: int) -> dict:
    """Record of the CP_n coalgebra."""
    if n < 1:
        raise ValueError("CP_n needs n >= 1")
    rec = _header("cdgc", f"CP{n}")
    rec["basis"] = [{"name": f"a{k}", "degree": 2 * k}
                    for k in range(1, n + 1)]
    rec["d"] = []
    rec["delta"] = [[f"a{k}", f"a{i}", f"a{k - i}", "1/1"]
                    for k in range(2, n + 1) for i in range(1, k)]
    return rec


def self_map(n: int, k: int) -> dict:
    """Record of the degree-k self-map a_i -> k^i a_i of CP_n."""
    rec = _header("map", f"f{k}")
    rec["degree"] = 0
    rec["entries"] = [[f"a{i}", f"a{i}", f"{k ** i}/1"]
                      for i in range(1, n + 1) if k]
    rec["source"] = f"CP{n}"
    rec["target"] = f"CP{n}"
    return rec


def write(path: str, rec: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
