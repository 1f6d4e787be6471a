"""Every span target of the benchmark's tracer resolves on convmc.

perfbench/tracer.py wraps convmc functions and methods by name and its
install raises on a missing one, so a renamed or deleted target would
only show in a traced benchmark run.  The tracer module is loaded from
its file and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for span, module, attr in targets:
        obj = importlib.import_module(f"convmc.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), (span, module, attr)
            obj = getattr(obj, part)
        assert callable(obj), (span, module, attr)
