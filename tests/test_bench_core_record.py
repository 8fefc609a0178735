"""``bench_core_throughput.py --record`` keeps the recorded A/B blocks.

``--check`` gates on the ``interleaved`` and ``skip`` blocks under
``current`` whenever they are recorded, so a fresh ``--record`` that
dropped them would switch those gates off without notice.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "bench_core_throughput.py",
)


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_core_throughput", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_merges_into_current_and_keeps_ab_blocks(bench, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_core.json"
    interleaved = {"ratio": 1.13, "cells": 10}
    skip = {"mechanism_ratio": 1.5, "cells": 6}
    path.write_text(json.dumps({
        "schema": 1,
        "baseline": {"committed_ips": 100.0},
        "current": {
            "committed_ips": 150.0,
            "seconds": 9.0,
            "interleaved": interleaved,
            "skip": skip,
        },
    }))
    measurement = {
        "schema": 1, "instructions": 10, "warmup": 2, "cells": 1,
        "committed": 400, "seconds": 2.0, "committed_ips": 200.0,
        "per_cell": [],
    }
    monkeypatch.setattr(bench, "measure", lambda repeats=1: dict(measurement))

    assert bench.main(["--record", "--result-file", str(path)]) == 0

    payload = json.loads(path.read_text())
    current = payload["current"]
    assert current["interleaved"] == interleaved
    assert current["skip"] == skip
    assert current["committed_ips"] == 200.0
    assert current["seconds"] == 2.0
    assert payload["speedup_vs_baseline"] == pytest.approx(2.0)


def test_record_creates_current_when_absent(bench, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_core.json"
    measurement = {"committed_ips": 50.0, "seconds": 1.0, "committed": 50, "cells": 1}
    monkeypatch.setattr(bench, "measure", lambda repeats=1: dict(measurement))

    assert bench.main(["--record", "--result-file", str(path)]) == 0

    assert json.loads(path.read_text())["current"] == measurement
