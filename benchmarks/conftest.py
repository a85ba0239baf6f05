"""Benchmark fixtures: shared builder so library parses are cached, and
the history fold every artifact-writing benchmark shares."""

import json

import pytest

from repro.eilid.iterbuild import IterativeBuild

# Successive runs of a benchmark fold their summaries into its
# artifact's ``history`` list, so the perf trajectory is non-empty from
# the very first run and grows run over run.
HISTORY_LIMIT = 20


@pytest.fixture(scope="session")
def builder():
    return IterativeBuild()


@pytest.fixture(scope="session")
def seeded_history():
    """``seeded_history(path, entry)``: the ``history`` list of the
    artifact at *path* (empty if it is missing or unreadable) plus
    *entry*, oldest first, keeping the newest ``HISTORY_LIMIT``."""

    def fold(path, entry):
        try:
            with open(path, encoding="utf-8") as handle:
                history = json.load(handle).get("history", [])
        except (OSError, ValueError):
            history = []
        return (history + [entry])[-HISTORY_LIMIT:]

    return fold
