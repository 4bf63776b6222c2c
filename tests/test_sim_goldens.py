"""Cross-commit golden pins for the simulator.

Each case runs a small fixed configuration and compares two numbers
with values recorded once and committed here:

* the first 16 hex digits of the sha256 of the result record
  (``json.dumps(result.to_dict(), sort_keys=True)``), and
* ``Simulator.events_processed`` at the end of the run.

Same-seed determinism within one checkout is covered elsewhere
(``tests/test_artifact_determinism.py``); these pins catch a change to
the engine, the processor pool, the buffer manager or a handler that
moves any simulated timestamp or event between commits. A speed-up of
the sim path must leave every pin as it is. Only a change that means
to alter the model's output may re-record them, and it must say so.
"""

import hashlib
import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.runtime import sim as sim_runtime

#: system -> (result digest, events processed); dbt1, 8 processors,
#: 3,000-access target, seed 7.
EXPERIMENT_GOLDENS = {
    "pg2Q": ("0e6a743aac8b5cd3", 13250),
    "pgBat": ("90da029d87c7cd4b", 2146),
    "pgBatPre": ("492081f8495c8296", 2130),
    "pgclock": ("2005715815f6d1b0", 4896),
}

#: pgBatPre macro cell with the disk model and a 96-page pool, so the
#: run evicts, writes dirty victims back and skips pinned victims.
MACRO_GOLDEN = ("4448f2c49ac539ae", 3319)


def _digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture
def simulators(monkeypatch):
    """Every Simulator a sim-backend run drives, in run order."""
    seen = []
    original = sim_runtime.SimBackend.run

    def run(self, *args, **kwargs):
        seen.append(self.runtime)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sim_runtime.SimBackend, "run", run)
    return seen


@pytest.mark.parametrize("system", sorted(EXPERIMENT_GOLDENS))
def test_experiment_golden(system, simulators):
    config = ExperimentConfig(system=system, workload="dbt1",
                              n_processors=8, target_accesses=3000,
                              seed=7)
    result = run_experiment(config)
    assert (_digest(result.to_dict()), simulators[-1].events_processed) \
        == EXPERIMENT_GOLDENS[system]


def test_macro_golden(simulators):
    config = MacroConfig(system="pgBatPre", n_processors=4, n_threads=8,
                         buffer_pages=96, target_queries=40,
                         use_disk=True, seed=7)
    result = run_macro(config)
    # The cell must exercise the paths it is here to pin.
    assert result.evictions > 0
    assert result.write_backs > 0
    assert result.pinned_victim_skips > 0
    assert (_digest(result.to_dict()), simulators[-1].events_processed) \
        == MACRO_GOLDEN
