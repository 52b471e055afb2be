"""Spiking-neuron consensus simulator: leader election by earliest LIF
spike, quorum finality, Byzantine fault injection, and PoB/PoR baselines
under one deterministic discrete-event harness."""

from .core import (Block, ChainState, Config, ConfigError, GENESIS_HASH,
                   PosnError, Transaction, ValidatorId, Vote, default_config,
                   hash_block, select_mempool)
from .consensus import (ElectionResult, Keyring, Node, elect_leader,
                        quorum_threshold, validate_proposal)
from .neuro import SlotSeed, first_spike_step, make_slot_seed
from .netsim import FaultPlan, LoadProfile, Partition, Sim, run
from .metrics import RunLog, SummaryStats, export, summarize
from .scenario import Scenario, build_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Block", "ChainState", "Config", "ConfigError", "ElectionResult",
    "FaultPlan", "GENESIS_HASH", "Keyring", "LoadProfile", "Node",
    "Partition", "PosnError", "RunLog", "Scenario", "Sim", "SlotSeed",
    "SummaryStats", "Transaction", "ValidatorId", "Vote", "build_scenario",
    "default_config", "elect_leader", "export", "first_spike_step",
    "hash_block", "load_scenario", "make_slot_seed",
    "quorum_threshold", "run", "select_mempool", "summarize",
    "validate_proposal",
]
