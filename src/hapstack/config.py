"""Run-level configuration shared by the pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_LENGTH = 512
DEFAULT_HAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Settings of one corpus run, checked once, here (frozen, so they stay
    checked). ``batch_size`` is the ceiling on a scoring task's rows.
    Nothing reads ``workers`` or ``dynamic_batching``; they stay because
    ``perfbench/workloads.py`` sets them in ``RUN_CONFIGS``."""

    batch_size: int = 32
    max_length: int = DEFAULT_MAX_LENGTH
    hap_threshold: float = DEFAULT_HAP_THRESHOLD
    max_flagged_fraction: float = 0.5
    workers: int = 1
    dynamic_batching: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_length < 2:
            raise ValueError("max_length must be >= 2")
        if not 0.0 <= self.hap_threshold <= 1.0:
            raise ValueError("hap_threshold must lie in [0, 1]")
        if not 0.0 <= self.max_flagged_fraction <= 1.0:
            raise ValueError("max_flagged_fraction must lie in [0, 1]")
