"""Run-level configuration shared by the pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_LENGTH = 512
# Most real tokens per scoring task, tuned on short web documents. Larger
# tasks run fewer, larger GEMMs, but a window's longest task then runs
# alone while the other pool threads wait. Measured with the 4-layer model
# on a 2-core VM, in one process: on short web documents 512 ran 3-8%
# faster than 256-1024 and 15% faster than 8192; on ~100-sentence
# documents 256-1024 were within 3% of 512 and 8192 ran 12% faster, while
# separate-process runs there put 512 ahead of 1024 and 8192.
DEFAULT_TOKEN_BUDGET = 512
DEFAULT_HAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Settings of one corpus run, checked once, here (frozen, so they stay
    checked). ``batch_size`` and ``token_budget`` are ceilings on a scoring
    task's rows and real tokens; a task runs as one padding-free encoder
    call, and a single sentence longer than ``token_budget`` still runs,
    alone. Nothing reads ``workers`` or ``dynamic_batching``:
    a corpus run sizes its scoring pool from the usable CPUs. They stay
    because ``perfbench/workloads.py`` sets them in ``RUN_CONFIGS``."""

    batch_size: int = 32
    max_length: int = DEFAULT_MAX_LENGTH
    hap_threshold: float = DEFAULT_HAP_THRESHOLD
    max_flagged_fraction: float = 0.5
    workers: int = 1
    dynamic_batching: bool = False
    token_budget: int = DEFAULT_TOKEN_BUDGET

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_length < 2:
            raise ValueError("max_length must be >= 2")
        if not 0.0 <= self.hap_threshold <= 1.0:
            raise ValueError("hap_threshold must lie in [0, 1]")
        if not 0.0 <= self.max_flagged_fraction <= 1.0:
            raise ValueError("max_flagged_fraction must lie in [0, 1]")
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")
