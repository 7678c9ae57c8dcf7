"""Model specifications: parameter counts, FLOPs, and presets.

FLOPs use the standard 6·N·T approximation for dense transformers
(forward + backward over T tokens of an N-parameter model); MoE models
use their *activated* parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """An LLM to be trained."""

    name: str
    #: Total parameters (all experts for MoE).
    num_params: int
    #: Parameters active per token (== num_params for dense models).
    activated_params: int
    num_layers: int
    seq_len: int = 8192
    is_moe: bool = False
    num_experts: int = 1

    def __post_init__(self) -> None:
        if self.num_params <= 0 or self.activated_params <= 0:
            raise ValueError("parameter counts must be positive")
        if self.activated_params > self.num_params:
            raise ValueError("activated params cannot exceed total params")
        if self.num_layers <= 0:
            raise ValueError("num_layers must be positive")

    def flops_per_token(self) -> float:
        """Training FLOPs per token (fwd + bwd), 6·N_activated."""
        return 6.0 * self.activated_params

    def flops_per_step(self, global_batch_size: int) -> float:
        """FLOPs for one optimizer step of ``global_batch_size`` sequences."""
        if global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        return self.flops_per_token() * global_batch_size * self.seq_len


def dense_llama_like(num_params: int = 70_000_000_000,
                     seq_len: int = 8192) -> ModelSpec:
    """A Llama-like dense model (the paper's 70+B production job)."""
    return ModelSpec(
        name=f"dense-{num_params // 10**9}b",
        num_params=num_params,
        activated_params=num_params,
        num_layers=80,
        seq_len=seq_len,
    )


def dense_70b(seq_len: int = 8192) -> ModelSpec:
    """The paper's three-month dense pretraining job (70+B)."""
    return dense_llama_like(70_000_000_000, seq_len)


def moe_200b(seq_len: int = 8192) -> ModelSpec:
    """The paper's one-month MoE pretraining job (200+B total params)."""
    return ModelSpec(
        name="moe-200b",
        num_params=200_000_000_000,
        activated_params=30_000_000_000,
        num_layers=60,
        seq_len=seq_len,
        is_moe=True,
        num_experts=64,
    )
