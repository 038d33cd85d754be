"""BSP*/CGM programming model and in-memory reference execution."""

from .collectives import (
    merge_sorted,
    owner_of_index,
    regular_samples,
    share_bounds,
    share_size,
)
from .message import Message, blocks_to_messages, message_to_blocks
from .program import AlgorithmError, BSPAlgorithm, VPContext
from .runner import ReferenceRunner, run_reference

__all__ = [
    "BSPAlgorithm",
    "VPContext",
    "AlgorithmError",
    "Message",
    "ReferenceRunner",
    "run_reference",
    "message_to_blocks",
    "blocks_to_messages",
    "share_bounds",
    "share_size",
    "owner_of_index",
    "regular_samples",
    "merge_sorted",
]
