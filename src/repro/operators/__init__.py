"""Operator stack: the offloaded query operators (paper §5)."""

from .aggregate import AggregateSpec, StandaloneAggregateOperator
from .base import ByteOperator, OperatorPipeline, RowOperator
from .crypto import AesCtr, encrypt_block, expand_key
from .cuckoo import CuckooHashTable
from .distinct import DistinctOperator
from .encryption_op import (
    DecryptOperator,
    EncryptOperator,
    decrypt_table_image,
    encrypt_table_image,
)
from .groupby import GroupByOperator
from .hashing import hash_key_batch, hash_u64_array, mix64
from .lru_cache import ShiftRegisterLru
from .packing import Packer
from .projection import ProjectionOperator, SmartAddressingPlan
from .regex_engine import CompiledRegex
from .regex_op import RegexMatchOperator
from .selection import (
    And,
    Compare,
    Not,
    Or,
    Predicate,
    SelectionOperator,
    VectorizedSelectionOperator,
)
from .sending import Sender

__all__ = [
    "AggregateSpec",
    "StandaloneAggregateOperator",
    "ByteOperator",
    "OperatorPipeline",
    "RowOperator",
    "AesCtr",
    "encrypt_block",
    "expand_key",
    "CuckooHashTable",
    "DistinctOperator",
    "DecryptOperator",
    "EncryptOperator",
    "decrypt_table_image",
    "encrypt_table_image",
    "GroupByOperator",
    "hash_key_batch",
    "hash_u64_array",
    "mix64",
    "ShiftRegisterLru",
    "Packer",
    "ProjectionOperator",
    "SmartAddressingPlan",
    "CompiledRegex",
    "RegexMatchOperator",
    "And",
    "Compare",
    "Not",
    "Or",
    "Predicate",
    "SelectionOperator",
    "VectorizedSelectionOperator",
    "Sender",
]
