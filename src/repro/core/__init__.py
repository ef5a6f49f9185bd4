"""CRUSH: credit-based functional-unit sharing (the paper's contribution)."""

from .cost import SharingCostModel, default_cost_model
from .elision import ElisionResult, elide_output_buffers
from .credits import allocate_credits, credits_for_op
from .crush import SharingResult, crush
from .groups import (
    check_r1,
    check_r2,
    check_r3,
    sharing_candidates,
    sharing_groups,
)
from .priority import access_priority
from .wrapper import SharingWrapper, check_credit_constraint, insert_sharing_wrapper

__all__ = [
    "ElisionResult",
    "elide_output_buffers",
    "SharingCostModel",
    "SharingResult",
    "SharingWrapper",
    "access_priority",
    "allocate_credits",
    "check_credit_constraint",
    "check_r1",
    "check_r2",
    "check_r3",
    "credits_for_op",
    "crush",
    "default_cost_model",
    "insert_sharing_wrapper",
    "sharing_candidates",
    "sharing_groups",
]
