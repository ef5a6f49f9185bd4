"""Baseline sharing strategies the paper compares against."""

from .inorder import inorder_share, order_preserves_ii, total_order_of
from .naive import naive_share

__all__ = [
    "inorder_share",
    "naive_share",
    "order_preserves_ii",
    "total_order_of",
]
