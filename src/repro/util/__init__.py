"""Shared utilities: hashing, varints, statistics, page arithmetic."""

from .murmur3 import murmur3_32, murmur3_64, murmur3_x64_128
from .pagemath import PAGE_SIZE, page_count, pages_spanned
from .stats import ConfidenceInterval, confidence_interval_95, geomean, mean, ratio_factor, stdev

__all__ = [
    "murmur3_32", "murmur3_64", "murmur3_x64_128",
    "PAGE_SIZE", "page_count", "pages_spanned",
    "ConfidenceInterval", "confidence_interval_95", "geomean", "mean",
    "ratio_factor", "stdev",
]
