"""Trace post-processing: traces folded into ordering profiles."""

from .framework import TraceDecodeError, build_profiles

__all__ = ["TraceDecodeError", "build_profiles"]
