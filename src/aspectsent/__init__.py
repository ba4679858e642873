"""Aspect-based sentiment analysis trained from overall and per-aspect star
ratings alone, with attention-weight explanations of the overall polarity."""

from aspectsent.autodiff import Tensor, Tape, backward

__all__ = ["Tensor", "Tape", "backward"]
__version__ = "0.1.0"
