"""Desk-scale laboratory for uncertainty-aware multi-agent debate training.

A debate runs N simulated agents for T refinement rounds over a finite answer
space. The package measures three levels of uncertainty on the resulting
transcripts (within-agent, between-agent, system), converts them into shaped
rewards, trains tabular softmax agent policies with a clipped ratio objective
anchored to a reference policy, calibrates per-agent reward coefficients from
a warmup phase, replays uncertain episodes preferentially, and ships the
statistics needed to read the results.
"""

from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig, full_profile

__all__ = [
    "DebateTrajectory",
    "MetricConfig",
    "full_profile",
]

__version__ = "0.1.0"
