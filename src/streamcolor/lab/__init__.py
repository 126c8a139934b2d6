"""Desk-scale laboratory for the space lower bound.

Everything here trades scale for exactness: supports are enumerated
outright, probabilities are rationals, and quantities of the form
q * ln(2)^j live in an exact scaled ring so bound checks never hinge
on float rounding.
"""

from .adversary import run_adversary
from .compression import check_compression_lemma, random_scheme, worst_two_labeling
from .distribution import RandomGraphDistribution
from .game import (
    ConstantColorStrategy,
    DistinctColorsStrategy,
    GameSpec,
    ParityMessageStrategy,
    Strategy,
    run_game,
)
from .lnscaled import LnScaled
from .schedule import corollary_check, schedule

__all__ = [
    "ConstantColorStrategy",
    "DistinctColorsStrategy",
    "GameSpec",
    "LnScaled",
    "ParityMessageStrategy",
    "RandomGraphDistribution",
    "Strategy",
    "check_compression_lemma",
    "corollary_check",
    "random_scheme",
    "run_adversary",
    "run_game",
    "schedule",
    "worst_two_labeling",
]
