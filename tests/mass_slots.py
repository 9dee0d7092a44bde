"""Test helper: mass functions written as ``{Subset: mass}`` dicts."""

from evicrit.core import SLOTS


def slots(masses):
    """The slot list of a ``{Subset: mass}`` dict: slot ``s.bits`` holds ``s``'s mass."""
    vector = [0.0] * SLOTS
    for subset, mass in masses.items():
        vector[subset.bits] = mass
    return vector
