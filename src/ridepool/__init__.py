"""Ride-pooling matching engine: shareability graphs over trip requests,
grid-based user embeddings, policy-gradient co-rider selection, and
efficiency/environmental evaluation with a social-distancing tolerance model.
"""

__version__ = "0.1.0"
