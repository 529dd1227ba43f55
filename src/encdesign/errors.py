"""Exceptions shared across the package."""


class CapacityError(Exception):
    """An enumeration or table would exceed its configured size cap, or a
    rejection sampler's acceptance rate fell below its configured floor."""


class ConstructionError(ValueError):
    """The witness construction hit a negative mass.

    Carries the offending assignment so callers can see which inequality the
    input table violates.
    """

    def __init__(self, message, *, target=None, step=None, mass=None):
        super().__init__(message)
        self.target = target
        self.step = step
        self.mass = mass
