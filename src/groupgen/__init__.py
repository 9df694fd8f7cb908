"""Generation invariants of finite permutation groups.

Core objects live in `perm`; structure analysis (subgroup lattice, chief
series), generating-set searches, crowns and first cohomology, the group
construction language, theorem verifiers and the report pipeline build on
top of it.
"""

from .perm import (
    CapExceeded,
    DegreeMismatch,
    GroupError,
    Homomorphism,
    Limits,
    NotInGroup,
    NotNormal,
    Perm,
    PermGroup,
    TimeBudgetExceeded,
    group_from_elements,
    quotient,
)

__all__ = [
    "CapExceeded",
    "DegreeMismatch",
    "GroupError",
    "Homomorphism",
    "Limits",
    "NotInGroup",
    "NotNormal",
    "Perm",
    "PermGroup",
    "TimeBudgetExceeded",
    "group_from_elements",
    "quotient",
]

__version__ = "0.1.0"
