"""State space for the student-progress chain.

Eight states: six transient year-of-study states plus two absorbing
outcomes. The IntEnum values double as matrix row/column indices, giving a
stable total ordering Y1 < ... < Y6 < DROP_OUT < GRADUATED.
"""

from enum import IntEnum


class AcademicState(IntEnum):
    Y1 = 0
    Y2 = 1
    Y3 = 2
    Y4 = 3
    Y5 = 4
    Y6 = 5
    DROP_OUT = 6
    GRADUATED = 7

    @classmethod
    def year(cls, k):
        """The transient state for year of study k (1..6)."""
        if not 1 <= k <= 6:
            raise ValueError(f"year of study must be 1..6, got {k}")
        return cls(k - 1)


N_STATES = 8
TRANSIENT = tuple(AcademicState(i) for i in range(6))
ABSORBING = (AcademicState.DROP_OUT, AcademicState.GRADUATED)

# Cells a transient row may populate: Yk -> Y(k+1) (absent for k = 6),
# Yk -> DROP_OUT, Yk -> GRADUATED. Absorbing rows hold no counts at all.
ALLOWED_CELLS = tuple(
    [(k, k + 1) for k in range(5)]
    + [(k, AcademicState.DROP_OUT.value) for k in range(6)]
    + [(k, AcademicState.GRADUATED.value) for k in range(6)]
)
