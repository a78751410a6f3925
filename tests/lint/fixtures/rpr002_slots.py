"""RPR002 golden fixture: hot-path classes must declare ``__slots__``.

Never imported — linted as if it were ``src/repro/sim/batch.py`` (the
configured hot-path module).  Tag semantics as in rpr001_determinism.
"""

import enum
from dataclasses import dataclass


class UnslottedEvent:  # expect: class UnslottedEvent in a hot-path module
    def __init__(self, when):
        self.when = when


class AlsoUnslotted(UnslottedEvent):  # expect: class AlsoUnslotted in a hot-path module
    pass


class SlottedEvent:
    __slots__ = ("when",)

    def __init__(self, when):
        self.when = when


class EmptySlotsSubclass(SlottedEvent):
    __slots__ = ()


class Phase(enum.Enum):
    READ = 1
    WRITE = 2


@dataclass
class Snapshot:
    when: int
