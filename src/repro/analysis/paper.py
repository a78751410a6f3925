"""The numbers the paper prints, each written once.

:data:`PRINTED` is the only place in this package where they appear as
numbers: the calibration anchors, the validation tiers and the
``paper`` columns of the experiment tables look them up by key.  Keys
name the configuration (``k`` runs, ``D`` disks, depth ``N``) the way
``repro paper-check`` labels it.
"""

from __future__ import annotations

#: key -> (value, where the paper prints it).
PRINTED: dict[str, tuple[float, str]] = {
    "no prefetch k=25 D=1": (357.2, "section 3.1"),
    "no prefetch k=50 D=1": (909.7, "section 3.1"),
    "intra k=25 N=10 D=1": (81.8, "section 3.1"),
    "intra k=50 N=10 D=1": (183.2, "section 3.1"),
    "intra k=25 N=30 D=1": (61.5, "section 3.1"),
    "intra k=50 N=30 D=1": (129.4, "section 3.1"),
    "bound k=25 D=1": (51.2, "section 3.1"),
    "bound k=50 D=1": (102.4, "section 3.1"),
    "no prefetch k=25 D=5": (279.0, "section 3.2"),
    "no prefetch k=50 D=10": (558.1, "section 3.2"),
    "urn E(L) D=5": (2.51, "section 3.2"),
    "urn E(L) D=10": (3.66, "section 3.2"),
    "urn E(L) D=25": (5.92, "section 3.2"),
    "urn asymptote k=25 D=5 N=30": (23.4, "section 3.2"),
    "urn asymptote k=50 D=10 N=30": (32.2, "section 3.2"),
    "intra unsync sim k=25 D=5 N=30": (24.8, "section 3.2"),
    "inter sync k=25 D=5 N=10": (17.6, "section 3.2"),
    "bound k=25 D=5": (10.25, "section 3.2"),
    "bound k=50 D=5": (20.5, "section 3.2"),
    "bound k=50 D=10": (10.25, "section 3.2"),
    "inter unsync sim k=25 D=5 N=50": (12.2, "section 3.2"),
    "inter unsync sim k=50 D=5 N=50": (20.8, "section 3.2"),
    # Not printed: the exact urn-game E(L) at D=25 to two places, which
    # the tab-urn claim pins.  The paper prints 5.92 (the row above).
    "urn E(L) D=25 exact": (5.95, "section 3.2 (exact E(L))"),
}


def printed(key: str) -> float:
    """The value of row ``key`` of :data:`PRINTED`."""
    return PRINTED[key][0]
