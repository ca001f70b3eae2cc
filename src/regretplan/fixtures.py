"""Small built-in models used by tests, docs, and the CLI examples."""

from __future__ import annotations

from .model import Pkwts, Wts, compatible_envs


def t3() -> Pkwts:
    """Four-state explore-or-commit scenario.

    State 0 starts, state 3 is the target (zero-cost self-loop).  State 1
    is unknown: either a cheap shortcut straight to the target or a bounce
    back to the start.  State 2 is the safe but expensive detour.
    """
    return Pkwts(
        n=4,
        initial=0,
        patterns=(
            ((1, 2),),          # start: known
            ((3,), (0,)),       # unknown: shortcut present / absent
            ((3,),),            # detour: known
            ((3,),),            # target: known, absorbing
        ),
        weights={
            (0, 1): 1,
            (1, 3): 1,
            (1, 0): 1,
            (0, 2): 5,
            (2, 3): 5,
            (3, 3): 0,
        },
        labels=(frozenset(), frozenset(), frozenset(), frozenset({"target"})),
    )


def t3_env_yes() -> Wts:
    """T3 environment where the shortcut exists."""
    return list(compatible_envs(t3()))[0]


def t3_env_no() -> Wts:
    """T3 environment where the shortcut is walled off."""
    return list(compatible_envs(t3()))[1]


T3_TASK = "F target"


FIG1_GRID = """\
.|.....
..-....
I|f.f|.
..~.-..
.....|.
..-.-..
.......
"""

FIG1_TASK = "F f"


CASE_STUDY_GRID = """\
e=extinguisher
f=fire

e..............
..-.-...-...-..
.....|.|.|.|...
~.-.-..........
.....|.|.|.|...
........-.~....
.......|.|.|...
......-........
I...........f..
"""

CASE_STUDY_TASK = "(!fire U extinguisher) & F fire"

