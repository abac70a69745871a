"""The one record every verdict is stated in.

A check is either a residual compared with a bound (`ok = value <= bound`,
so a NaN value fails) or a numeric rank compared with the rank the
mathematics requires.  A yes/no condition is a residual check with value 0
or 1 against bound 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    degree: int | None
    direction: int | None
    ok: bool
    value: float | None = None
    bound: float | None = None
    rank: int | None = None
    expected: int | None = None

    @classmethod
    def residual(cls, name: str, value: float, bound: float,
                 degree: int | None = None, direction: int | None = None) -> Check:
        value = float(value)
        return cls(name, degree, direction, bool(value <= bound), value=value,
                   bound=float(bound))

    @classmethod
    def flag(cls, name: str, ok: bool, degree: int | None = None,
             direction: int | None = None) -> Check:
        return cls.residual(name, float(not ok), 0.5, degree, direction)

    @classmethod
    def ranked(cls, name: str, rank: int, expected: int, degree: int | None = None,
               direction: int | None = None) -> Check:
        return cls(name, degree, direction, rank == expected, rank=int(rank),
                   expected=int(expected))

    def to_dict(self) -> dict:
        out = {"check": self.name, "degree": self.degree, "direction": self.direction}
        if self.rank is None:
            out.update(value=self.value, bound=self.bound)
        else:
            out.update(rank=self.rank, expected=self.expected)
        out["pass"] = self.ok
        return out


def all_pass(checks) -> bool:
    """True when there is at least one check and every check passed."""
    return bool(checks) and all(c.ok for c in checks)
