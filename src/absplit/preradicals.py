"""Concrete preradicals: torsion, socle, radical, p-part, nM, n-torsion, and
the divisible part (trivial on finitely generated groups).

Each preradical assigns a fully invariant subgroup r(M) to every group M via
a closed form on the invariant factors, and is natural: every morphism maps
r(dom) into r(cod).  Hereditary/cohereditary/idempotent/radical are recorded
as per-instance metadata rather than decided for arbitrary functors.
"""

from __future__ import annotations

from math import gcd

from .groups import FgAbGroup, Value
from .intmat import prime_factors, squarefree_radical
from .subgroups import Subgroup, sub_from_gens


class Preradical(Value):
    __slots__ = ("tag", "param", "hereditary", "cohereditary", "idempotent", "is_radical")

    def __init__(
        self,
        tag: str,
        param: int = 0,
        hereditary: bool = False,
        cohereditary: bool = False,
        idempotent: bool = False,
        is_radical: bool = False,
    ):
        super().__init__(tag, param, hereditary, cohereditary, idempotent, is_radical)

    @property
    def name(self) -> str:
        if self.tag in ("ppart", "mul", "ntorsion"):
            return f"{self.tag}:{self.param}"
        return self.tag

    def __call__(self, m: FgAbGroup) -> Subgroup:
        return evaluate(self, m)

    def __str__(self) -> str:
        return self.name


def torsion() -> Preradical:
    return Preradical("torsion", hereditary=True, idempotent=True, is_radical=True)


def socle() -> Preradical:
    return Preradical("socle", hereditary=True, idempotent=True)


def radical() -> Preradical:
    return Preradical("radical", cohereditary=True, is_radical=True)


def ppart(p: int) -> Preradical:
    if p < 2 or prime_factors(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    return Preradical("ppart", p, hereditary=True, idempotent=True, is_radical=True)


def mul_image(n: int) -> Preradical:
    if n < 0:
        raise ValueError("multiplier must be non-negative")
    return Preradical("mul", n, cohereditary=True, is_radical=True)


def ntorsion(n: int) -> Preradical:
    if n < 0:
        raise ValueError("torsion bound must be non-negative")
    return Preradical("ntorsion", n, hereditary=True)


def divisible() -> Preradical:
    # the divisible part of a finitely generated group is always 0
    return Preradical("divisible", idempotent=True, is_radical=True)


def parse_preradical(name: str) -> Preradical:
    """CLI names: torsion, socle, radical, ppart:<p>, mul:<n>, ntorsion:<n>, divisible."""
    base, _, arg = name.strip().partition(":")
    base = base.lower()
    if base == "torsion":
        return torsion()
    if base == "socle":
        return socle()
    if base == "radical":
        return radical()
    if base == "divisible":
        return divisible()
    if base in ("ppart", "mul", "ntorsion"):
        if not arg.isdigit():
            raise ValueError(f"{base} needs a numeric parameter, e.g. {base}:2")
        n = int(arg)
        return {"ppart": ppart, "mul": mul_image, "ntorsion": ntorsion}[base](n)
    raise ValueError(f"unknown preradical {name!r}")


def _p_component_multiplier(d: int, p: int) -> int:
    """m with m·Z/d equal to the p-part of Z/d."""
    m = d
    while m % p == 0:
        m //= p
    return m


def evaluate(r: Preradical, m: FgAbGroup) -> Subgroup:
    """r(M) as a canonical subgroup of M (closed form on invariant factors)."""
    n = m.ngens
    gens: list[tuple[int, ...]] = []

    def unit(i: int, scale: int) -> tuple[int, ...]:
        return tuple(scale if j == i else 0 for j in range(n))

    for i, d in enumerate(m.factors):
        if r.tag == "torsion":
            if d > 0:
                gens.append(unit(i, 1))
        elif r.tag == "socle":
            # Soc(Z/d) = (d / rad(d))·Z/d, Soc(Z) = 0
            if d > 0:
                gens.append(unit(i, d // squarefree_radical(d)))
        elif r.tag == "radical":
            # Rad(Z/d) = rad(d)·Z/d, Rad(Z) = 0
            if d > 0:
                gens.append(unit(i, squarefree_radical(d)))
        elif r.tag == "ppart":
            if d > 0 and d % r.param == 0:
                gens.append(unit(i, _p_component_multiplier(d, r.param)))
        elif r.tag == "mul":
            gens.append(unit(i, r.param))
        elif r.tag == "ntorsion":
            # {x : n·x = 0}: per cyclic factor the unique subgroup of order gcd(n, d)
            if d > 0:
                g = gcd(r.param, d)
                if g > 1:
                    gens.append(unit(i, d // g))
            elif r.param == 0:
                gens.append(unit(i, 1))
        elif r.tag == "divisible":
            pass
        else:
            raise ValueError(f"unknown preradical tag {r.tag!r}")
    return sub_from_gens(m, gens)
