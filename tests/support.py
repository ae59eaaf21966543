"""Module constructions and predicates that only the tests use."""

from endolab.modules import FiniteModule, enumerate_submodules
from endolab.rings import FiniteRing


def zero_module(ring: FiniteRing) -> FiniteModule:
    return FiniteModule(ring=ring, moduli=(), action=((),) * ring.basis_count, name="0")


def is_simple(m: FiniteModule, cap: int) -> bool:
    return len(enumerate_submodules(m, cap)) == 2
