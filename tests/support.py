"""Module constructions and predicates that only the tests use."""

from endolab import linalg
from endolab.modules import FiniteModule, ModuleHom, enumerate_submodules
from endolab.rings import FiniteRing


def zero_module(ring: FiniteRing) -> FiniteModule:
    return FiniteModule(ring=ring, moduli=(), action=((),) * ring.basis_count, name="0")


def is_simple(m: FiniteModule, cap: int) -> bool:
    return len(enumerate_submodules(m, cap)) == 2


def is_module_hom(h: ModuleHom) -> bool:
    """Well-defined mod codomain moduli and commutes with every action matrix."""
    dm, cm = h.domain.moduli, h.codomain.moduli
    for i in range(h.domain.rank):
        for j in range(h.codomain.rank):
            if (dm[i] * h.matrix[i][j]) % cm[j]:
                return False
    for t in range(h.domain.ring.basis_count):
        lhs = linalg.mat_mod(linalg.mat_mul(h.domain.action[t], h.matrix), cm)
        rhs = linalg.mat_mod(linalg.mat_mul(h.matrix, h.codomain.action[t]), cm)
        if lhs != rhs:
            return False
    return True
