"""Three-valued verdicts and the exception vocabulary shared by all layers.

A Verdict is True, False (with an optional witness), or undecided when an
enumeration cap was hit.  Suites must treat undecided as "skip with notice",
never as a pass.  Each verdict policy has one home here: ``agree`` merges
routes, ``both`` conjoins the parts of a claim, ``undecided_on_cap`` turns a
cap hit or an undecided part (``Verdict.require``) into undecided, and
``implies`` passes a theorem check vacuously when its hypothesis is false.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar


class Undecided(Exception):
    """A part of a decision is undecided; the message is the reason."""


class CapExceeded(Undecided):
    """An enumeration would produce more objects than the configured cap."""

    def __init__(self, total: int, cap: int, what: str = "elements"):
        super().__init__(f"{total} {what} exceeds cap {cap}")
        self.total = total
        self.cap = cap
        self.what = what


class InternalInconsistency(Exception):
    """Two independent decision routes disagreed; signals an implementation bug."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure: True / False(witness) / undecided."""

    value: Optional[bool]
    witness: Any = None
    reason: str = ""

    @staticmethod
    def yes(reason: str = "") -> "Verdict":
        return Verdict(True, reason=reason)

    @staticmethod
    def no(witness: Any = None, reason: str = "") -> "Verdict":
        return Verdict(False, witness=witness, reason=reason)

    @staticmethod
    def undecided(reason: str) -> "Verdict":
        return Verdict(None, reason=reason)

    @property
    def decided(self) -> bool:
        return self.value is not None

    def require(self) -> bool:
        """The decided value; an undecided verdict raises Undecided with its
        reason, which ``undecided_on_cap`` turns back into a verdict."""
        if self.value is None:
            raise Undecided(self.reason)
        return self.value

    def __bool__(self) -> bool:
        if self.value is None:
            raise ValueError(f"undecided verdict used as boolean: {self.reason}")
        return self.value

    def describe(self) -> str:
        if self.value is None:
            return f"undecided ({self.reason})"
        if self.value:
            return "true"
        return f"false (witness: {self.witness!r})" if self.witness is not None else "false"


def agree(name: str, *verdicts: Verdict) -> Verdict:
    """Merge independent routes that must agree wherever decided.

    Raises InternalInconsistency on any decided disagreement; returns the
    first decided verdict, or undecided if none is.
    """
    decided = [v for v in verdicts if v.decided]
    if not decided:
        reasons = "; ".join(v.reason for v in verdicts)
        return Verdict.undecided(f"{name}: all routes undecided ({reasons})")
    values = {v.value for v in decided}
    if len(values) > 1:
        raise InternalInconsistency(
            f"{name}: independent routes disagree: "
            + ", ".join(v.describe() for v in verdicts)
        )
    return decided[0]


def both(*verdicts: Verdict) -> Verdict:
    """The conjunction policy: the first false verdict itself, else yes when
    every verdict is true, else undecided with the first undecided reason."""
    for v in verdicts:
        if v.value is False:
            return v
    return next((Verdict.undecided(v.reason) for v in verdicts if not v.decided), Verdict.yes())


@dataclass(frozen=True)
class Caps:
    """Enumeration caps: ring/module elements, submodules, hom-group elements."""

    elements: int = 4096
    submodules: int = 512
    homs: int = 4096


F = TypeVar("F", bound=Callable[..., Any])


def memo(fn: F) -> F:
    """Remember a route's answer for the life of the process.

    The key is the arguments (caps included) plus the ``name`` of each
    argument that has one: modules and rings compare equal regardless of
    their names, but reason strings and witnesses carry them.  Only
    returned values are stored; an exception propagates and the next call
    computes afresh.  ``fn.__wrapped__`` is the uncached computation.
    """
    cache: dict = {}

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        values = args + tuple(kwargs.values())
        key = (args, tuple(kwargs.items()), tuple(getattr(v, "name", None) for v in values))
        try:
            return cache[key]
        except KeyError:
            pass
        result = cache[key] = fn(*args, **kwargs)
        return result

    return memoized  # type: ignore[return-value]


def _named_like(fn: Callable, wrapper: F) -> F:
    """Give ``wrapper`` the name and docstring of ``fn``.

    Unlike functools.wraps this sets no ``__wrapped__``: that attribute
    marks a memoized route and leads to its uncached computation.
    """
    functools.update_wrapper(wrapper, fn)
    del wrapper.__wrapped__
    return wrapper


def undecided_on_cap(fn: F) -> F:
    """The undecided policy: an Undecided escaping ``fn`` (a cap hit, or an
    undecided part passed to ``Verdict.require``) becomes an undecided
    verdict with the same reason, so it names the cap that caused it.  Stack
    it under ``@memo`` so the undecided verdict is remembered like any
    other."""

    def capped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Undecided as exc:
            return Verdict.undecided(str(exc))

    return _named_like(fn, capped)


def implies(hyp: Verdict, conclusion: Callable[[], Verdict]) -> Verdict:
    """The vacuous-pass policy for a claim "if hyp then conclusion".

    A false hypothesis passes vacuously and an undecided one leaves the claim
    undecided; only a true one computes the conclusion.
    """
    if hyp.value is False:
        return Verdict.yes(reason="hypothesis fails")
    if not hyp.decided:
        return Verdict.undecided(hyp.reason)
    return conclusion()


def assuming(hypothesis: Callable[..., Verdict]) -> Callable[[F], F]:
    """Guard a check with ``implies``: the check's body is the conclusion,
    run only when ``hypothesis`` holds for the same arguments."""

    def guard(check: F) -> F:
        def guarded(*args, **kwargs):
            return implies(hypothesis(*args, **kwargs), lambda: check(*args, **kwargs))

        return _named_like(check, guarded)

    return guard
