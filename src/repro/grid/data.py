"""Data ontology: typed, attributed data products with genealogy.

The paper's program preconditions include "the type, format, amount, and
possibly a history of the input data" — the worked footnote example is a 2D
image whose resolution, filtering and transform history decides which
downstream program may legally consume it.  :class:`DataProduct` carries all
of that as hashable, immutable values so products can live inside planning
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

__all__ = ["DataType", "DataProduct", "ProvenanceStep"]


@dataclass(frozen=True)
class DataType:
    """A named data type with a format and a nominal volume."""

    name: str
    format: str = "binary"
    volume_mb: float = 100.0

    def __post_init__(self) -> None:
        if self.volume_mb < 0:
            raise ValueError(f"data type {self.name!r}: volume must be non-negative")


@dataclass(frozen=True)
class ProvenanceStep:
    """One entry in a product's genealogy: which program, with what params."""

    program: str
    params: tuple = ()

    def __str__(self) -> str:
        if not self.params:
            return self.program
        kv = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.program}({kv})"


def _freeze_attrs(attrs: Optional[Mapping[str, object]]) -> tuple:
    if not attrs:
        return ()
    return tuple(sorted(attrs.items()))


@dataclass(frozen=True)
class DataProduct:
    """An immutable data artefact.

    Attributes
    ----------
    dtype:
        Name of the :class:`DataType`.
    attrs:
        Sorted ``(key, value)`` pairs — resolution, frequency cutoffs, ...
        Checked by program input constraints.
    history:
        The genealogy: the sequence of :class:`ProvenanceStep` that produced
        this artefact.  Programs may constrain it (e.g. "must have been
        histogram-equalised", "must not have been low-pass filtered").
    """

    dtype: str
    attrs: tuple = ()
    history: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", tuple(self.attrs))
        object.__setattr__(self, "history", tuple(self.history))

    @staticmethod
    def make(
        dtype: str,
        attrs: Optional[Mapping[str, object]] = None,
        history: Tuple[ProvenanceStep, ...] = (),
    ) -> "DataProduct":
        return DataProduct(dtype=dtype, attrs=_freeze_attrs(attrs), history=tuple(history))

    def attr(self, key: str, default: object = None) -> object:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def with_attrs(self, **updates: object) -> "DataProduct":
        merged = dict(self.attrs)
        merged.update(updates)
        return DataProduct(dtype=self.dtype, attrs=_freeze_attrs(merged), history=self.history)

    def derived(
        self,
        dtype: str,
        program: str,
        params: Optional[Mapping[str, object]] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> "DataProduct":
        """A new product produced from this one by *program*."""
        step = ProvenanceStep(program=program, params=_freeze_attrs(params))
        return DataProduct(
            dtype=dtype,
            attrs=_freeze_attrs(attrs) if attrs is not None else self.attrs,
            history=self.history + (step,),
        )

    def processed_by(self, program: str) -> bool:
        """Whether *program* appears anywhere in the genealogy."""
        return any(step.program == program for step in self.history)

    def __str__(self) -> str:
        hist = " <- ".join(str(s) for s in reversed(self.history)) or "raw"
        return f"{self.dtype}[{hist}]"
