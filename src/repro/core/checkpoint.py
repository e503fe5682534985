"""Checkpointing: persist and restore GA run state — crash-safely.

Long full-fidelity experiment sweeps (50 runs × 500 generations) benefit
from resumability.  A checkpoint captures the population genomes, the RNG
state, the generation counter and the best-so-far genome; the domain
and config are reconstructed by the caller (they are code, not data).

Durability contract (the fault-model half of this module):

- **Atomic writes** — :func:`save_checkpoint` writes to a temporary file in
  the target directory, fsyncs, then ``os.replace``\\ s it into place, so a
  crash mid-write never leaves a partial checkpoint observable under the
  final name.
- **Integrity** — the on-disk container is a versioned header (magic +
  CRC32 of the pickled payload); :func:`load_checkpoint` rejects truncated
  or bit-flipped files with :class:`CheckpointError` instead of unpickling
  garbage.  Headerless files from older versions still load (legacy path).
- **Recovery** — :func:`load_latest_checkpoint` scans a directory newest-
  first and silently falls back past corrupted files to the last good
  snapshot, emitting a ``checkpoint-recovered`` event when it had to skip.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ga import BestGenome, GARun
from repro.core.popbuffer import PopulationBuffer
from repro.obs.events import CheckpointRecovered, CheckpointWrite
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, default_metrics, default_tracer

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "checkpoint_path",
    "restore_run",
]

_FORMAT_VERSION = 1

#: On-disk container: magic, format-version byte, CRC32 of the payload.
_MAGIC = b"RGACKPT\x01"
_HEADER = struct.Struct("<8sI")  # magic + crc32


class CheckpointError(ValueError):
    """A checkpoint file is corrupt: truncated, bit-flipped, or not ours."""


@dataclass
class Checkpoint:
    """Serializable snapshot of a :class:`GARun`."""

    version: int
    generation: int
    genomes: List[np.ndarray]
    rng_state: dict
    best_genes: Optional[np.ndarray]
    solved_at: Optional[int]


def capture(run: GARun) -> Checkpoint:
    """Snapshot a run (populations are stored as raw genomes)."""
    return Checkpoint(
        version=_FORMAT_VERSION,
        generation=run.generation,
        genomes=[run.buffer.view(i).copy() for i in range(run.buffer.n)],
        rng_state=run.rng.bit_generator.state,
        best_genes=None if run.best is None else run.best.genes.copy(),
        solved_at=run.solved_at,
    )


def checkpoint_path(directory: str | Path, generation: int) -> Path:
    """Canonical per-generation filename; lexical order == generation order."""
    return Path(directory) / f"ckpt-{generation:08d}.pkl"


def save_checkpoint(run: GARun, path: str | Path) -> None:
    """Persist *run* to *path* atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(capture(run), protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, zlib.crc32(payload))
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # only on failure — os.replace consumed it otherwise
            tmp.unlink()
    if run.tracer.enabled:
        run.tracer.emit(
            CheckpointWrite(scope=run.scope, path=str(path), generation=run.generation)
        )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint file.

    Raises :class:`CheckpointError` (a ``ValueError``) on corruption and
    plain ``ValueError`` on a well-formed file of the wrong shape/version.
    """
    path = Path(path)
    data = path.read_bytes()
    if data.startswith(_MAGIC):
        if len(data) < _HEADER.size:
            raise CheckpointError(f"{path} is truncated: header incomplete")
        _, crc = _HEADER.unpack_from(data)
        payload = data[_HEADER.size :]
        if zlib.crc32(payload) != crc:
            raise CheckpointError(
                f"{path} failed its checksum: file is truncated or corrupted"
            )
        ckpt = pickle.loads(payload)
    else:
        # Legacy headerless bare pickle (pre-hardening checkpoints).
        try:
            ckpt = pickle.loads(data)
        except Exception as exc:
            raise CheckpointError(f"{path} is not a checkpoint (corrupt or foreign file)") from exc
    if not isinstance(ckpt, Checkpoint):
        raise ValueError(f"{path} does not contain a Checkpoint")
    if ckpt.version != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint version {ckpt.version} unsupported (expected {_FORMAT_VERSION})"
        )
    return ckpt


def load_latest_checkpoint(
    directory: str | Path,
    pattern: str = "*.pkl",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[Tuple[Checkpoint, Path]]:
    """Newest loadable checkpoint in *directory*, skipping corrupt files.

    Candidates are taken in reverse lexical order (the
    :func:`checkpoint_path` naming makes that newest-first).  A corrupted
    or unreadable newest file is skipped in favour of the next — emitting a
    ``checkpoint-recovered`` event and ticking ``checkpoints_recovered`` —
    so one torn write never strands a resumable sweep.  Returns ``None``
    when the directory holds no candidates at all; raises
    :class:`CheckpointError` when every candidate is corrupt.
    """
    tracer = tracer if tracer is not None else default_tracer()
    metrics = metrics if metrics is not None else default_metrics()
    directory = Path(directory)
    candidates = sorted(directory.glob(pattern), reverse=True) if directory.is_dir() else []
    if not candidates:
        return None
    skipped: List[str] = []
    for path in candidates:
        try:
            ckpt = load_checkpoint(path)
        except (ValueError, OSError) as exc:
            skipped.append(f"{path.name} ({exc})")
            continue
        if skipped:
            if metrics is not None:
                metrics.counter("checkpoints_recovered").add(1)
            if tracer.enabled:
                tracer.emit(
                    CheckpointRecovered(
                        path=str(path), generation=ckpt.generation, skipped=len(skipped)
                    )
                )
        return ckpt, path
    raise CheckpointError(
        f"no loadable checkpoint in {directory}: all {len(skipped)} candidate(s) "
        "corrupt — " + "; ".join(skipped)
    )


def restore_run(run: GARun, ckpt: Checkpoint) -> GARun:
    """Load checkpoint state into a freshly constructed run.

    The run must have been built with the same domain, config and start
    state that produced the checkpoint; only the evolving state is restored.
    The genomes enter through :meth:`~repro.core.popbuffer.PopulationBuffer.
    from_genomes`, the intake seeds take, as pending rows.

    Observability round-trip: events are tagged with the generation counter,
    and the restored run resumes counting at ``ckpt.generation``, so a trace
    spanning the original and resumed runs contains each generation exactly
    once.  The best genome's plan and fitness are rebuilt with the run's
    context, not its evaluator: bookkeeping, not new search work, so
    resuming never counts an evaluation.
    """
    if len(ckpt.genomes) != run.config.population_size:
        raise ValueError(
            f"checkpoint population size {len(ckpt.genomes)} does not match "
            f"config population size {run.config.population_size}"
        )
    run.buffer = PopulationBuffer.from_genomes(ckpt.genomes, keep_plans=run.buffer.keep_plans)
    run.generation = ckpt.generation
    run.rng.bit_generator.state = ckpt.rng_state
    run.solved_at = ckpt.solved_at
    if ckpt.best_genes is not None:
        genes = np.array(ckpt.best_genes, dtype=np.float64)
        decoded = run.context.decode_genes(genes)
        run.best = BestGenome(genes=genes, fitness=run.context.fitness(decoded), decoded=decoded)
    return run
