"""Checkpointing of dynamics runs: serialize-at-round-boundaries, resume bit-identically.

Long best-response sweeps (large ``n``, many rounds) used to
restart from zero on any failure.  This module serializes the *complete*
state of a run at a round boundary — everything the activation loop in
:func:`repro.core.dynamics._run_session_loop` and its injected machinery
would otherwise carry only in memory:

* the current :class:`~repro.core.strategy.StrategyProfile` (ownership
  matrix) and the host graph + ``alpha`` that define the game, so a fresh
  process can rebuild the instance from the file alone;
* the resolved :class:`~repro.core.session.SimulationConfig` (with the
  round budget pinned to the value the original entry point resolved, so a
  resumed run honors the *remaining* budget instead of restarting it);
* loop counters and trajectory: rounds completed, ``steps``, ``moves``,
  the social-cost trajectory (binary ``float64`` — never decimal-printed),
  the cycle-detection table and, when recorded, the profile history;
* the RNG: the :class:`numpy.random.Generator` bit-generator state
  round-trips exactly, so ``order="random"`` permutations continue as if
  the run had never stopped;
* the :class:`~repro.core.incremental.IncrementalEngine` caches — distance
  matrix, per-agent residual matrices with their cache keys — and its
  :class:`~repro.core.incremental.EngineStats` counters;
* the batched schedule's :class:`~repro.core.dynamics._ProposalCache`
  contents (each cached :class:`~repro.core.best_response.BestResponseResult`
  together with the residual matrix it was scored against) plus the
  adaptive speculation-window state (window size, floor-miss counter,
  outstanding speculated agents) and the hit/miss counters.

Serializing the caches — rather than dropping and rebuilding them — is what
makes a resumed run **byte-identical** to the straight-through run in
trajectories *and* stats: a rebuilt cache would replay the same moves (a
fresh computation equals a cached proposal numerically) but shift every
hit/miss counter, the speculation window's evolution and the engine's
shortest-path counters, breaking the stats half of the invariant the
property tests enforce.

File format
-----------
A checkpoint file is ``MAGIC | version (uint32 LE) | header length
(uint64 LE) | header JSON | payload``.  The header carries all scalar
state (floats round-trip exactly through Python's shortest-repr JSON
encoding, including ``Infinity``), a schema manifest of every payload
array (name, dtype, shape, byte offset/length) and a CRC-32 of the
payload; arrays cross as raw bytes, never decimal text.  Loading verifies
magic, version, schema and checksum and raises :class:`CheckpointError`
with a precise message on any mismatch — a corrupted or
version-incompatible file can never be silently replayed into a garbage
trajectory.

Writes are **atomic**: the file is written to a temporary sibling, fsynced
and ``os.replace``d over the target, so a crash mid-write (including
SIGKILL) always leaves the previous checkpoint intact and loadable — the
torn-write tests pin this.

Writes are **streamed**: a snapshot shares the engine's and proposal
cache's read-only residuals instead of copying them, and the writer lays
out the manifest from each array's dtype and shape and checksums the
payload one array at a time, then writes the header and each array's
buffer straight into the temporary file.  A residual row view
(:class:`~repro.core.residual_delta.RowView`) is densified only for its
own array, so a save allocates about one ``(n, n)`` matrix beyond the
header, whatever the file size, and the bytes are the same as for the
same snapshot with every residual dense.  A load reads the payload once,
into one buffer, and hands out views into it, so it allocates about the
file size.

``checkpoint_path`` may contain a ``{round}`` placeholder, formatted with
the number of completed rounds at each write (keep every boundary, e.g.
for the property harness); without a placeholder the file is atomically
overwritten in place and always holds the latest boundary.

Resume surfaces: :meth:`repro.core.session.GameSession.resume` (continue
inside an open session — e.g. onto a different worker count,
which never changes a trajectory), :func:`repro.core.session.resume_dynamics`
(one-shot: rebuild game + config from the file and continue) and the CLI's
``repro resume`` command.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

import numpy as np

from .best_response import BestResponseResult
from .game import NetworkCreationGame
from .host_graph import HostGraph
from .residual_delta import Residual, RowView, dense_residual
from .strategy import StrategyProfile

if TYPE_CHECKING:  # import cycle: session serializes through this module
    from .session import SimulationConfig

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "TRAJECTORY_FIELDS",
    "Checkpoint",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "resolve_checkpoint_path",
    "rng_state_to_dict",
    "rng_from_state",
]

CHECKPOINT_MAGIC = b"REPROCKP"
CHECKPOINT_VERSION = 1
_SCHEMA = "repro-gncg-checkpoint"

# Config fields that shape the *trajectory or stats* of a run.  A resume may
# change anything else (workers, checkpoint policy) — those trade nothing
# but time and placement — but never these: the continuation would no
# longer be the same run.
TRAJECTORY_FIELDS = (
    "schedule",
    "response",
    "order",
    "max_rounds",
    "max_candidates",
)


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, corrupted or version-incompatible."""


# ----------------------------------------------------------------------
# RNG state round-trip
# ----------------------------------------------------------------------
def rng_state_to_dict(rng: np.random.Generator) -> dict[str, Any]:
    """The generator's bit-generator state as a plain JSON-safe dict.

    NumPy bit-generator states are nested dicts of Python ints (PCG64's
    128-bit words included) and strings; JSON round-trips them exactly, so
    a restored generator continues the *identical* random stream.
    """
    return _plain(rng.bit_generator.state)


def rng_from_state(state: dict[str, Any]) -> np.random.Generator:
    """A :class:`numpy.random.Generator` continuing exactly at ``state``."""
    name = state.get("bit_generator")
    try:
        bit_generator_cls = getattr(np.random, name)
    except (TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"checkpoint rng state names unknown bit generator {name!r}"
        ) from exc
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays in a state dict to builtins."""
    if isinstance(value, dict):
        return {key: _plain(val) for key, val in value.items()}
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# ----------------------------------------------------------------------
# The checkpoint record
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """Complete engine-and-loop state of a dynamics run at a round boundary.

    In memory this is the *rich* form — residual matrices keyed by raw
    bytes, proposals as :class:`~repro.core.best_response.BestResponseResult`
    objects; :func:`save_checkpoint`/:func:`load_checkpoint` convert to and
    from the versioned binary file format.  A snapshot built from a live
    run shares the engine's read-only residuals as they are (dense arrays
    or :class:`~repro.core.residual_delta.RowView` views), so building one
    copies no matrix; a loaded one holds dense read-only arrays, each a view
    into the file's one payload buffer.
    """

    config: dict[str, Any]
    alpha: float
    host_weights: np.ndarray
    rounds_completed: int
    rounds_total: int
    steps: int
    moves: int
    ownership: np.ndarray
    rng_state: dict[str, Any]
    social_costs: np.ndarray
    seen_keys: np.ndarray
    seen_moves: np.ndarray
    detect_cycles: bool
    record_history: bool
    tol: float
    engine_distances: np.ndarray
    engine_stats: dict[str, int]
    history: np.ndarray | None = None
    engine_residuals: dict[int, tuple[bytes, Residual]] = field(default_factory=dict)
    cache_state: dict[str, Any] | None = None
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    # Reconstruction helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.host_weights.shape[0])

    @property
    def remaining_rounds(self) -> int:
        return max(0, self.rounds_total - self.rounds_completed)

    def build_game(self) -> NetworkCreationGame:
        """Rebuild the exact game instance the checkpointed run was playing."""
        host = HostGraph(self.host_weights, validate=False)
        return NetworkCreationGame(host, self.alpha)

    def profile(self) -> StrategyProfile:
        """The strategy profile at the checkpointed round boundary."""
        return StrategyProfile(self.ownership, copy=True, validate=False)

    def simulation_config(self) -> "SimulationConfig":
        """The (resolved) :class:`~repro.core.session.SimulationConfig` of the run."""
        from .session import SimulationConfig

        return SimulationConfig.from_dict(self.config)

    def seen(self) -> dict[bytes, int]:
        """The cycle-detection table: canonical profile key -> move count."""
        return {
            key.tobytes(): int(move)
            for key, move in zip(self.seen_keys, self.seen_moves)
        }

    def history_profiles(self) -> list[StrategyProfile] | None:
        if self.history is None:
            return None
        return [
            StrategyProfile(owns, copy=True, validate=False) for owns in self.history
        ]

    def proposals(self) -> dict[int, tuple[BestResponseResult, Residual]]:
        """The proposal-cache contents as rich ``(result, residual)`` pairs."""
        if self.cache_state is None:
            return {}
        out: dict[int, tuple[BestResponseResult, Residual]] = {}
        for key, entry in self.cache_state["proposals"].items():
            result = BestResponseResult(
                agent=int(entry["agent"]),
                strategy=frozenset(int(v) for v in entry["strategy"]),
                cost=float(entry["cost"]),
                current_cost=float(entry["current_cost"]),
                method=str(entry["method"]),
            )
            out[int(key)] = (result, entry["d_rest"])
        return out


# ----------------------------------------------------------------------
# Path policy
# ----------------------------------------------------------------------
def resolve_checkpoint_path(template: str, rounds_completed: int) -> str:
    """Expand the optional ``{round}`` placeholder of a checkpoint path.

    ``checkpoint_path`` without a placeholder is overwritten (atomically) at
    every boundary and always holds the latest state; with ``{round}`` each
    boundary keeps its own file.
    """
    if "{round}" in template:
        return template.replace("{round}", str(int(rounds_completed)))
    return template


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
_os_replace = os.replace  # patchable seam for the torn-write tests


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckpointError(message)


class _ArrayWriter:
    """Lays out named arrays as one payload, without building it.

    Each :meth:`add` records the array's manifest entry from its dtype and
    shape and folds its bytes into a running CRC-32, and keeps the array by
    reference; :meth:`write` then streams every array's buffer to the file
    in order.  A residual row view is densified only for its own array,
    once to checksum it and once to write it, so a save holds at most one
    dense ``(n, n)`` matrix beside the header, never the payload.
    """

    def __init__(self) -> None:
        self.manifest: dict[str, dict[str, Any]] = {}
        self.arrays: list[np.ndarray | RowView] = []
        self.nbytes = 0
        self.crc32 = 0

    def add(self, name: str, array: np.ndarray | RowView, dtype: type) -> None:
        """Append ``array`` as ``dtype`` (a row view is float64 already)."""
        if not isinstance(array, RowView):
            array = np.ascontiguousarray(array, dtype=dtype)
        nbytes = math.prod(array.shape) * np.dtype(dtype).itemsize
        self.manifest[name] = {
            "dtype": np.dtype(dtype).str,
            "shape": [int(s) for s in array.shape],
            "offset": self.nbytes,
            "nbytes": nbytes,
        }
        self.crc32 = zlib.crc32(_buffer(array), self.crc32)
        self.arrays.append(array)
        self.nbytes += nbytes

    def write(self, handle: IO[bytes]) -> None:
        for array in self.arrays:
            handle.write(_buffer(array))


def _buffer(array: np.ndarray | RowView) -> memoryview:
    """The contiguous buffer of ``array``: a row view densified on the spot."""
    return (dense_residual(array) if isinstance(array, RowView) else array).data


def _serialize(ckpt: Checkpoint) -> tuple[bytes, _ArrayWriter]:
    """The file's prefix and header, and the writer laying out its payload."""
    writer = _ArrayWriter()
    writer.add("host_weights", ckpt.host_weights, np.float64)
    writer.add("ownership", ckpt.ownership, bool)
    writer.add("social_costs", ckpt.social_costs, np.float64)
    writer.add("seen_keys", ckpt.seen_keys, np.uint8)
    writer.add("seen_moves", ckpt.seen_moves, np.int64)
    if ckpt.history is not None:
        writer.add("history", ckpt.history, bool)
    writer.add("engine_distances", ckpt.engine_distances, np.float64)
    residual_keys: dict[str, str] = {}
    for u in sorted(ckpt.engine_residuals):
        key, matrix = ckpt.engine_residuals[u]
        residual_keys[str(u)] = key.hex()
        writer.add(f"residual/{u}", matrix, np.float64)

    cache_state = None
    if ckpt.cache_state is not None:
        proposals = {}
        for u, entry in ckpt.cache_state["proposals"].items():
            writer.add(f"proposal/{u}", entry["d_rest"], np.float64)
            proposals[str(int(u))] = {
                "agent": int(entry["agent"]),
                "strategy": sorted(int(v) for v in entry["strategy"]),
                "cost": float(entry["cost"]),
                "current_cost": float(entry["current_cost"]),
                "method": str(entry["method"]),
            }
        cache_state = {
            "hits": int(ckpt.cache_state["hits"]),
            "misses": int(ckpt.cache_state["misses"]),
            "prefill_window": int(ckpt.cache_state["prefill_window"]),
            "floor_misses": int(ckpt.cache_state["floor_misses"]),
            "speculated": sorted(int(v) for v in ckpt.cache_state["speculated"]),
            "proposals": proposals,
        }

    header = {
        "schema": _SCHEMA,
        "version": int(ckpt.version),
        "state": {
            "config": ckpt.config,
            "alpha": float(ckpt.alpha),
            "rounds_completed": int(ckpt.rounds_completed),
            "rounds_total": int(ckpt.rounds_total),
            "steps": int(ckpt.steps),
            "moves": int(ckpt.moves),
            "rng_state": ckpt.rng_state,
            "detect_cycles": bool(ckpt.detect_cycles),
            "record_history": bool(ckpt.record_history),
            "tol": float(ckpt.tol),
            "residual_keys": residual_keys,
            "engine_stats": ckpt.engine_stats,
            "cache_state": cache_state,
        },
        "arrays": writer.manifest,
        "payload_nbytes": writer.nbytes,
        "payload_crc32": writer.crc32,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    prefix = b"".join(
        [
            CHECKPOINT_MAGIC,
            struct.pack("<I", int(ckpt.version)),
            struct.pack("<Q", len(header_bytes)),
            header_bytes,
        ]
    )
    return prefix, writer


def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike[str]) -> None:
    """Atomically write ``ckpt`` to ``path`` (write temp sibling, fsync, rename).

    The header goes first, then each payload array's buffer straight into
    the temporary file (:class:`_ArrayWriter`), so the file image is never
    assembled in memory.  A crash at any point — including between the
    temp write and the rename — leaves the previous checkpoint at ``path``
    intact and loadable.
    """
    prefix, writer = _serialize(ckpt)
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(prefix)
            writer.write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        _os_replace(tmp_name, target)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)


def _read_exact(handle: IO[bytes], count: int, what: str) -> bytearray:
    """``count`` bytes of ``what``, read straight into one new buffer."""
    _require(count >= 0, f"implausible checkpoint {what} length {count}")
    data = bytearray(count)
    got = handle.readinto(data)
    _require(
        got == count,
        f"truncated checkpoint: expected {count} bytes of {what}, got {got}",
    )
    return data


def load_checkpoint(path: str | os.PathLike[str]) -> Checkpoint:
    """Read, schema-check and checksum-verify a checkpoint file.

    Raises :class:`CheckpointError` — never returns partial state — for a
    missing/truncated file, wrong magic, unsupported version, malformed
    header or payload checksum mismatch.

    The payload is read once, into one buffer, and every array is a view
    into it, so a load allocates about the file size, not twice that.  The
    buffer lives as long as any of its arrays does.  An array the layout
    leaves misaligned for its dtype (the byte-sized ownership matrix and
    seen keys shift the arrays after them, e.g. for odd ``n``) is copied
    out instead.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with handle:
        magic = _read_exact(handle, len(CHECKPOINT_MAGIC), "magic")
        _require(
            magic == CHECKPOINT_MAGIC,
            f"{path} is not a repro checkpoint (bad magic {bytes(magic)!r})",
        )
        (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
        _require(
            version == CHECKPOINT_VERSION,
            f"unsupported checkpoint version {version} (this build reads "
            f"version {CHECKPOINT_VERSION}); re-run the sweep or use a "
            "matching build — refusing to guess at an incompatible layout",
        )
        (header_len,) = struct.unpack("<Q", _read_exact(handle, 8, "header length"))
        _require(header_len < 2**31, "implausible checkpoint header length")
        header_bytes = _read_exact(handle, header_len, "header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupted checkpoint header: {exc}") from exc
        _require(isinstance(header, dict), "checkpoint header is not an object")
        _require(
            header.get("schema") == _SCHEMA,
            f"unknown checkpoint schema {header.get('schema')!r}",
        )
        _require(
            header.get("version") == version,
            "checkpoint header version disagrees with the file prefix",
        )
        for required in ("state", "arrays", "payload_nbytes", "payload_crc32"):
            _require(required in header, f"checkpoint header lacks {required!r}")
        payload = _read_exact(handle, int(header["payload_nbytes"]), "payload")
        _require(
            zlib.crc32(payload) == int(header["payload_crc32"]),
            "checkpoint payload failed its checksum: the file is corrupted "
            "(torn write or bit rot) — refusing to resume from garbage state",
        )

    arrays: dict[str, np.ndarray] = {}
    manifest = header["arrays"]
    _require(isinstance(manifest, dict), "checkpoint array manifest is not an object")
    for name, spec in manifest.items():
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed manifest entry for {name!r}: {exc}") from exc
        _require(
            0 <= offset and offset + nbytes <= len(payload),
            f"array {name!r} points outside the checkpoint payload",
        )
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        _require(
            expected == nbytes,
            f"array {name!r} has inconsistent shape/byte-length in the manifest",
        )
        view = np.frombuffer(
            payload, dtype=dtype, count=max(0, nbytes // dtype.itemsize), offset=offset
        ).reshape(shape)
        # The payload packs arrays back to back, so the byte-sized arrays
        # (ownership, seen keys) can shift the ones after them off their
        # dtype's grid, where numpy runs slow unaligned loops: copy those.
        arrays[name] = view if view.flags.aligned else view.copy()

    state = header["state"]
    _require(isinstance(state, dict), "checkpoint state is not an object")
    for required in (
        "config",
        "alpha",
        "rounds_completed",
        "rounds_total",
        "steps",
        "moves",
        "rng_state",
        "detect_cycles",
        "record_history",
        "tol",
        "residual_keys",
        "engine_stats",
    ):
        _require(required in state, f"checkpoint state lacks {required!r}")
    for required in (
        "host_weights",
        "ownership",
        "social_costs",
        "seen_keys",
        "seen_moves",
        "engine_distances",
    ):
        _require(required in arrays, f"checkpoint payload lacks the {required!r} array")

    n = arrays["host_weights"].shape[0]
    _require(
        arrays["host_weights"].shape == (n, n),
        "host_weights is not a square matrix",
    )
    _require(
        arrays["ownership"].shape == (n, n),
        "ownership matrix does not match the host graph size",
    )

    # Residuals load read-only, as the engine and proposal cache hold them.
    engine_residuals: dict[int, tuple[bytes, Residual]] = {}
    for key, hexdigest in state["residual_keys"].items():
        name = f"residual/{key}"
        _require(name in arrays, f"checkpoint payload lacks the {name!r} array")
        matrix = arrays[name]
        _require(
            matrix.shape == (n, n),
            f"residual matrix of agent {key} has the wrong shape",
        )
        matrix.flags.writeable = False
        try:
            engine_residuals[int(key)] = (bytes.fromhex(hexdigest), matrix)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed residual key for agent {key}: {exc}") from exc

    cache_state = state.get("cache_state")
    if cache_state is not None:
        _require(isinstance(cache_state, dict), "cache_state is not an object")
        proposals: dict[int, dict[str, Any]] = {}
        for key, entry in cache_state.get("proposals", {}).items():
            name = f"proposal/{key}"
            _require(name in arrays, f"checkpoint payload lacks the {name!r} array")
            matrix = arrays[name]
            _require(
                matrix.shape == (n, n),
                f"cached proposal residual of agent {key} has the wrong shape",
            )
            matrix.flags.writeable = False
            proposals[int(key)] = {**entry, "d_rest": matrix}
        cache_state = {
            "hits": int(cache_state["hits"]),
            "misses": int(cache_state["misses"]),
            "prefill_window": int(cache_state["prefill_window"]),
            "floor_misses": int(cache_state["floor_misses"]),
            "speculated": [int(v) for v in cache_state["speculated"]],
            "proposals": proposals,
        }

    _require(
        arrays["engine_distances"].shape == (n, n),
        "engine distance matrix does not match the host graph size",
    )
    engine_stats = state["engine_stats"]
    _require(
        isinstance(engine_stats, dict)
        and all(isinstance(v, int) for v in engine_stats.values()),
        "engine_stats is not a counter mapping",
    )

    return Checkpoint(
        config=dict(state["config"]),
        alpha=float(state["alpha"]),
        host_weights=arrays["host_weights"],
        rounds_completed=int(state["rounds_completed"]),
        rounds_total=int(state["rounds_total"]),
        steps=int(state["steps"]),
        moves=int(state["moves"]),
        ownership=arrays["ownership"],
        rng_state=state["rng_state"],
        social_costs=arrays["social_costs"],
        seen_keys=arrays["seen_keys"],
        seen_moves=arrays["seen_moves"],
        detect_cycles=bool(state["detect_cycles"]),
        record_history=bool(state["record_history"]),
        tol=float(state["tol"]),
        history=arrays.get("history"),
        engine_distances=arrays["engine_distances"],
        engine_residuals=engine_residuals,
        engine_stats=engine_stats,
        cache_state=cache_state,
        version=int(version),
    )
