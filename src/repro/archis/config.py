"""One configuration object for the whole engine facade.

:class:`ArchISConfig` gathers every knob that used to be a scattered
positional flag — profile selection, clustering thresholds, cache and
buffer sizes, durability mode and the batched-ingest batch size — into
a single keyword-only frozen dataclass consumed by
``ArchIS.__init__``/``ArchIS.open``.  The old per-call flags
(``profile=``, ``umin=``, ``buffer_pages=``, ...) were deprecated
aliases for several releases and are now gone: pass
``config=ArchISConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ArchisError

#: default bound on the per-system XQuery → Translation LRU cache
DEFAULT_TRANSLATION_CACHE_SIZE = 128


@dataclass(frozen=True, kw_only=True)
class ArchISConfig:
    """Engine-wide settings (all keyword-only, all with defaults).

    ``profile``
        ``"atlas"`` (update-log tracking) or ``"db2"`` (triggers).
    ``umin``
        The clustering threshold U_min in (0, 1); ``None`` disables
        segmentation (paper Fig. 9's unclustered comparison point).
    ``min_segment_rows``
        Minimum live-segment size before a freeze may trigger.
    ``translation_cache_size``
        Bound on the XQuery → Translation LRU cache.
    ``batch_size``
        Update-log entries archived per :class:`BatchArchiver` batch.
        ``None`` keeps the row-at-a-time apply path.
    ``durability``
        Pager mode for file-backed archives: ``"wal"`` or ``"none"``.
    ``buffer_pages``
        Buffer-pool capacity for file-backed archives.
    ``maintenance``
        How segment freezes run: ``"inline"`` (synchronous sorted
        rewrite inside the apply that triggered it), ``"background"``
        (cheap logical switch on the apply path; a maintenance worker
        performs the rewrite in bounded steps), or ``"off"`` (never
        freeze).
    ``maintenance_step_rows``
        Row budget per background rewrite step (bounds how long the
        worker holds the history lock at a time).
    """

    profile: str = "atlas"
    umin: float | None = 0.4
    min_segment_rows: int = 64
    translation_cache_size: int = DEFAULT_TRANSLATION_CACHE_SIZE
    batch_size: int | None = None
    durability: str = "wal"
    buffer_pages: int = 1024
    maintenance: str = "inline"
    maintenance_step_rows: int = 1024

    def __post_init__(self) -> None:
        from repro.archis.clustering import MAINTENANCE_MODES

        if self.maintenance not in MAINTENANCE_MODES:
            raise ArchisError(
                f"unknown maintenance mode {self.maintenance!r}; use "
                + ", ".join(MAINTENANCE_MODES)
            )
        if self.maintenance_step_rows < 1:
            raise ArchisError("maintenance_step_rows must be >= 1")
        if self.translation_cache_size < 1:
            raise ArchisError("translation_cache_size must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ArchisError("batch_size must be >= 1 (or None)")
        if self.buffer_pages < 1:
            raise ArchisError("buffer_pages must be >= 1")
        if self.durability not in ("wal", "none"):
            raise ArchisError(
                f"unknown durability {self.durability!r}; use wal or none"
            )

    def replace(self, **changes) -> "ArchISConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def resolve_config(config: ArchISConfig | None) -> ArchISConfig:
    """Default a missing config (the legacy-alias folding is gone)."""
    return config if config is not None else ArchISConfig()


__all__ = [
    "ArchISConfig",
    "DEFAULT_TRANSLATION_CACHE_SIZE",
    "resolve_config",
]
