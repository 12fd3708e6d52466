"""The design context: one object carrying everything a flow needs.

Historically every layer of the pipeline took a bare
:class:`repro.charlib.nldm.Library` and rebuilt whatever else it
needed (match-table views, signoff configs, RNG seeds) on the spot —
``run_scenarios`` constructed a fresh ``TechLibraryView`` per
scenario, and experiment harnesses re-derived the same objects per
figure.  :class:`DesignContext` replaces that ad-hoc threading: it
bundles the temperature corner, the characterized library, the
signoff configuration, the power-vector seed, and the
:class:`repro.core.artifacts.ArtifactCache`, and it memoizes the
derived products (library fingerprint, technology view) so they are
built exactly once and shared by every stage, scenario, and circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..charlib.nldm import Library
from ..sta.timing import SignoffConfig
from .artifacts import ArtifactCache, cache_key, config_digest, default_cache


@dataclass
class DesignContext:
    """Immutable-by-convention bundle of flow-wide state.

    Build one per (technology, temperature) corner and share it across
    circuits and scenarios — every derived product is
    memoized through the artifact cache, so sharing the context is
    what makes characterization and view construction one-time costs.
    """

    library: Library
    signoff: SignoffConfig = field(default_factory=SignoffConfig)
    #: Seed for the random signoff vector streams.
    seed: int = 0
    cache: ArtifactCache = field(default_factory=default_cache)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_library(
        cls,
        library: Library,
        signoff: SignoffConfig | None = None,
        seed: int = 0,
        cache: ArtifactCache | None = None,
    ) -> "DesignContext":
        """Wrap an already-characterized library."""
        return cls(
            library=library,
            signoff=signoff or SignoffConfig(),
            seed=seed,
            cache=cache or default_cache(),
        )

    @classmethod
    def default(
        cls,
        temperature: float = 10.0,
        signoff: SignoffConfig | None = None,
        seed: int = 0,
        cache: ArtifactCache | None = None,
    ) -> "DesignContext":
        """Characterize (or fetch from cache) the default technology
        at a temperature corner and wrap it."""
        from ..charlib.engine import default_library

        cache = cache or default_cache()
        library = default_library(temperature, cache=cache)
        return cls.from_library(
            library,
            signoff=signoff,
            seed=seed,
            cache=cache,
        )

    # -- derived, memoized products -------------------------------------
    @property
    def temperature(self) -> float:
        """Corner temperature [K] (the library's characterization T)."""
        return self.library.temperature

    @property
    def library_fingerprint(self) -> str:
        return self.library.fingerprint()

    @property
    def view(self):
        """The shared match-table view of the library.

        Built at most once per library content (not per scenario or
        per flow) through the artifact cache; the view is pure w.r.t.
        the library, so sharing it is always sound.
        """
        from ..mapping.library import TechLibraryView

        return TechLibraryView.for_library(self.library, cache=self.cache)

    def signoff_digest(self) -> str:
        """Digest of the signoff boundary conditions + vector seed."""
        return config_digest((self.signoff, self.seed))

    def stage_key(self, kind: str, *parts: Any) -> str:
        """Cache key scoped to this context's library and signoff."""
        return cache_key(kind, self.library_fingerprint, self.signoff_digest(), *parts)

    def scenario_key(self, aig: Any, scenario: str, *parts: Any) -> str:
        """Cache key for one fully signed-off scenario result.

        This is the unit of the crash-safe run journal (see
        :mod:`repro.resilience.journal`): a journaled ``run_scenarios``
        stores the final :class:`repro.core.flow.FlowResult` under this
        key and journals ``(key, digest)`` so an interrupted sweep can
        replay completed scenarios from the cache on ``--resume``.  The key
        must capture everything the result depends on — callers pass
        the scenario *set* (the fair-clock rule couples scenarios) and
        every signoff knob as ``parts``.
        """
        return self.stage_key("scenario.result", aig, scenario, *parts)

    def with_signoff(self, signoff: SignoffConfig) -> "DesignContext":
        return replace(self, signoff=signoff)
