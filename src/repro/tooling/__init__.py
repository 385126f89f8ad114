"""Project-specific developer tooling.

:mod:`repro.tooling.lint` is ``repro-lint``: a small AST-based static
analyzer that encodes this repository's correctness contracts --
seeded-RNG-only randomness, no shared-memory segments,
deterministic kernels (no wall clock, no float equality), frozen
round-tripping API specs, registry-declared counters, exception
hygiene, import layering -- as machine-checked rules (REP001...).
Run it as ``repro-lint`` or ``python -m repro.tooling.lint``; each
rule declares its own scope, and nothing else configures it.

The package deliberately sits at the edge of the import graph: it may
import :mod:`repro.core.counters` (the registry REP007 checks against)
and nothing else from ``repro``, so the linter can always load even
while the code it lints is broken.
"""

from typing import Any

__all__ = ["Finding", "LintReport", "lint_paths", "main"]


def __getattr__(name: str) -> Any:
    # Lazy re-export: ``python -m repro.tooling.lint`` imports this
    # package before runpy executes the submodule as __main__; an eager
    # import here would load lint twice and trip runpy's double-import
    # warning.
    if name in __all__:
        from repro.tooling import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
