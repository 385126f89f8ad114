"""``repro-lint``: the repository's contracts as executable checks.

The kernels, the delta engine, the snapshot store and the service
façade each rest on invariants that a reviewer cannot see in a diff
hunk: randomness must flow through seeded generators or runs stop
being reproducible; the package creates no shared-memory segments, so
none can leak past test teardown; deterministic
kernels must not read the wall clock or compare floats for equality;
request specs must stay frozen and wire-round-trippable; counters must
be declared in one registry or they ship half-wired; cross-process
locking must stay inside ``repro.store`` or two flock protocols end up
fighting over one directory.  This module
turns each of those into an AST-level rule with a stable ``REPnnn``
code, so every future change is checked by machine instead of memory.

Usage::

    repro-lint [paths ...] [--root DIR] [--json] [--list-rules]
    python -m repro.tooling.lint src

There is nothing to configure.  A rule's scope is declared once, in
its own ``@rule(include=..., exclude=...)``: ``fnmatch`` globs matched
against the file's path relative to ``--root`` (default: the current
directory).  A module whose job a rule forbids elsewhere is exempted
there, next to the checker: REP008 exempts the CLI, which prints by
design; REP011 the modules that own file writes; REP012 the store,
which owns the lock protocol.  So every exemption is read in one place
and changes only in review.  The positional paths default to
:data:`DEFAULT_PATHS`.

Every finding is an error.  Exit status: 0 when there are no findings,
1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.counters import SESSION_COUNTERS, STORE_COUNTERS

#: What ``repro-lint`` lints when no path is given.
DEFAULT_PATHS = ("src",)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    column: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON encoding (the ``--json`` wire shape)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }

    def render(self) -> str:
        """The human one-liner (``path:line:col: CODE error: msg``)."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.code} error: {self.message}"
        )


@dataclass
class ModuleSource:
    """One parsed file handed to every in-scope rule."""

    path: str  # project-root-relative, POSIX separators
    tree: ast.Module

    @property
    def package_parts(self) -> Tuple[str, ...]:
        """Dotted-package parts under ``src/`` (empty outside it).

        ``src/repro/core/tp.py`` -> ``("repro", "core")``; the
        layering rule keys on this.
        """
        parts = Path(self.path).parts
        if len(parts) < 2 or parts[0] != "src":
            return ()
        return tuple(parts[1:-1])


#: A rule body: yields ``(node, message)`` per violation.
Checker = Callable[[ModuleSource], Iterator[Tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule and the files it covers."""

    code: str
    name: str
    description: str
    checker: Checker
    include: Tuple[str, ...] = ("src/*",)
    exclude: Tuple[str, ...] = ()


#: The rule registry, in code order.
RULES: Dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    description: str,
    *,
    include: Tuple[str, ...] = ("src/*",),
    exclude: Tuple[str, ...] = (),
) -> Callable[[Checker], Checker]:
    """Register a checker function under a ``REPnnn`` code.

    ``include`` and ``exclude`` are the rule's whole scope: the files
    it checks are those matching an ``include`` glob and no ``exclude``
    glob.
    """

    def decorate(checker: Checker) -> Checker:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        RULES[code] = Rule(
            code=code,
            name=name,
            description=description,
            checker=checker,
            include=include,
            exclude=exclude,
        )
        return checker

    return decorate


# ---------------------------------------------------------------------------
# Import resolution shared by several rules
# ---------------------------------------------------------------------------


class _ImportMap:
    """Alias -> dotted-name resolution over a module's imports.

    Tracks both module-level and function-level imports (a lazy
    ``import numpy.random`` inside a helper must not evade REP001);
    the layering rule uses its own module-level-only walk instead.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    self.aliases[name.asname or name.name.split(".")[0]] = (
                        name.name if name.asname else name.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    if name.name == "*":
                        continue
                    self.aliases[name.asname or name.name] = (
                        f"{node.module}.{name.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression like ``np.random.default_rng``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))


def _calls(source: ModuleSource) -> Iterator[ast.Call]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            yield node


# ---------------------------------------------------------------------------
# REP001 -- seeded RNG only
# ---------------------------------------------------------------------------

#: ``numpy.random`` constructors that are legitimate *seeded* plumbing
#: when called with an explicit seed/state argument.
_NP_SEEDED_CONSTRUCTORS = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
)


@rule(
    "REP001",
    "unseeded-rng",
    "Randomness must flow through an explicitly seeded random.Random or "
    "numpy Generator; module-level RNG state makes runs irreproducible.",
)
def _check_unseeded_rng(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    imports = _ImportMap(source.tree)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(
                name.name for name in node.names if name.name != "Random"
            )
            if bad:
                yield node, (
                    f"import of module-level RNG {bad!r} from 'random'; "
                    f"import the Random class and seed an instance instead"
                )
        if not isinstance(node, ast.Call):
            continue
        dotted = imports.resolve(node.func)
        if dotted is None:
            continue
        has_args = bool(node.args or node.keywords)
        if dotted == "random.Random":
            if not has_args:
                yield node, (
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed"
                )
        elif dotted == "random.SystemRandom" or dotted.startswith("random."):
            yield node, (
                f"call to module-level RNG '{dotted}'; construct a seeded "
                f"random.Random and thread it through instead"
            )
        elif dotted in _NP_SEEDED_CONSTRUCTORS:
            if not has_args:
                yield node, (
                    f"'{dotted}()' without a seed is nondeterministic; "
                    f"pass an explicit seed"
                )
        elif dotted.startswith("numpy.random."):
            yield node, (
                f"call to legacy global-state RNG '{dotted}'; use a seeded "
                f"numpy.random.default_rng(seed) Generator instead"
            )


# ---------------------------------------------------------------------------
# REP002 -- no shared-memory segments
# ---------------------------------------------------------------------------


@rule(
    "REP002",
    "untracked-shared-memory",
    "SharedMemory(create=True) is not allowed anywhere in the package: "
    "nothing tracks or unlinks the segment, so it leaks on /dev/shm.",
)
def _check_untracked_shm(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    imports = _ImportMap(source.tree)
    for node in _calls(source):
        dotted = imports.resolve(node.func)
        if dotted is None or not dotted.endswith("SharedMemory"):
            continue
        creates = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        ) or (
            len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is True
        )
        if creates:
            yield node, (
                "SharedMemory(create=True) in the package; nothing tracks "
                "or unlinks the segment, so it leaks on /dev/shm"
            )


# ---------------------------------------------------------------------------
# REP003 -- no wall clock in deterministic modules
# ---------------------------------------------------------------------------

_WALL_CLOCK = frozenset(
    (
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    )
)


@rule(
    "REP003",
    "wall-clock-in-kernel",
    "Kernel/query/cleaning modules are deterministic functions of their "
    "inputs; wall-clock reads (time.time, datetime.now) break the "
    "bit-reproducibility contract.  Monotonic/perf counters are fine.",
    include=(
        "src/repro/db/*",
        "src/repro/core/*",
        "src/repro/queries/*",
        "src/repro/cleaning/*",
    ),
)
def _check_wall_clock(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    imports = _ImportMap(source.tree)
    for node in _calls(source):
        dotted = imports.resolve(node.func)
        if dotted in _WALL_CLOCK:
            yield node, (
                f"wall-clock read '{dotted}' inside a deterministic module; "
                f"use time.monotonic()/time.perf_counter() for durations, "
                f"or take timestamps at the service boundary"
            )


# ---------------------------------------------------------------------------
# REP004 -- no float equality in kernel code
# ---------------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # Negated literal: -1.0 parses as UnaryOp(USub, Constant(1.0)).
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


@rule(
    "REP004",
    "float-equality",
    "Float == / != in core/ and queries/ hides accumulated roundoff; "
    "compare against the 1e-9 cross-check tolerance helpers instead.",
    include=("src/repro/core/*", "src/repro/queries/*"),
)
def _check_float_equality(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                yield node, (
                    "float equality comparison against a float literal; "
                    "use an explicit tolerance (the kernels' cross-checks "
                    "use 1e-9) or restructure around an ordered comparison"
                )


# ---------------------------------------------------------------------------
# REP005 -- API specs stay frozen and wire-round-trippable
# ---------------------------------------------------------------------------


def _dataclass_decorator(cls: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return decorator
    return None


@rule(
    "REP005",
    "unfrozen-api-spec",
    "Dataclasses in repro.api are wire values: they must be frozen=True, "
    "and spec classes (those with a TYPE tag) must round-trip through "
    "to_dict/from_dict.",
    include=("src/repro/api/*",),
)
def _check_frozen_specs(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        frozen = isinstance(decorator, ast.Call) and any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in decorator.keywords
        )
        if not frozen:
            yield node, (
                f"api dataclass {node.name!r} is not frozen=True; specs and "
                f"results are immutable wire values"
            )
        has_type_tag = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "TYPE" for t in stmt.targets
            )
            for stmt in node.body
        )
        if has_type_tag:
            methods = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            missing = sorted({"to_dict", "from_dict"} - methods)
            if missing:
                yield node, (
                    f"spec dataclass {node.name!r} lacks {missing}; every "
                    f"TYPE-tagged spec must JSON-round-trip"
                )


# ---------------------------------------------------------------------------
# REP006 -- exception hygiene
# ---------------------------------------------------------------------------


def _names_base_exception(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "BaseException"
    if isinstance(annotation, ast.Tuple):
        return any(_names_base_exception(e) for e in annotation.elts)
    return False


@rule(
    "REP006",
    "swallowed-base-exception",
    "No bare except:, and an except BaseException: handler must re-raise; "
    "swallowing KeyboardInterrupt/SystemExit turns a shutdown request "
    "into a silent hang.",
)
def _check_exception_hygiene(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, (
                "bare 'except:' catches SystemExit and KeyboardInterrupt; "
                "name the exceptions this path can actually handle"
            )
            continue
        if _names_base_exception(node.type):
            reraises = any(
                isinstance(inner, ast.Raise) and inner.exc is None
                for inner in ast.walk(node)
            )
            if not reraises:
                yield node, (
                    "'except BaseException:' without a bare re-raise "
                    "swallows interpreter shutdown signals; clean up, "
                    "then 'raise'"
                )


# ---------------------------------------------------------------------------
# REP007 -- counters declared in the registry
# ---------------------------------------------------------------------------


@rule(
    "REP007",
    "undeclared-counter",
    "Attributes named psr_* are operational counters; every one must be "
    "declared in repro.core.counters (SESSION_COUNTERS or STORE_COUNTERS) "
    "so it is carried across derives and surfaced in result envelopes.",
)
def _check_counter_registry(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    declared = frozenset(SESSION_COUNTERS) | frozenset(STORE_COUNTERS)
    for node in ast.walk(source.tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr.startswith("psr_")
                and target.attr not in declared
            ):
                yield target, (
                    f"counter attribute {target.attr!r} is not declared in "
                    f"repro.core.counters (SESSION_COUNTERS or "
                    f"STORE_COUNTERS); undeclared counters ship half-wired "
                    f"(dropped on derive, absent from result envelopes)"
                )


# ---------------------------------------------------------------------------
# REP008 -- no print() in library code
# ---------------------------------------------------------------------------


@rule(
    "REP008",
    "print-in-library",
    "Library modules must not print(); output belongs to the CLI's JSON "
    "envelopes (and the lint tool's own reporter).",
    # The CLI and the lint tool are the modules whose job is stdout.
    exclude=("src/repro/tooling/*", "src/repro/cli.py"),
)
def _check_no_print(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in _calls(source):
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node, (
                "print() in library code; return data and let the CLI "
                "render it, or use the JSON envelope helpers"
            )


# ---------------------------------------------------------------------------
# REP009 -- import layering
# ---------------------------------------------------------------------------

#: Packages the foundation layer may import from ``repro``.
_DB_ALLOWED = ("repro.db", "repro.exceptions")

#: Everything the persistence layer may import from ``repro``: the data
#: layer below it, the fault-injection harness, and the lock-order
#: checker.  Importing the serving layer back would create a cycle.
_STORE_ALLOWED = (
    "repro.db",
    "repro.exceptions",
    "repro.testing",
    "repro.core",
    "repro.store",
)

#: Units allowed to import the persistence layer.  The serving layer
#: persists through it; nothing below the store may reach up into it.
_STORE_IMPORTERS = ("api", "store", "cli", "__init__")

#: Units allowed to import the service façade / CLI / bench harness.
#: ``__init__`` is the top-level package root -- the public re-export
#: surface -- which by design depends on everything below it.
_API_IMPORTERS = ("api", "bench", "cli", "__init__")
_CLI_IMPORTERS = ("cli", "__main__")
_BENCH_IMPORTERS = ("bench", "cli")

#: Everything the tooling package may import from ``repro``.
_TOOLING_ALLOWED = ("repro.core.counters", "repro.exceptions", "repro.tooling")


def _module_level_repro_imports(
    source: ModuleSource,
) -> Iterator[Tuple[ast.stmt, str]]:
    """Top-level ``repro.*`` imports (TYPE_CHECKING blocks excluded)."""
    for stmt in source.tree.body:
        if isinstance(stmt, ast.Import):
            for name in stmt.names:
                if name.name == "repro" or name.name.startswith("repro."):
                    yield stmt, name.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
            module = stmt.module or ""
            if module == "repro" or module.startswith("repro."):
                yield stmt, module


@rule(
    "REP009",
    "layering-violation",
    "Module-level imports must respect the package layering: repro.db "
    "imports nothing above itself; repro.store sits between db and api "
    "and never imports the serving layer; only api/bench/cli import "
    "repro.api; only __main__ imports repro.cli; repro.tooling stays a "
    "leaf.  Function-level lazy imports remain the sanctioned "
    "cycle-breaker.",
)
def _check_layering(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    parts = source.package_parts
    if not parts or parts[0] != "repro":
        return
    # The "unit" a module belongs to for layering purposes: its first
    # subpackage, or -- for top-level modules like cli.py -- its stem.
    package = parts[1] if len(parts) > 1 else Path(source.path).stem
    for stmt, imported in _module_level_repro_imports(source):
        if package == "db" and not imported.startswith(_DB_ALLOWED):
            yield stmt, (
                f"repro.db is the foundation layer and must not import "
                f"{imported!r}; move the dependency up or make it a "
                f"function-level lazy import"
            )
        if package == "store" and not imported.startswith(_STORE_ALLOWED):
            yield stmt, (
                f"repro.store is the persistence layer and must not import "
                f"{imported!r} (allowed: {_STORE_ALLOWED}); in particular "
                f"it never imports the serving layer back"
            )
        if imported.startswith("repro.store") and package not in _STORE_IMPORTERS:
            yield stmt, (
                f"{imported!r} (the persistence layer) may only be imported "
                f"by {_STORE_IMPORTERS}"
            )
        if imported.startswith("repro.api") and package not in _API_IMPORTERS:
            yield stmt, (
                f"{imported!r} (the service façade) may only be imported "
                f"by {_API_IMPORTERS}; lower layers must not depend on it"
            )
        if imported.startswith("repro.cli") and package not in _CLI_IMPORTERS:
            yield stmt, f"{imported!r} may only be imported by the __main__ shim"
        if imported.startswith("repro.bench") and package not in _BENCH_IMPORTERS:
            yield stmt, (
                f"{imported!r} (the benchmark harness) may only be imported "
                f"by {_BENCH_IMPORTERS}"
            )
        if imported.startswith("repro.tooling") and package != "tooling":
            yield stmt, (
                f"{imported!r} is developer tooling and must not be "
                f"imported by the library"
            )
        if package == "tooling" and not imported.startswith(_TOOLING_ALLOWED):
            yield stmt, (
                f"repro.tooling must stay loadable while the library is "
                f"broken; it may not import {imported!r} (allowed: "
                f"{_TOOLING_ALLOWED})"
            )


# ---------------------------------------------------------------------------
# REP010 -- no mutable default arguments
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set")
        and not node.args
        and not node.keywords
    )


@rule(
    "REP010",
    "mutable-default-argument",
    "A mutable default ([] / {} / set()) is evaluated once and shared "
    "across calls; default to None and construct inside the function.",
)
def _check_mutable_defaults(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield default, (
                    f"mutable default argument in {node.name!r}; use None "
                    f"and construct inside the body"
                )


# ---------------------------------------------------------------------------
# REP011 -- file writes only in the sanctioned modules
# ---------------------------------------------------------------------------

#: Modules allowed to open files for writing: the crash-safe store
#: (which owns the temp+fsync+rename protocol), the db serializers,
#: and the CLI's explicit output flags.  A write anywhere else
#: bypasses the durability protocol and the stranded-temp accounting.
_WRITE_SANCTIONED = (
    "src/repro/store/*",
    "src/repro/db/io.py",
    "src/repro/cli.py",
)

#: ``os.open`` flag names that imply write access.
_OS_WRITE_FLAGS = frozenset(
    ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC")
)


def _write_mode(node: ast.Call, mode_position: int) -> Optional[str]:
    """The literal mode string of an ``open()`` call, if it writes.

    ``mode_position`` is 1 for the builtin (``open(path, mode)``) and 0
    for the ``Path.open(mode)`` method form.
    """
    mode: Optional[ast.expr] = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return None
    if any(flag in mode.value for flag in ("w", "a", "x", "+")):
        return mode.value
    return None


@rule(
    "REP011",
    "unscoped-file-write",
    "Opening a file for writing is allowed only in repro.store (the "
    "crash-safe write protocol), repro.db.io (the serializers) and the "
    "CLI; writes elsewhere bypass the temp+fsync+rename discipline and "
    "the stranded-temp-file accounting.",
    exclude=_WRITE_SANCTIONED,
)
def _check_scoped_writes(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in _calls(source):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _write_mode(node, mode_position=1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # ``os.open`` is an Attribute call too, but takes integer
            # flags, not a mode string; the flag walk below covers it.
            mode = _write_mode(node, mode_position=0)
        else:
            mode = None
        if mode is not None:
            yield node, (
                f"open(..., {mode!r}) outside the sanctioned write "
                f"modules {list(_WRITE_SANCTIONED)}; route the write "
                f"through repro.store or repro.db.io"
            )
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in _OS_WRITE_FLAGS:
            yield node, (
                f"os.{node.attr} implies write access outside the "
                f"sanctioned write modules {list(_WRITE_SANCTIONED)}; "
                f"route the write through repro.store"
            )


# ---------------------------------------------------------------------------
# REP012 -- fcntl / lock-file manipulation only in repro.store
# ---------------------------------------------------------------------------

#: Modules allowed to touch ``fcntl``: the store package owns the one
#: cross-process locking protocol (``repro.store.locks``).  A second
#: flock elsewhere would either deadlock against the store's (if
#: ordered wrong) or silently fail to exclude it (if on a different
#: file) -- both are protocol forks, not features.
_LOCKING_SANCTIONED = ("src/repro/store/*",)


@rule(
    "REP012",
    "unscoped-file-locking",
    "fcntl / cross-process lock-file manipulation is allowed only in "
    "repro.store, which owns the one advisory-locking protocol "
    "(bounded wait, holder records, stale-lock recovery); every other "
    "layer must go through the store.",
    exclude=_LOCKING_SANCTIONED,
)
def _check_scoped_locking(source: ModuleSource) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "fcntl" or alias.name.startswith("fcntl."):
                    yield node, (
                        f"import of {alias.name!r} outside the sanctioned "
                        f"locking modules {list(_LOCKING_SANCTIONED)}; "
                        f"take cross-process locks through "
                        f"repro.store.locks.StoreLock"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "fcntl" or (
                node.module or ""
            ).startswith("fcntl."):
                yield node, (
                    f"import from {node.module!r} outside the sanctioned "
                    f"locking modules {list(_LOCKING_SANCTIONED)}; take "
                    f"cross-process locks through "
                    f"repro.store.locks.StoreLock"
                )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "fcntl"
            ):
                yield node, (
                    f"fcntl.{node.attr} outside the sanctioned locking "
                    f"modules {list(_LOCKING_SANCTIONED)}; take "
                    f"cross-process locks through "
                    f"repro.store.locks.StoreLock"
                )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _matches(path: str, patterns: Iterable[str]) -> bool:
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int

    @property
    def errors(self) -> int:
        return len(self.findings)

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` payload."""
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {"errors": self.errors},
        }


def _python_files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    seen = set()
    for raw in paths:
        target = (root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = (target,)
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate in seen:
                continue
            seen.add(candidate)
            yield candidate


def lint_paths(paths: Sequence[str], root: Optional[Path] = None) -> LintReport:
    """Lint ``paths`` (files or directories) against every rule."""
    root = (root or Path.cwd()).resolve()
    findings: List[Finding] = []
    files = 0
    for file_path in _python_files(root, paths):
        files += 1
        try:
            rel = file_path.relative_to(root).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        text = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(file_path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    code="REP000",
                    path=rel,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        source = ModuleSource(path=rel, tree=tree)
        for rule_ in RULES.values():
            if not _matches(rel, rule_.include) or _matches(rel, rule_.exclude):
                continue
            for node, message in rule_.checker(source):
                findings.append(
                    Finding(
                        code=rule_.code,
                        path=rel,
                        line=getattr(node, "lineno", 1),
                        column=getattr(node, "col_offset", 0),
                        message=message,
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return LintReport(findings=findings, files_checked=files)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _render_rule_list() -> str:
    lines = []
    for rule_ in RULES.values():
        lines.append(f"{rule_.code}  {rule_.name}")
        lines.append(f"    {rule_.description}")
        lines.append(f"    include: {list(rule_.include)}")
        if rule_.exclude:
            lines.append(f"    exclude: {list(rule_.exclude)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-lint`` / ``python -m repro.tooling.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-specific static analysis: this repository's "
            "reproducibility/serving contracts as REPnnn rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root that paths and rule scopes are relative to "
        "(default: cwd)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rule_list())
        return 0

    try:
        report = lint_paths(
            list(args.paths) or list(DEFAULT_PATHS), root=Path(args.root)
        )
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        if report.findings:
            print(
                f"repro-lint: {report.errors} error(s) in "
                f"{report.files_checked} file(s)"
            )
        else:
            print(
                f"repro-lint: clean ({report.files_checked} files, "
                f"{len(RULES)} rules)"
            )
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
