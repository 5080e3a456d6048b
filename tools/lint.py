"""A dependency-free AST linter for the two defect classes that have
actually bitten this codebase: dead local variables (assigned, never
read -- e.g. a leftover ``attacker = self._tdg.attacker``) and unused
imports.

No third-party linter is vendored into the repro environment, so this
small checker is wired into ``make verify`` (and run by
``tests/test_lint.py``) to keep those regressions out of tier-1.

Deliberately conservative -- it only reports patterns that are
unambiguously dead:

- **unused-local**: a name bound by a plain assignment (``x = ...``),
  annotated assignment, ``with ... as x`` or ``except ... as x`` inside a
  function, never loaded anywhere in that function's subtree (nested
  scopes included) and not declared ``global``/``nonlocal``.  Loop
  targets, unpacking targets, walrus bindings and ``_``-prefixed names
  are never reported; functions calling ``locals``/``eval``/``exec`` are
  skipped wholesale.
- **unused-import**: a module- or function-level import whose bound name
  is never loaded anywhere in the file, not listed in ``__all__``, not an
  explicit re-export (``import x as x``), and not under an
  ``if TYPE_CHECKING:`` guard.
- **raw-timing**: a ``time.time()`` / ``time.perf_counter()`` (or bare
  ``perf_counter()``) call in engine code under ``src/``.  Timings there
  belong on the instrumentation layer's sanctioned clock
  (``repro.obs.monotonic``) or inside a span, so histograms, spans and
  ad-hoc measurements stay mutually comparable; the :mod:`repro.obs`
  package itself (which *defines* that clock) is exempt.
- **object-posting**: an annotated binding whose type is a dict of
  name collections (``Dict[..., Set[str]]``, ``FrozenSet[str]``,
  ``List[str]`` or ``Tuple[str, ...]`` values) in one of the
  id-compacted hot modules (``core/index.py``, ``levels/parents.py``,
  ``levels/engine.py``).  Since the id-compaction pass, postings there
  are int bitmasks keyed by interned ids; a names-keyed dict is either
  a regression back to boxed-object postings or a decoding view -- a
  view must say so with a ``# decoded view`` comment on the binding
  line, which suppresses the finding.
- **bare-print**: a ``print(...)`` call in the CLI package
  (``src/repro/cli/``).  CLI stdout is an NDJSON record stream consumed
  by the next pipe stage; every write must go through the record writer
  (``repro.cli.records.RecordWriter``) so one stray ``print`` cannot
  corrupt the stream mid-pipeline.  Diagnostics belong on stderr
  (``sys.stderr.write``).
- **swallowed-exception**: an ``except`` handler in the serving tier
  (``src/repro/serve/``) whose body does nothing (only ``pass``,
  ``...`` or a bare string).  Serve-layer failure paths must surface
  somewhere an operator can see -- re-raise, reply with an error,
  or write an audit record; silently eating the exception drops a
  tenant's request on the floor.
- **deprecation-shim**: any reference to ``DeprecationWarning`` in the
  package (``src/repro/``).  Every caller of the package lives in this
  repository, so an entry point that has a replacement is deleted and
  its callers moved, not kept behind a warning.
- **private-interner**: an ``Interner(...)`` construction in the
  package (``src/repro/``) outside ``core/index.py``.  The ecosystem
  index owns the one service id-space every bitmask layer shares; a
  second interner means masks that must be re-encoded bit by bit to
  mix.  (:class:`SignatureInterner` keys a different space and is not
  reported.)

A trailing ``# noqa`` comment on the offending line suppresses any
finding.  Exit status is non-zero when anything is reported::

    python tools/lint.py [paths...]     # defaults to src tests benchmarks tools
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

#: Calls that make local liveness undecidable for a whole function.
_DYNAMIC_SCOPE_CALLS = {"locals", "vars", "eval", "exec"}

#: ``time.<attr>()`` calls the raw-timing rule reports in engine code.
_RAW_TIMING_ATTRS = {
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
}

#: Bare-name call forms of the same (``from time import perf_counter``).
#: ``monotonic`` is deliberately absent: ``repro.obs.monotonic`` is the
#: sanctioned clock these call sites should migrate to.
_RAW_TIMING_NAMES = {"perf_counter", "perf_counter_ns", "monotonic_ns"}

#: Modules the object-posting rule covers: the id-compacted hot paths,
#: where postings must be int bitmasks (decoding views excepted).
_HOT_POSTING_MODULES = (
    ("core", "index.py"),
    ("levels", "parents.py"),
    ("levels", "engine.py"),
)

#: Name-collection value types that mark a dict as an object posting.
_NAME_COLLECTION_VALUES = re.compile(
    r"(?:FrozenSet|Set|List)\[str\]|Tuple\[str,"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


def _noqa_lines(source: str) -> Set[int]:
    """1-indexed lines carrying a ``# noqa`` suppression comment."""
    return {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "# noqa" in text
    }


def _loaded_names(tree: ast.AST) -> Set[str]:
    """Every identifier the tree reads (``Load`` contexts only)."""
    loaded: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return loaded


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
    return names


def _is_type_checking_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _iter_imports(
    tree: ast.Module,
) -> Iterable[Tuple[str, int, bool]]:
    """Yield (bound name, line, explicit re-export) per import binding,
    skipping ``if TYPE_CHECKING:`` blocks (bindings that exist only for
    string annotations the AST cannot see as loads)."""

    def walk(nodes: Iterable[ast.stmt]) -> Iterable[Tuple[str, int, bool]]:
        for node in nodes:
            if _is_type_checking_guard(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    reexport = alias.asname == alias.name
                    yield bound, node.lineno, reexport
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    reexport = alias.asname == alias.name
                    yield bound, node.lineno, reexport
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield from walk([child])
                elif hasattr(child, "body"):
                    # e.g. If/Try branch lists live on the parent already.
                    pass

    yield from walk(tree.body)


def _function_bindings(
    function: ast.AST,
) -> Iterable[Tuple[str, int, str]]:
    """(name, line, kind) for every plainly-dead-checkable binding in one
    function body, without descending into nested functions/classes."""

    def walk(nodes: Iterable[ast.stmt]) -> Iterable[Tuple[str, int, str]]:
        for node in nodes:
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    yield node.targets[0].id, node.lineno, "assignment"
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and isinstance(
                    node.target, ast.Name
                ):
                    yield node.target.id, node.lineno, "assignment"
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        yield (
                            item.optional_vars.id,
                            node.lineno,
                            "context manager",
                        )
            elif isinstance(node, ast.Try):
                for handler in node.handlers:
                    if handler.name is not None:
                        yield handler.name, handler.lineno, "exception"
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield from walk([child])
                elif isinstance(child, (ast.ExceptHandler,)):
                    yield from walk(child.body)
                elif hasattr(child, "body") and isinstance(
                    getattr(child, "body"), list
                ):
                    yield from walk(child.body)

    body = getattr(function, "body", [])
    yield from walk(body)


def _declared_escapes(function: ast.AST) -> Set[str]:
    """Names declared ``global``/``nonlocal`` anywhere in the subtree."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


def _calls_dynamic_scope(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _DYNAMIC_SCOPE_CALLS
        ):
            return True
    return False


def _raw_timing_applies(path: str) -> bool:
    """The raw-timing rule covers engine code under ``src/`` but exempts
    the :mod:`repro.obs` package, which defines the sanctioned clock."""
    parts = re.split(r"[\\/]", path)
    return "src" in parts and "obs" not in parts


def _raw_timing_findings(
    tree: ast.Module, noqa: Set[int], path: str
) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in noqa:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RAW_TIMING_ATTRS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            called = f"time.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in _RAW_TIMING_NAMES:
            called = func.id
        else:
            continue
        yield Finding(
            path,
            node.lineno,
            "raw-timing",
            f"{called}() in engine code; time through repro.obs "
            "(monotonic or a span) so measurements share one clock",
        )


def _object_posting_applies(path: str) -> bool:
    parts = re.split(r"[\\/]", path)
    return any(
        len(parts) >= 2 and tuple(parts[-2:]) == module
        for module in _HOT_POSTING_MODULES
    )


def _decoded_view_lines(source: str) -> Set[int]:
    """1-indexed lines carrying the ``# decoded view`` marker."""
    return {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "# decoded view" in text
    }


def _dict_value_annotation(annotation: ast.AST) -> "str | None":
    """The unparsed value type of a ``Dict[key, value]`` annotation (or
    ``None`` when the annotation is not a two-slot Dict/dict subscript).
    Only the value slot is inspected, so name collections in *key*
    position (e.g. a ``Tuple[str, Platform]`` memo key) never match."""
    if not isinstance(annotation, ast.Subscript):
        return None
    base = annotation.value
    name = base.attr if isinstance(base, ast.Attribute) else getattr(
        base, "id", None
    )
    if name not in {"Dict", "dict", "Mapping", "MutableMapping"}:
        return None
    if not (
        isinstance(annotation.slice, ast.Tuple)
        and len(annotation.slice.elts) == 2
    ):
        return None
    return ast.unparse(annotation.slice.elts[1])


def _object_posting_findings(
    tree: ast.Module, source: str, noqa: Set[int], path: str
) -> Iterable[Finding]:
    marked = _decoded_view_lines(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.AnnAssign):
            continue
        if node.lineno in noqa or node.lineno in marked:
            continue
        value_type = _dict_value_annotation(node.annotation)
        if value_type is None:
            continue
        if not _NAME_COLLECTION_VALUES.search(value_type):
            continue
        annotation = ast.unparse(node.annotation)
        target = ast.unparse(node.target)
        yield Finding(
            path,
            node.lineno,
            "object-posting",
            f"{target} is a names-keyed dict posting ({annotation}) in an "
            "id-compacted hot module; store an int bitmask keyed by "
            "interned ids, or mark a decoding view with '# decoded view'",
        )


def _bare_print_applies(path: str) -> bool:
    """The bare-print rule covers the CLI package only: stdout there is
    an NDJSON stream, and one stray ``print`` corrupts it mid-pipe."""
    parts = re.split(r"[\\/]", path)
    return "src" in parts and "cli" in parts


def _bare_print_findings(
    tree: ast.Module, noqa: Set[int], path: str
) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in noqa:
            continue
        if not (
            isinstance(node.func, ast.Name) and node.func.id == "print"
        ):
            continue
        yield Finding(
            path,
            node.lineno,
            "bare-print",
            "print() in the CLI package; stdout is an NDJSON record "
            "stream -- write through repro.cli.records.RecordWriter "
            "(or sys.stderr for diagnostics)",
        )


def _swallowed_exception_applies(path: str) -> bool:
    """The swallowed-exception rule covers the serving tier only: that
    is where an eaten exception silently drops a tenant's request."""
    parts = re.split(r"[\\/]", path)
    return "serve" in parts and "src" in parts


def _handler_does_nothing(handler: ast.ExceptHandler) -> bool:
    """True when the handler body is pure filler: ``pass``, ``...`` or a
    bare constant expression (a string used as a pseudo-comment)."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
        for stmt in handler.body
    )


def _swallowed_exception_findings(
    tree: ast.Module, noqa: Set[int], path: str
) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.lineno in noqa:
            continue
        if not _handler_does_nothing(node):
            continue
        caught = (
            ast.unparse(node.type) if node.type is not None else "everything"
        )
        yield Finding(
            path,
            node.lineno,
            "swallowed-exception",
            f"handler catches {caught} and does nothing; serve-layer "
            "failure paths must re-raise, reply with an error, or audit",
        )


def _deprecation_shim_applies(path: str) -> bool:
    """The deprecation-shim rule covers the package under ``src/repro/``."""
    parts = re.split(r"[\\/]", path)
    return "src" in parts and "repro" in parts


def _deprecation_shim_findings(
    tree: ast.Module, noqa: Set[int], path: str
) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name != "DeprecationWarning" or node.lineno in noqa:
            continue
        yield Finding(
            path,
            node.lineno,
            "deprecation-shim",
            "DeprecationWarning in the package; every caller is in this "
            "repository, so move them and delete the old entry point",
        )


def _private_interner_applies(path: str) -> bool:
    """The private-interner rule covers the package under ``src/repro/``
    except ``core/index.py``, which owns the service id-space."""
    parts = re.split(r"[\\/]", path)
    return (
        "src" in parts
        and "repro" in parts
        and tuple(parts[-2:]) != ("core", "index.py")
    )


def _private_interner_findings(
    tree: ast.Module, noqa: Set[int], path: str
) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in noqa:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        if name != "Interner":
            continue
        yield Finding(
            path,
            node.lineno,
            "private-interner",
            "Interner() outside core/index.py; service bitmasks share the "
            "ecosystem index's id-space (EcosystemIndex.ids)",
        )


def check_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source; returns all findings, line-ordered."""
    tree = ast.parse(source, filename=path)
    noqa = _noqa_lines(source)
    findings: List[Finding] = []

    if _raw_timing_applies(path):
        findings.extend(_raw_timing_findings(tree, noqa, path))

    if _object_posting_applies(path):
        findings.extend(
            _object_posting_findings(tree, source, noqa, path)
        )

    if _bare_print_applies(path):
        findings.extend(_bare_print_findings(tree, noqa, path))

    if _swallowed_exception_applies(path):
        findings.extend(
            _swallowed_exception_findings(tree, noqa, path)
        )

    if _deprecation_shim_applies(path):
        findings.extend(_deprecation_shim_findings(tree, noqa, path))

    if _private_interner_applies(path):
        findings.extend(_private_interner_findings(tree, noqa, path))

    loaded_anywhere = _loaded_names(tree)
    exported = _dunder_all(tree)
    for name, line, reexport in _iter_imports(tree):
        if reexport or line in noqa or name.startswith("_"):
            continue
        if name in loaded_anywhere or name in exported:
            continue
        findings.append(
            Finding(path, line, "unused-import", f"{name!r} is never used")
        )

    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _calls_dynamic_scope(node):
            continue
        loaded = _loaded_names(node)
        escapes = _declared_escapes(node)
        seen: Set[str] = set()
        for name, line, kind in _function_bindings(node):
            if (
                name.startswith("_")
                or name in loaded
                or name in escapes
                or name in seen
                or line in noqa
            ):
                continue
            seen.add(name)
            findings.append(
                Finding(
                    path,
                    line,
                    "unused-local",
                    f"{kind} binds {name!r} but it is never read",
                )
            )

    findings.sort(key=lambda f: f.line)
    return findings


def check_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for root in paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            findings.extend(
                check_source(file.read_text(encoding="utf-8"), str(file))
            )
    return findings


DEFAULT_TARGETS = ("src", "tests", "benchmarks", "tools")


def main(argv: List[str]) -> int:
    targets = [Path(arg) for arg in argv] if argv else [
        Path(name) for name in DEFAULT_TARGETS if Path(name).exists()
    ]
    findings = check_paths(targets)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} lint finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
