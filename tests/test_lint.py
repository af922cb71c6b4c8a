"""Lightweight lint enforced as tests: no unused imports, no tabs,
only the run-context module writes the process-wide instrument slots,
only the LP backend imports scipy's private HiGHS bindings,
and every call pinning the reference simulator is listed with a reason.

Keeps the source tree tidy without external tooling (the environment is
offline); the checker is a small AST walk, deliberately conservative
(``__init__.py`` re-exports and ``TYPE_CHECKING`` blocks are exempt).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
SOURCES = sorted(
    path for path in SRC.rglob("*.py")
)


def imported_names(tree):
    """Yield (alias, node) for every import binding in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield alias.asname or alias.name, node


def used_names(tree):
    """All identifiers and attribute roots referenced in *tree*."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            pass  # roots are Name nodes, already collected
    # names referenced in string annotations
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         str):
            for token in node.value.replace("|", " ").replace(
                    "[", " ").replace("]", " ").split():
                names.add(token.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_unused_imports(path):
    if path.name == "__init__.py":
        pytest.skip("package __init__ files re-export")
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [
        name for name, _ in imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_tabs_and_no_trailing_whitespace(path):
    offenders = []
    for number, line in enumerate(path.read_text().splitlines(),
                                  start=1):
        if "\t" in line:
            offenders.append(f"{number}: tab")
        if line != line.rstrip():
            offenders.append(f"{number}: trailing whitespace")
    assert not offenders, f"{path.name}: {offenders[:5]}"


#: Primitives that write a process-wide instrument slot.
SLOT_WRITERS = frozenset({
    "set_default_store", "set_fault_plan", "set_collector",
    "set_registry", "set_recorder", "set_progress_sink", "set_run_log",
    "install_from_spec",
})

#: The one module allowed to call :data:`SLOT_WRITERS`.
RUN_CONTEXT = SRC / "engine" / "context.py"


def called_names(tree):
    """Yield (name, line) for every call by bare or attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path != RUN_CONTEXT],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_only_the_run_context_writes_slots(path):
    tree = ast.parse(path.read_text())
    offenders = [
        f"{line}: {name}" for name, line in called_names(tree)
        if name in SLOT_WRITERS
    ]
    assert not offenders, (
        f"{path.name}: install through RunContext instead of "
        f"{offenders}"
    )


#: scipy's bundled HiGHS bindings: a private API, confined to one module.
PRIVATE_HIGHS = "scipy.optimize._highspy"

#: The one module allowed to import :data:`PRIVATE_HIGHS`.
LP_BACKEND = SRC / "ilp" / "scipy_backend.py"


def private_highs_imports(tree):
    """Yield the line of every import reaching :data:`PRIVATE_HIGHS`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any(target == PRIVATE_HIGHS
               or target.startswith(PRIVATE_HIGHS + ".")
               for target in targets):
            yield node.lineno


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path != LP_BACKEND],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_only_the_lp_backend_imports_private_highs(path):
    lines = list(private_highs_imports(ast.parse(path.read_text())))
    assert not lines, (
        f"{path.name}: lines {lines} import {PRIVATE_HIGHS}; go "
        f"through repro.ilp.scipy_backend instead"
    )


def test_lp_backend_private_highs_import_is_detected():
    assert list(private_highs_imports(ast.parse(LP_BACKEND.read_text())))


#: Every ``src/repro`` call that passes a literal ``backend="reference"``,
#: keyed by (module, enclosing function), with why it needs the
#: reference interpreter.  A pin skips the vector kernel without
#: touching ``sim.kernel.fallbacks``, so a fast path can be bypassed
#: silently; a new pin must be added here on purpose.
REFERENCE_PINS = {
    ("core/pipeline.py", "Workbench.simulate_image_grid.compute"):
        "grid fallback for configs the kernel rejects (ARC/OPT/random); "
        "the caller counts each in sim.kernel.fallbacks first",
    ("core/pipeline.py", "Workbench._phase_profile"):
        "phase-tracked baseline of the overlay allocator; the kernel "
        "does not bin statistics per phase",
    ("evaluation/dse.py", "_OptBound._bench"):
        "OPT-policy workbench; only the interpreter drives the "
        "next-use oracle",
    ("evaluation/verify_grid.py", "_replay_cases"):
        "verify-grid oracle side",
    ("memory/kernel/verify.py", "workload_images"):
        "verify-kernel/verify-grid fixture profiled on the oracle, so "
        "the kernel is never checked against its own output",
    ("memory/kernel/verify.py", "_region_case"):
        "verify-kernel oracle side (random loop-cache regions)",
    ("memory/kernel/verify.py", "_workload_cases"):
        "verify-kernel oracle side",
    ("memory/kernel/verify.py", "_loop_cache_cases"):
        "verify-kernel oracle side (loop-cache hierarchies)",
    ("obs/history.py", "measure_policy_misses"):
        "policy suite covers ARC/OPT/random; one interpreter for "
        "every row keeps the OPT floor comparable",
}


def reference_pins(tree):
    """Yield the qualified name of each scope pinning the reference."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and any(
                keyword.arg == "backend"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == "reference"
                for keyword in child.keywords
            ):
                yield ".".join(scope)
            yield from walk(child, scope)

    yield from walk(tree, [])


def test_reference_backend_pins_are_listed():
    found = {
        (str(path.relative_to(SRC)), scope)
        for path in SOURCES
        for scope in reference_pins(ast.parse(path.read_text()))
    }
    assert not found - set(REFERENCE_PINS), (
        f"unlisted backend=\"reference\" pins (add each with its "
        f"reason to REFERENCE_PINS): {sorted(found - set(REFERENCE_PINS))}"
    )
    assert not set(REFERENCE_PINS) - found, (
        f"stale REFERENCE_PINS entries: "
        f"{sorted(set(REFERENCE_PINS) - found)}"
    )
