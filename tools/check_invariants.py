#!/usr/bin/env python3
"""AST-based repo invariant checker (CI-required lint).

Enforces ten codebase contracts no general-purpose linter knows
about:

1. **event kinds are closed** -- every literal event kind passed to an
   ``*.events.emit(...)`` / ``*.log.emit(...)`` call must be a member
   of ``EVENT_KINDS`` (src/repro/obs/events.py).  A typo'd kind would
   otherwise raise only when that code path runs.
2. **CLI JSON goes through the envelope** -- every ``_print_json(...)``
   in src/repro/cli.py must be fed a document built by an approved
   producer (``envelope(...)``, a ``.to_dict()`` / ``to_json_doc(...)``
   result, or a local that demonstrably derives from one / sets its own
   ``schema`` key).  This keeps the uniform ``--json`` contract honest.
3. **deterministic paths stay deterministic** -- the fault plan/site
   enumeration and the static analyzer must not consult wall-clock time
   or unseeded randomness; their outputs are pinned by seeds and
   inputs alone.
4. **generated code has one home** -- the builtins ``exec``, ``eval``
   and ``compile`` run only in the instruction compiler
   (src/repro/cpu/compiler.py), which builds executor source from
   decoded instructions alone; anywhere else they would be a way to
   run text from outside the program.
5. **threads have one home** -- ``ThreadPoolExecutor`` and
   ``threading.Thread`` appear only under src/repro/serve/, where the
   verifier daemon runs its event loop and pump executor.  Rollouts
   run serially on their caller's thread, and fault sweeps serially or
   on a process pool (rule 10): a thread pool on their CPU-bound paths
   ran slower under the GIL than a plain loop and hid the work from
   profilers.
6. **broad excepts stay where they are sanctioned** -- ``except
   Exception``, ``except BaseException``, a bare ``except:`` and any
   tuple holding one of them appear only at the (file, function) sites
   in ``BROAD_EXCEPT_SITES``, each with the reason it must catch
   everything.  Anywhere else a broad handler would turn a typed
   boundary error (or a bug) into silence.
7. **the monitor's region bits have one home** -- ``F_EXEC``,
   ``F_PMEM``, ``F_SDMEM`` and ``F_SROM`` are imported or reached only
   in src/repro/memory/map.py, which defines them, and
   src/repro/casu/monitor.py, whose rule table and hand-written
   ``observe`` are the only code that decides a rule from them.  A
   rule written anywhere else would be a copy the refinement check
   and the mutation gate never see.
8. **control-transfer classification has one home** -- no code under
   src/repro/ compares against the literal ``"call"``, ``"reti"`` or
   ``"ret"``, or builds a set, tuple or list literal holding ``"call"``
   or ``"reti"``, outside ``TRANSFER_EXEMPT``: src/repro/isa/, where
   :mod:`repro.isa.transfer` decides which instructions are calls,
   returns and jumps, and the modules that emit, rewrite or execute
   instructions or judge them independently.  Anywhere else such a
   literal is a second classifier, and the CFG, the trace and the
   replayer could disagree about one instruction.
9. **every definition has a caller** -- each function and class
   defined under src/repro/ is named somewhere else in src/, tests/,
   benchmarks/, examples/, tools/ or ledger/ (in code, a string or a
   comment).  An import statement or an ``__all__`` entry does not
   count: it only re-exports the name.  Dunder methods, which Python
   calls itself, and the ``Cpu._ex_*`` executors, which the CPU
   dispatches by mnemonic, are exempt.  The other rules
   judge each file alone, so :func:`run_checks` runs them on any tree;
   this rule reads the whole repository, and :func:`main` runs it
   beside them.
10. **process pools have one home** -- ``ProcessPoolExecutor``,
    ``multiprocessing`` and ``os.fork`` appear only in
    src/repro/faults/campaign.py, whose fault sweep maps one batch
    function over one JSON context serially or on a pool, so the two
    tally identically by construction.  Anywhere else a pool would be
    a second engine whose results need reconciling with the serial
    one (a rollout's replicas did not match), and a fork from the
    verifier daemon, whose event loop runs on another thread, may
    deadlock the child.

Usage: ``python tools/check_invariants.py [--root PATH]``.
Exits 0 when clean, 1 with one line per violation otherwise.
"""

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

# Deterministic-path modules (relative to the repo root): no wall-clock,
# no unseeded randomness.  faults/campaign.py is deliberately absent --
# its elapsed-time measurement is reporting, not plan content.
DETERMINISTIC_PATHS = (
    "src/repro/faults/plan.py",
    "src/repro/faults/sites.py",
    "src/repro/analyze",
)

# The one module that may call the dynamic-code builtins.
CODEGEN_PATHS = ("src/repro/cpu/compiler.py",)
_DYNAMIC_CODE = {"exec", "eval", "compile"}

# The one package that may create threads and thread pools.
THREAD_HOME = "src/repro/serve/"

# The one module that may create processes.
PROCESS_HOME = "src/repro/faults/campaign.py"

# The sanctioned broad-except sites: (file, enclosing function) -> why.
BROAD_EXCEPT_SITES = {
    ("src/repro/__init__.py", "_read_version"):
        "a missing or broken install must not break `import repro`",
    ("src/repro/serve/client.py", "FleetClient._exchange"):
        "closes the connection, whose state is unknown, and re-raises",
    ("src/repro/serve/daemon.py", "DaemonThread._main"):
        "the daemon thread's error is surfaced to its owner",
    ("src/repro/serve/pump.py", "AsyncFleetPump.drain"):
        "shutdown must finish; the campaign's error stays on its future",
    ("src/repro/obs/bus.py", "EventBus.publish"):
        "isolates subscribers from each other; counted in errors",
}
_BROAD = {"Exception", "BaseException"}

# The monitor's region bits and the two modules that may use them.
REGION_BITS = {"F_EXEC", "F_PMEM", "F_SDMEM", "F_SROM"}
REGION_BIT_HOMES = ("src/repro/memory/map.py", "src/repro/casu/monitor.py")

# Control-transfer literals, and the paths that may spell them out.
TRANSFER_COMPARED = {"call", "reti", "ret"}
TRANSFER_COLLECTED = {"call", "reti"}
TRANSFER_EXEMPT = (
    "src/repro/isa/",  # the home
    "src/repro/toolchain/",  # emits code
    "src/repro/minicc/",  # emits code
    "src/repro/eilid/instrumenter.py",  # rewrites assembly statements
    "src/repro/cpu/compiler.py",  # executor bodies implement the instructions
    "src/repro/verification/oracles.py",  # the independent reference
)

# Where a definition's name may be used, and the definitions called by
# a name built at run time.
USE_ROOTS = ("src", "tests", "benchmarks", "examples", "tools", "ledger")
DISPATCHED_BY_NAME = ("Cpu._ex_",)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_EMIT_RECEIVERS = {"events", "log"}
_APPROVED_PRODUCERS = {"envelope", "to_dict", "to_json_doc"}
_WALLCLOCK = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}
_UNSEEDED_RANDOM = {"random", "randint", "randrange", "choice", "choices",
                    "shuffle", "sample", "uniform", "getrandbits"}


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def load_event_kinds(root: Path):
    """The EVENT_KINDS tuple literal, read without importing the repo."""
    tree = _parse(root / "src/repro/obs/events.py")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "EVENT_KINDS":
                return {elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant)}
    raise SystemExit("EVENT_KINDS literal not found in src/repro/obs/events.py")


def _receiver_name(func):
    """Terminal attribute of an emit call's receiver, or None.

    ``self.events.emit`` -> "events"; ``log.emit`` -> "log";
    ``self.emit`` -> "self" (minicc's asm emitter: not an event log).
    """
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def check_event_kinds(root: Path, kinds) -> list:
    """Rule 1: literal kinds at event-log emit sites are EVENT_KINDS."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _receiver_name(node.func) not in _EMIT_RECEIVERS:
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in kinds:
                    problems.append(
                        f"{path.relative_to(root)}:{node.lineno}: "
                        f"emit kind {first.value!r} is not in EVENT_KINDS")
    return problems


def _contains_approved_producer(node) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name) and func.id in _APPROVED_PRODUCERS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _APPROVED_PRODUCERS:
            return True
    return False


def _blessed_names(scope) -> set:
    """Locals in *scope* that hold an approved JSON document."""
    blessed = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _contains_approved_producer(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    blessed.add(target.id)
        # doc.setdefault("schema", ...): the document declares its own
        # schema key, which is the envelope contract's essential part.
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and isinstance(node.func.value, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "schema"):
            blessed.add(node.func.value.id)
    return blessed


def check_cli_envelopes(root: Path) -> list:
    """Rule 2: every _print_json feed derives from an approved producer."""
    path = root / "src/repro/cli.py"
    tree = _parse(path)
    problems = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        blessed = _blessed_names(scope)
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_print_json"):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if _contains_approved_producer(arg):
                continue
            if isinstance(arg, ast.Name) and arg.id in blessed:
                continue
            problems.append(
                f"{path.relative_to(root)}:{node.lineno}: _print_json fed "
                f"a document that does not come from envelope()/to_dict()/"
                f"to_json_doc() (in {scope.name})")
    return problems


def check_deterministic_paths(root: Path) -> list:
    """Rule 3: no wall-clock / unseeded randomness in pinned-output code."""
    files = []
    for rel in DETERMINISTIC_PATHS:
        target = root / rel
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.exists():
            files.append(target)
    problems = []
    for path in files:
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None)
            where = f"{path.relative_to(root)}:{node.lineno}"
            if (base_name, func.attr) in _WALLCLOCK:
                problems.append(
                    f"{where}: wall-clock call {base_name}.{func.attr}() "
                    f"in a deterministic path")
            elif base_name == "random" and func.attr in _UNSEEDED_RANDOM:
                problems.append(
                    f"{where}: unseeded random.{func.attr}() "
                    f"in a deterministic path")
            elif (base_name == "random" and func.attr == "Random"
                  and not node.args and not node.keywords):
                problems.append(
                    f"{where}: random.Random() without a seed "
                    f"in a deterministic path")
    return problems


def _dynamic_code_builtin(func):
    """``exec``/``eval``/``compile`` called as a builtin, or None.

    ``exec(...)`` and ``builtins.exec(...)`` count; methods that share
    a name (``re.compile``, ``self._eval``) do not."""
    if isinstance(func, ast.Name) and func.id in _DYNAMIC_CODE:
        return func.id
    if (isinstance(func, ast.Attribute) and func.attr in _DYNAMIC_CODE
            and isinstance(func.value, ast.Name)
            and func.value.id == "builtins"):
        return func.attr
    return None


def check_dynamic_code(root: Path) -> list:
    """Rule 4: builtin exec/eval/compile only in the instruction compiler."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in CODEGEN_PATHS:
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = _dynamic_code_builtin(node.func)
            if name is not None:
                problems.append(
                    f"{rel}:{node.lineno}: builtin {name}() outside the "
                    f"instruction compiler")
    return problems


def _thread_maker(node):
    """The thread or thread-pool class *node* imports or reaches, or None.

    Catches ``from threading import Thread``, ``threading.Thread`` and
    ``ThreadPoolExecutor`` imported from, or reached through, any
    module; a bare name use needs one of those imports first."""
    if isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
        if "ThreadPoolExecutor" in names:
            return "ThreadPoolExecutor"
        if node.module == "threading" and "Thread" in names:
            return "threading.Thread"
    elif isinstance(node, ast.Attribute):
        if node.attr == "ThreadPoolExecutor":
            return "ThreadPoolExecutor"
        if (node.attr == "Thread" and isinstance(node.value, ast.Name)
                and node.value.id == "threading"):
            return "threading.Thread"
    return None


def _outside_home(root: Path, home: str, maker, contract: str) -> list:
    """Each node under src/ outside *home* (a directory prefix or one
    file) for which *maker* names what it creates, as a violation of
    *contract*."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(home):
            continue
        for node in ast.walk(_parse(path)):
            name = maker(node)
            if name is not None:
                problems.append(f"{rel}:{node.lineno}: {name} outside "
                                f"{home} ({contract})")
    return problems


def check_thread_home(root: Path) -> list:
    """Rule 5: threads and thread pools only in the serve package."""
    return _outside_home(root, THREAD_HOME, _thread_maker,
                         "threads have one home")


def _process_maker(node):
    """The process-pool or fork API *node* imports or reaches, or None.

    Catches ``ProcessPoolExecutor`` imported from, or reached through,
    any module, ``multiprocessing`` imported or reached, and
    ``os.fork`` or ``fork`` imported from ``os``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                return "multiprocessing"
    elif isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
        if "ProcessPoolExecutor" in names:
            return "ProcessPoolExecutor"
        if (node.module or "").split(".")[0] == "multiprocessing":
            return "multiprocessing"
        if node.module == "os" and "fork" in names:
            return "os.fork"
    elif isinstance(node, ast.Attribute):
        if node.attr == "ProcessPoolExecutor":
            return "ProcessPoolExecutor"
        if (node.attr == "fork" and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            return "os.fork"
    return None


def check_process_home(root: Path) -> list:
    """Rule 10: process pools and forks only in the fault campaign."""
    return _outside_home(root, PROCESS_HOME, _process_maker,
                         "process pools have one home")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type
    if kinds is None:
        return True  # bare except:
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any((isinstance(name, ast.Name) and name.id in _BROAD)
               or (isinstance(name, ast.Attribute) and name.attr in _BROAD)
               for name in names)


def _handlers(node, scope=()):
    """``(qualified function name, handler)`` for each except clause."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.ExceptHandler):
            yield ".".join(scope), child
        yield from _handlers(child, inner)


def check_broad_excepts(root: Path) -> list:
    """Rule 6: broad excepts only at the sanctioned sites."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for function, handler in _handlers(_parse(path)):
            if _is_broad(handler) and (rel, function) not in BROAD_EXCEPT_SITES:
                problems.append(
                    f"{rel}:{handler.lineno}: broad except in "
                    f"{function or '<module>'} is not a sanctioned site "
                    f"(catch the errors the handler can act on)")
    return problems


def _region_bits(node) -> list:
    """The region bits *node* imports or reaches by attribute."""
    if isinstance(node, ast.ImportFrom):
        return sorted(alias.name for alias in node.names
                      if alias.name in REGION_BITS)
    if isinstance(node, ast.Attribute) and node.attr in REGION_BITS:
        return [node.attr]
    return []


def check_region_bits(root: Path) -> list:
    """Rule 7: the monitor's region bits only in their two homes."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in REGION_BIT_HOMES:
            continue
        for node in ast.walk(_parse(path)):
            for name in _region_bits(node):
                problems.append(
                    f"{rel}:{node.lineno}: {name} outside "
                    f"{' and '.join(REGION_BIT_HOMES)} (the monitor's "
                    f"region bits have one home)")
    return problems


def _transfer_literal(node):
    """The call/return literal *node* compares against or collects, or
    None."""
    if isinstance(node, ast.Compare):
        operands, names = [node.left, *node.comparators], TRANSFER_COMPARED
    elif isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        operands, names = node.elts, TRANSFER_COLLECTED
    else:
        return None
    for operand in operands:
        if isinstance(operand, ast.Constant) and operand.value in names:
            return operand.value
    return None


def check_transfer_home(root: Path) -> list:
    """Rule 8: control-transfer literals only in repro.isa and the
    exempt modules."""
    problems = []
    for path in sorted((root / "src/repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(TRANSFER_EXEMPT):
            continue
        for node in ast.walk(_parse(path)):
            literal = _transfer_literal(node)
            if literal is not None:
                problems.append(
                    f"{rel}:{node.lineno}: {literal!r} literal outside "
                    f"src/repro/isa/ (control-transfer classification "
                    f"has one home)")
    return problems


def _reexport_lines(tree) -> set:
    """Line numbers of import statements and ``__all__`` assignments."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if not any(isinstance(target, ast.Name) and target.id == "__all__"
                       for target in node.targets):
                continue
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _definitions(node, scope=()):
    """``(qualified name, name, line)`` for each function and class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
            yield ".".join(inner), child.name, child.lineno
        yield from _definitions(child, inner)


def check_dead_definitions(root: Path) -> list:
    """Rule 9: every function and class under src/repro/ is named
    somewhere other than its own header, an import or ``__all__``."""
    uses = Counter()
    defined = []
    for top in USE_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
            skipped = _reexport_lines(tree)
            headers = {}
            for qualname, name, lineno in _definitions(tree):
                headers.setdefault(lineno, []).append(name)
                if rel.startswith("src/repro/"):
                    defined.append((rel, lineno, qualname, name))
            for lineno, line in enumerate(text.splitlines(), start=1):
                if lineno in skipped:
                    continue
                words = _WORD.findall(line)
                for name in headers.get(lineno, ()):
                    words.remove(name)
                uses.update(words)
    return [f"{rel}:{lineno}: {qualname} is named nowhere but its "
            f"definition (no caller)"
            for rel, lineno, qualname, name in defined
            if not uses[name]
            and not (name.startswith("__") and name.endswith("__"))
            and not qualname.startswith(DISPATCHED_BY_NAME)]


def run_checks(root: Path) -> list:
    kinds = load_event_kinds(root)
    problems = []
    problems += check_event_kinds(root, kinds)
    problems += check_cli_envelopes(root)
    problems += check_deterministic_paths(root)
    problems += check_dynamic_code(root)
    problems += check_thread_home(root)
    problems += check_broad_excepts(root)
    problems += check_region_bits(root)
    problems += check_transfer_home(root)
    problems += check_process_home(root)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    problems = run_checks(root) + check_dead_definitions(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} invariant violation(s)")
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
