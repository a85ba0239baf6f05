"""The repo invariant checker (tools/check_invariants.py).

The checker is CI's guard for contracts a general linter can't see:
closed event kinds, enveloped CLI JSON, deterministic fault/analysis
paths, dynamic code confined to the instruction compiler, threads
confined to the serve package, broad excepts confined to sanctioned
sites, the monitor's region bits confined to their two homes,
control-transfer literals confined to repro.isa, a caller for every
definition, and process pools confined to the fault campaign.  These tests pin both directions -- the real repo is
clean, and seeded violations in a synthetic tree are caught.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_invariants", REPO_ROOT / "tools" / "check_invariants.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


EVENTS_STUB = '''
EVENT_KINDS = (
    "enroll",
    "alert",
)
'''

CLI_STUB = '''
def _print_json(doc):
    pass


def envelope(schema, **payload):
    return {"schema": schema, **payload}


def good(outcome):
    _print_json(envelope("x", ok=True))
    _print_json(outcome.to_dict())
'''


def _tree(tmp_path: Path, **files: str) -> Path:
    """Materialise a minimal repo tree; files are root-relative paths."""
    defaults = {
        "src/repro/obs/events.py": EVENTS_STUB,
        "src/repro/cli.py": CLI_STUB,
    }
    defaults.update(files)
    for rel, text in defaults.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


# ---- the real repo is clean -------------------------------------------------


def test_repo_is_clean():
    assert checker.run_checks(REPO_ROOT) == []


def test_cli_exit_code_clean(capsys):
    assert checker.main(["--root", str(REPO_ROOT)]) == 0
    assert "invariants ok" in capsys.readouterr().out


def test_event_kinds_parse_without_import():
    kinds = checker.load_event_kinds(REPO_ROOT)
    assert "analysis-finding" in kinds
    assert "fault-outcome" in kinds


# ---- rule 1: closed event kinds ---------------------------------------------


def test_bad_emit_kind_is_caught(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            'class T:\n'
            '    def go(self):\n'
            '        self.events.emit("bogus-kind", {})\n',
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "bogus-kind" in problems[0]
    assert "src/repro/thing.py:3" in problems[0].replace("\\", "/")


def test_known_kind_and_log_receiver_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/thing.py":
            'class T:\n'
            '    def go(self, log):\n'
            '        self.events.emit("enroll", {})\n'
            '        log.emit("alert", {})\n'
            '        self.registry.events.emit("enroll", {})\n',
    })
    assert checker.run_checks(root) == []


def test_plain_self_emit_is_not_an_event_log(tmp_path):
    # minicc's codegen emits asm text via self.emit("...") -- that is
    # not an event log and must not be checked against EVENT_KINDS.
    root = _tree(tmp_path, **{
        "src/repro/minicc/codegen.py":
            'class Gen:\n'
            '    def line(self):\n'
            '        self.emit("mov r1, r2")\n',
    })
    assert checker.run_checks(root) == []


# ---- rule 2: CLI JSON goes through the envelope -----------------------------


def test_raw_dict_to_print_json_is_caught(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/cli.py": CLI_STUB +
            '\n\ndef bad():\n'
            '    _print_json({"ad": "hoc"})\n',
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "_print_json" in problems[0]
    assert "(in bad)" in problems[0]


def test_blessed_local_passes(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/cli.py": CLI_STUB +
            '\n\ndef via_local(outcome):\n'
            '    doc = outcome.to_dict()\n'
            '    doc["extra"] = 1\n'
            '    _print_json(doc)\n'
            '\n\ndef via_setdefault(payload):\n'
            '    payload.setdefault("schema", "eilid.x")\n'
            '    _print_json(payload)\n',
    })
    assert checker.run_checks(root) == []


# ---- rule 3: deterministic paths --------------------------------------------


@pytest.mark.parametrize("snippet,needle", [
    ("import time\n\ndef f():\n    return time.time()\n", "wall-clock"),
    ("import time\n\ndef f():\n    return time.perf_counter()\n", "wall-clock"),
    ("import random\n\ndef f():\n    return random.random()\n", "unseeded"),
    ("import random\n\ndef f():\n    return random.Random()\n", "without a seed"),
])
def test_nondeterminism_in_plan_is_caught(tmp_path, snippet, needle):
    root = _tree(tmp_path, **{"src/repro/faults/plan.py": snippet})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert needle in problems[0]


def test_seeded_random_in_analyze_passes(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/analyze/runner.py":
            "import random\n\ndef f(seed):\n"
            "    return random.Random(seed).random()\n",
    })
    # random.Random(seed) is fine; .random() on the *instance* is fine
    # too -- only the module-level functions are unseeded.
    assert checker.run_checks(root) == []


# ---- rule 4: exec/eval/compile only in the instruction compiler -------------


@pytest.mark.parametrize("call", [
    "exec(text)", "eval(text)", "compile(text, 'x', 'exec')",
    "builtins.exec(text)",
])
def test_dynamic_code_outside_the_compiler_is_caught(tmp_path, call):
    root = _tree(tmp_path, **{
        "src/repro/fleet/thing.py":
            f"import builtins\n\ndef f(text):\n    return {call}\n",
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/fleet/thing.py:4" in problems[0]
    assert "outside the instruction compiler" in problems[0]


def test_dynamic_code_in_the_compiler_and_namesakes_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/cpu/compiler.py":
            "def build(source, namespace):\n"
            "    exec(compile(source, '<x>', 'exec'), namespace)\n",
        "src/repro/minicc/codegen.py":
            "import re\n\n"
            "PATTERN = re.compile('x')\n\n"
            "class Gen:\n"
            "    def go(self, expr):\n"
            "        return self._eval(expr)\n",
    })
    assert checker.run_checks(root) == []


# ---- rule 5: threads and thread pools only under serve/ ---------------------


THREAD_SNIPPETS = [
    "from concurrent.futures import ThreadPoolExecutor\n",
    "import concurrent.futures\n\n"
    "POOL = concurrent.futures.ThreadPoolExecutor\n",
    "import threading\n\n"
    "def f():\n    return threading.Thread(target=print)\n",
    "from threading import Thread\n",
]


@pytest.mark.parametrize("snippet", THREAD_SNIPPETS)
def test_thread_outside_serve_is_caught(tmp_path, snippet):
    root = _tree(tmp_path, **{"src/repro/fleet/campaign.py": snippet})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/fleet/campaign.py" in problems[0]
    assert "threads have one home" in problems[0]


@pytest.mark.parametrize("snippet", THREAD_SNIPPETS)
def test_thread_inside_serve_passes(tmp_path, snippet):
    root = _tree(tmp_path, **{"src/repro/serve/pump.py": snippet})
    assert checker.run_checks(root) == []


def test_locks_and_process_pools_pass_anywhere(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/faults/campaign.py":
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "LOCK = threading.Lock()\n",
    })
    assert checker.run_checks(root) == []


# ---- rule 10: process pools and forks only in the fault campaign ------------


PROCESS_SNIPPETS = [
    "from concurrent.futures import ProcessPoolExecutor\n",
    "import concurrent.futures\n\n"
    "POOL = concurrent.futures.ProcessPoolExecutor\n",
    "import multiprocessing\n",
    "from multiprocessing.pool import Pool\n",
    "import os\n\n"
    "def f():\n    return os.fork()\n",
    "from os import fork\n",
]


@pytest.mark.parametrize("snippet", PROCESS_SNIPPETS)
def test_process_pool_outside_the_fault_campaign_is_caught(tmp_path,
                                                           snippet):
    root = _tree(tmp_path, **{"src/repro/fleet/campaign.py": snippet})
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/fleet/campaign.py" in problems[0]
    assert "process pools have one home" in problems[0]


@pytest.mark.parametrize("snippet", PROCESS_SNIPPETS)
def test_process_pool_in_the_fault_campaign_passes(tmp_path, snippet):
    root = _tree(tmp_path, **{"src/repro/faults/campaign.py": snippet,
                              "src/repro/fleet/store.py":
                                  "import os\n\nSEP = os.sep\n"})
    assert checker.run_checks(root) == []


# ---- rule 6: broad excepts only at the sanctioned sites ---------------------


@pytest.mark.parametrize("clause", [
    "except:", "except Exception:", "except BaseException as error:",
    "except (ValueError, Exception):", "except builtins.Exception:",
])
def test_broad_except_outside_the_list_is_caught(tmp_path, clause):
    root = _tree(tmp_path, **{
        "src/repro/fleet/thing.py":
            "import builtins\n\n"
            "class Thing:\n"
            "    def go(self, f):\n"
            "        try:\n"
            "            f()\n"
            f"        {clause}\n"
            "            pass\n",
    })
    problems = checker.run_checks(root)
    assert len(problems) == 1
    assert "src/repro/fleet/thing.py:7" in problems[0]
    assert "broad except in Thing.go" in problems[0]


def test_sanctioned_site_and_narrow_excepts_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/obs/bus.py":
            "class EventBus:\n"
            "    def publish(self, callback):\n"
            "        try:\n"
            "            callback()\n"
            "        except Exception:\n"
            "            pass\n",
        "src/repro/fleet/thing.py":
            "def go(f):\n"
            "    try:\n"
            "        f()\n"
            "    except (ValueError, KeyError):\n"
            "        pass\n",
    })
    assert checker.run_checks(root) == []


@pytest.mark.parametrize("snippet", [
    "from repro.memory.map import F_EXEC\n",
    "from repro.memory.map import F_DMEM, F_SROM as ROM\n",
    "from repro.memory import map as layout_map\n\n"
    "def pmem(flags):\n    return flags & layout_map.F_PMEM\n",
])
def test_region_bits_outside_their_homes_are_caught(tmp_path, snippet):
    root = _tree(tmp_path, **{"src/repro/analyze/regions.py": snippet})
    problems = checker.check_region_bits(root)
    assert len(problems) == 1
    assert "src/repro/analyze/regions.py" in problems[0]
    assert "one home" in problems[0]


def test_region_bits_in_their_homes_pass(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/memory/map.py": "F_EXEC = 0x01\nF_SDMEM = 0x08\n",
        "src/repro/casu/monitor.py":
            "from repro.memory.map import F_EXEC, F_PMEM, F_SDMEM, F_SROM\n",
        # The other region flags stay free to use anywhere.
        "src/repro/memory/bus.py": "from repro.memory.map import F_PERIPH\n",
    })
    assert checker.check_region_bits(root) == []


# ---- rule 8: control-transfer classification has one home -------------------


@pytest.mark.parametrize("snippet", [
    'def is_call(insn):\n    return insn.opcode.mnemonic == "call"\n',
    'def returns(kind):\n    return "ret" != kind\n',
    'ALWAYS = frozenset({"call", "reti"})\n',
    'def framing(name):\n    return name in ("push", "reti")\n',
    'STACKED = ["call"]\n',
])
def test_transfer_literals_outside_their_home_are_caught(tmp_path, snippet):
    root = _tree(tmp_path, **{"src/repro/cfg/trace.py": snippet})
    problems = checker.check_transfer_home(root)
    assert len(problems) == 1
    assert "src/repro/cfg/trace.py" in problems[0]
    assert "one home" in problems[0]


def test_transfer_literals_in_their_home_and_exempt_paths_pass(tmp_path):
    classifier = 'def f(name):\n    return name == "call" or name in {"reti"}\n'
    root = _tree(tmp_path, **{
        "src/repro/isa/transfer.py": classifier,
        "src/repro/toolchain/emulated.py": classifier,
        "src/repro/minicc/codegen.py": classifier,
        "src/repro/eilid/instrumenter.py": classifier,
        "src/repro/cpu/compiler.py": classifier,
        "src/repro/verification/oracles.py": classifier,
        # Other strings, names bound to the literal, and a lone "ret"
        # in a collection stay free to use anywhere.
        "src/repro/cfg/replay.py":
            '_FRAME_CALL = "call"\n'
            'def f(kind, frame):\n'
            '    return kind == "jump" or frame != _FRAME_CALL '
            'or kind in ("ret", "irq")\n',
    })
    assert checker.check_transfer_home(root) == []


# ---- rule 9: every definition has a caller ----------------------------------


def test_definition_named_only_by_reexports_is_caught(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/fleet/registry.py":
            'class Registry:\n'
            '    def drop(self, device_id):\n'
            '        pass\n'
            '\n'
            '\n'
            'def helper():\n'
            '    return Registry()\n',
        "src/repro/fleet/__init__.py":
            'from repro.fleet.registry import (\n'
            '    helper,\n'
            ')\n'
            '__all__ = ["helper"]\n',
    })
    problems = [problem.replace("\\", "/")
                for problem in checker.check_dead_definitions(root)]
    # The stub event and CLI modules' own functions have no callers
    # either; the ones under test are in fleet/registry.py.
    fleet = [problem for problem in problems if "fleet/" in problem]
    assert len(fleet) == 2
    assert "src/repro/fleet/registry.py:2: Registry.drop" in fleet[0]
    assert "src/repro/fleet/registry.py:6: helper" in fleet[1]
    assert "no caller" in fleet[0]


def test_definition_named_anywhere_else_passes(tmp_path):
    root = _tree(tmp_path, **{
        "src/repro/obs/events.py": EVENTS_STUB,
        "src/repro/cli.py": "def main():\n    pass\n",
        "src/repro/fleet/registry.py":
            'class Registry:\n'
            '    def drop(self, device_id):\n'
            '        pass\n'
            '\n'
            '    def __len__(self):\n'
            '        return 0\n',
        "src/repro/cpu/core.py":
            'class Cpu:\n'
            '    def _ex_mov(self, insn):\n'
            '        pass\n',
        # A test calls some; a ledger seam names another in a string.
        "tests/test_registry.py":
            'from repro.cpu.core import Cpu\n'
            'from repro.fleet.registry import Registry\n'
            '\n'
            '\n'
            'def test_drop():\n'
            '    Registry().drop("dev-0")\n'
            '    assert Cpu()\n',
        "ledger/layers.py": 'SEAMS = [("cli", "main")]\n',
    })
    assert checker.check_dead_definitions(root) == []
