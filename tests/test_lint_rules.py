"""Unit tests for the repro.lint rules on synthetic sources."""

import textwrap

from repro.lint import LintConfig, load_config, run_lint
from repro.lint.runner import PARSE_RULE


def lint_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], config or LintConfig())


def rules_of(result):
    return [finding.rule for finding in result.findings]


# -- REP001: shadow state ---------------------------------------------------

STAGE_HEADER = """
    from repro.uarch.statelib import StateCategory, StorageKind
"""


def test_rep001_flags_shadow_state(tmp_path):
    result = lint_source(tmp_path, STAGE_HEADER + """
    class Stage:
        def __init__(self, space):
            self.pc = space.field(
                "pc", 64, StateCategory.PC, StorageKind.LATCH)
            self.shadow = []

        def cycle(self):
            self.count = 1
            self.shadow.append(2)
            self.pc = None
    """)
    assert rules_of(result) == ["REP001"] * 4
    messages = " ".join(f.message for f in result.findings)
    assert "Stage.shadow" in messages
    assert "Stage.count" in messages
    assert "element handles must stay stable" in messages
    assert result.exit_code == 1


def test_rep001_derived_whitelist(tmp_path):
    result = lint_source(tmp_path, STAGE_HEADER + """
    class Stage:
        _DERIVED = ("shadow", "count")

        def __init__(self, space):
            self.pc = space.field(
                "pc", 64, StateCategory.PC, StorageKind.LATCH)
            self.shadow = []

        def cycle(self):
            self.count = 1
            self.shadow.append(2)
            self.pc.set(self.pc.get() + 1)
    """)
    assert result.findings == []


def test_rep001_rebinding_space_attr_not_whitelistable(tmp_path):
    result = lint_source(tmp_path, STAGE_HEADER + """
    class Stage:
        _DERIVED = ("pc",)

        def __init__(self, space):
            self.pc = space.field(
                "pc", 64, StateCategory.PC, StorageKind.LATCH)

        def cycle(self):
            self.pc = None
    """)
    assert rules_of(result) == ["REP001"]


def test_rep001_exempts_functional_classes(tmp_path):
    result = lint_source(tmp_path, """
    class Cache:
        def __init__(self):
            self.lines = {}

        def touch(self, key):
            self.lines[key] = True
            self.hits = 0
    """)
    assert result.findings == []


def test_rep001_subscript_store_and_array(tmp_path):
    result = lint_source(tmp_path, STAGE_HEADER + """
    class Stage:
        def __init__(self, space):
            self.regs = space.array(
                "regs", 4, 64, StateCategory.REGFILE, StorageKind.RAM)

        def cycle(self):
            self.regs[0] = None
            self.regs.append(None)
    """)
    assert rules_of(result) == ["REP001"] * 2


# -- REP002: determinism ----------------------------------------------------

def test_rep002_global_random(tmp_path):
    result = lint_source(tmp_path, """
    import random

    def roll():
        return random.random()
    """)
    assert rules_of(result) == ["REP002"]


def test_rep002_seeded_random_ok(tmp_path):
    result = lint_source(tmp_path, """
    import random

    def make(seed):
        return random.Random(seed)
    """)
    assert result.findings == []


def test_rep002_unseeded_random_constructor(tmp_path):
    result = lint_source(tmp_path, """
    import random

    def make():
        return random.Random()
    """)
    assert rules_of(result) == ["REP002"]


def test_rep002_from_import_and_urandom_and_time(tmp_path):
    result = lint_source(tmp_path, """
    import os
    import time
    from random import shuffle

    def stamp():
        return time.time(), os.urandom(8)
    """)
    assert rules_of(result) == ["REP002"] * 3


def test_rep002_id_call(tmp_path):
    result = lint_source(tmp_path, """
    def key(obj):
        return id(obj)
    """)
    assert rules_of(result) == ["REP002"]


def test_rep002_bare_set_iteration(tmp_path):
    result = lint_source(tmp_path, """
    def walk(items):
        seen = {1, 2}
        for item in seen:
            pass
        return [x for x in set(items)]
    """)
    assert rules_of(result) == ["REP002"] * 2


def test_rep002_sorted_set_iteration_ok(tmp_path):
    result = lint_source(tmp_path, """
    def walk(items):
        seen = set(items)
        for item in sorted(seen):
            pass
        seen = list(seen)
        for item in seen:
            pass
    """)
    assert result.findings == []


# -- pragma suppression -----------------------------------------------------

def test_pragma_inline(tmp_path):
    result = lint_source(tmp_path, """
    import time

    def stamp():
        return time.time()  # repro-lint: allow=REP002 (metadata only)
    """)
    assert result.findings == []


def test_pragma_on_comment_line_above(tmp_path):
    result = lint_source(tmp_path, """
    import time

    def stamp():
        # repro-lint: allow=REP002 (wall-clock is reporting
        # metadata only and never feeds simulation)
        return time.time()
    """)
    assert result.findings == []


def test_pragma_on_def_line_covers_body(tmp_path):
    result = lint_source(tmp_path, """
    import time

    # repro-lint: allow=REP002 (profiling helper, not a trial path)
    def stamp():
        first = time.time()
        return time.time() - first
    """)
    assert result.findings == []


def test_pragma_wrong_rule_does_not_suppress(tmp_path):
    result = lint_source(tmp_path, """
    import time

    def stamp():
        return time.time()  # repro-lint: allow=REP001 (wrong rule)
    """)
    assert rules_of(result) == ["REP002"]


# -- REP003: ghost isolation ------------------------------------------------

GHOST_MODULE = STAGE_HEADER + """
    class Entry:
        def __init__(self, space):
            self.seq = space.field(
                "seq", 16, StateCategory.GHOST, StorageKind.LATCH)
            self.val = space.field(
                "val", 8, StateCategory.DATA, StorageKind.LATCH)
"""


def test_rep003_flags_behavioral_ghost_read(tmp_path):
    result = lint_source(tmp_path, GHOST_MODULE + """
    class Stage:
        def cycle(self, entry):
            if entry.seq.get() > 3:
                return entry.val.get()
    """)
    assert rules_of(result) == ["REP003"]
    assert "ghost element 'seq'" in result.findings[0].message


def test_rep003_allows_propagation(tmp_path):
    result = lint_source(tmp_path, GHOST_MODULE + """
    class Stage:
        def cycle(self, src, dst, post):
            dst.seq.set(src.seq.get())
            post(value=src.val.get(), seq=src.seq.get())
            return dst.val.get()
    """)
    assert result.findings == []


def test_rep003_pragma_for_analysis_surface(tmp_path):
    result = lint_source(tmp_path, GHOST_MODULE + """
    class Stage:
        # repro-lint: allow=REP003 (observation surface for the harness)
        def inflight(self, entries):
            return [entry.seq.get() for entry in entries]
    """)
    assert result.findings == []


def test_rep003_skips_modules_without_stage_classes(tmp_path):
    result = lint_source(tmp_path, """
    class Harness:
        def collect(self, entry):
            return entry.seq.get()
    """)
    assert result.findings == []


# -- REP004: category inventory ---------------------------------------------

def test_rep004_unknown_category(tmp_path):
    result = lint_source(tmp_path, STAGE_HEADER + """
    class Stage:
        def __init__(self, space):
            self.x = space.field(
                "x", 8, StateCategory.BOGUS, StorageKind.LATCH)
    """)
    assert "REP004" in rules_of(result)
    assert "does not exist" in [
        f.message for f in result.findings if f.rule == "REP004"][0]


def test_rep004_unreported_member_flagged_at_definition(tmp_path):
    (tmp_path / "statelib.py").write_text(textwrap.dedent("""
    class StateCategory:
        PC = "pc"
        WEIRD = "weird"

    TABLE1_CATEGORIES = (StateCategory.PC,)
    PROTECTION_CATEGORIES = ()
    """))
    (tmp_path / "user.py").write_text(textwrap.dedent("""
    def alloc(space, StateCategory, kind):
        return space.field("w", 8, StateCategory.WEIRD, kind)
    """))
    result = run_lint([str(tmp_path)], LintConfig())
    rep004 = [f for f in result.findings if f.rule == "REP004"]
    assert len(rep004) == 2
    by_file = {f.path.rsplit("/", 1)[-1]: f.message for f in rep004}
    assert "not aggregated" in by_file["statelib.py"]
    assert "not aggregated" in by_file["user.py"]


# -- runner / configuration -------------------------------------------------

def test_syntax_error_becomes_parse_finding(tmp_path):
    result = lint_source(tmp_path, "def broken(:\n")
    assert rules_of(result) == [PARSE_RULE]
    assert result.exit_code == 1


def test_disable_rule(tmp_path):
    result = lint_source(tmp_path, """
    import time

    def stamp():
        return time.time()
    """, config=LintConfig(disable=("REP002",)))
    assert result.findings == []
    assert "REP002" not in result.rules


def test_enable_subset(tmp_path):
    result = lint_source(tmp_path, """
    import time

    def stamp():
        return time.time()
    """, config=LintConfig(enable=("REP001",)))
    assert result.findings == []
    assert result.rules == ("REP001",)


def test_per_path_ignores(tmp_path):
    config = LintConfig(per_path_ignores={"mod.py": ("REP002",)})
    result = lint_source(tmp_path, """
    import time

    def stamp():
        return time.time()
    """, config=config)
    assert result.findings == []


def test_load_config_from_pyproject(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(textwrap.dedent("""
    [tool.repro.lint]
    paths = ["src/repro"]
    disable = ["REP004"]
    exclude = ["*/generated/*"]

    [tool.repro.lint.per-path-ignores]
    "uarch/trace.py" = ["REP003"]
    """))
    config = load_config(pyproject_path=str(pyproject))
    assert config.paths == ("src/repro",)
    assert config.disable == ("REP004",)
    assert config.excludes_file("pkg/generated/x.py")
    assert config.ignored_rules_for("src/repro/uarch/trace.py") == {"REP003"}
    assert config.ignored_rules_for("src/repro/uarch/rob.py") == set()


def test_finding_shape(tmp_path):
    result = lint_source(tmp_path, """
    def key(obj):
        return id(obj)
    """)
    finding = result.findings[0]
    payload = finding.to_dict()
    assert payload["rule"] == "REP002"
    assert payload["path"].endswith("mod.py")
    assert payload["line"] == 3
    assert payload["severity"] == "error"
    assert finding.render().startswith(finding.path)


# -- REP005: signature bypass -----------------------------------------------

_REP005 = LintConfig(enable=("REP005",))


def test_rep005_flags_raw_value_mutation(tmp_path):
    result = lint_source(tmp_path, """
    def corrupt(space, snap):
        space.values[3] = 0
        space.values[3] ^= 0x10
        space.values[:] = snap
        del space.values[0]
        space.values = list(snap)
        space.values.append(7)
    """, config=_REP005)
    assert rules_of(result) == ["REP005"] * 6
    messages = " ".join(f.message for f in result.findings)
    assert "bypasses the incremental state signature" in messages
    assert "rebinding .values" in messages
    assert ".values.append" in messages


def test_rep005_flags_cached_alias_writes(tmp_path):
    result = lint_source(tmp_path, """
    class Observer:
        def poke(self, index):
            self._values[index] = 1
    """, config=_REP005)
    assert rules_of(result) == ["REP005"]


def test_rep005_flags_signature_cell_stores(tmp_path):
    result = lint_source(tmp_path, """
    def fake_match(field, space, golden_sig, delta):
        field._sig[0] = golden_sig
        space._sig[0] += delta
        space._sig = [golden_sig]
        field._sig.append(0)
    """, config=_REP005)
    assert rules_of(result) == ["REP005"] * 4
    messages = " ".join(f.message for f in result.findings)
    assert "store to the ._sig signature cell" in messages
    assert "._sig.append" in messages


def test_rep005_signature_cell_reads_ok(tmp_path):
    result = lint_source(tmp_path, """
    def matches(space, golden_sig):
        return space._sig[0] == golden_sig
    """, config=_REP005)
    assert rules_of(result) == []


def test_rep005_reads_and_dict_views_ok(tmp_path):
    result = lint_source(tmp_path, """
    def observe(space, table):
        current = space.values[3]
        copied = list(space.values)
        for entry in sorted(table.values()):
            current += entry
        return current, copied
    """, config=_REP005)
    assert rules_of(result) == []


def test_rep005_statelib_itself_is_exempt(tmp_path):
    package = tmp_path / "uarch"
    package.mkdir()
    path = package / "statelib.py"
    path.write_text(textwrap.dedent("""
    def restore(space, snap):
        space.values[:] = snap
    """))
    result = run_lint([str(path)], _REP005)
    assert rules_of(result) == []


def test_rep005_pragma_suppresses(tmp_path):
    result = lint_source(tmp_path, """
    class Watcher:
        def attach(self, space):
            # repro-lint: allow=REP005 (read-only alias)
            self._values = space.values
    """, config=_REP005)
    assert rules_of(result) == []


# -- REP006: exception hygiene ------------------------------------------------

_REP006 = LintConfig(enable=("REP006",))


def lint_harness_source(tmp_path, source, subdir="runner"):
    """Lint ``source`` placed under a harness directory segment."""
    package = tmp_path / subdir
    package.mkdir(exist_ok=True)
    path = package / "mod.py"
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], _REP006)


def test_rep006_flags_bare_except_in_harness(tmp_path):
    result = lint_harness_source(tmp_path, """
    def cleanup(path):
        try:
            path.unlink()
        except:
            pass
    """)
    assert rules_of(result) == ["REP006"]
    assert "bare 'except:'" in result.findings[0].message


def test_rep006_flags_base_exception_without_reraise(tmp_path):
    result = lint_harness_source(tmp_path, """
    def swallow(fn):
        try:
            fn()
        except BaseException:
            return None
    """, subdir="perf")
    assert rules_of(result) == ["REP006"]
    assert "'except BaseException'" in result.findings[0].message


def test_rep006_reraise_and_narrow_handlers_ok(tmp_path):
    result = lint_harness_source(tmp_path, """
    def cleanup(fn, undo):
        try:
            fn()
        except BaseException:
            undo()
            raise
        try:
            fn()
        except OSError:
            pass
    """, subdir="inject")
    assert rules_of(result) == []


def test_rep006_only_applies_to_harness_dirs(tmp_path):
    result = lint_harness_source(tmp_path, """
    def swallow(fn):
        try:
            fn()
        except:
            pass
    """, subdir="analysis")
    assert rules_of(result) == []


def test_rep006_pragma_suppresses(tmp_path):
    result = lint_harness_source(tmp_path, """
    def swallow(fn):
        try:
            fn()
        except BaseException:  # repro-lint: allow=REP006 (test shim)
            pass
    """, subdir="chaos")
    assert rules_of(result) == []


def test_rep006_applies_to_fabric_dir(tmp_path):
    result = lint_harness_source(tmp_path, """
    def swallow(fn):
        try:
            fn()
        except:
            pass
    """, subdir="fabric")
    assert rules_of(result) == ["REP006"]


# -- REP007: async blocking I/O ----------------------------------------------

_REP007 = LintConfig(enable=("REP007",))


def lint_fabric_source(tmp_path, source, subdir="fabric"):
    """Lint ``source`` placed under a fabric directory segment."""
    package = tmp_path / subdir
    package.mkdir(exist_ok=True)
    path = package / "mod.py"
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], _REP007)


def test_rep007_flags_open_in_coroutine(tmp_path):
    result = lint_fabric_source(tmp_path, """
    async def handler(path):
        with open(path) as handle:
            return handle.read()
    """)
    assert rules_of(result) == ["REP007", "REP007"]
    assert "open() inside 'async def handler'" \
        in result.findings[0].message
    assert "blocking file handle" in result.findings[1].message


def test_rep007_flags_time_sleep_and_sync_socket(tmp_path):
    result = lint_fabric_source(tmp_path, """
    import socket
    import time

    async def poll(host):
        time.sleep(1.0)
        return socket.create_connection((host, 80))
    """)
    assert rules_of(result) == ["REP007", "REP007"]
    assert "await asyncio.sleep" in result.findings[0].message
    assert "socket.create_connection()" in result.findings[1].message


def test_rep007_executor_helper_and_sync_code_ok(tmp_path):
    result = lint_fabric_source(tmp_path, """
    import asyncio
    import time

    def read_file(path):
        with open(path) as handle:
            return handle.read()

    async def handler(path):
        def helper():
            time.sleep(0.01)
            return read_file(path)
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0.1)
        return await loop.run_in_executor(None, helper)
    """)
    assert rules_of(result) == []


def test_rep007_only_applies_to_fabric_dir(tmp_path):
    result = lint_fabric_source(tmp_path, """
    async def handler(path):
        return open(path)
    """, subdir="runner")
    assert rules_of(result) == []


def test_rep007_pragma_suppresses(tmp_path):
    result = lint_fabric_source(tmp_path, """
    async def handler(path):
        return open(path)  # repro-lint: allow=REP007 (startup-only)
    """)
    assert rules_of(result) == []


# -- REP008: batch-kernel hygiene ---------------------------------------------

_REP008 = LintConfig(enable=("REP008",))


def lint_batch_source(tmp_path, source, name="batch.py"):
    """Lint ``source`` placed as ``perf/batch.py`` (the policed path)."""
    package = tmp_path / "perf"
    package.mkdir(exist_ok=True)
    path = package / name
    path.write_text(textwrap.dedent(source))
    return run_lint([str(path)], _REP008)


def test_rep008_flags_per_lane_loop_in_hot_kernel(tmp_path):
    result = lint_batch_source(tmp_path, """
    _HOT_KERNELS = ("_walk_planes",)

    def _walk_planes(plans, alive):
        for lane, plan in enumerate(plans):
            alive |= 1 << lane
        for entry in plans:
            alive ^= entry
        return alive
    """)
    assert rules_of(result) == ["REP008", "REP008"]
    assert "big-int bitwise algebra" in result.findings[0].message
    assert "non-range iterable" in result.findings[1].message


def test_rep008_flags_full_signature_anywhere(tmp_path):
    result = lint_batch_source(tmp_path, """
    def record(space):
        return space.signature(full=True)
    """)
    assert rules_of(result) == ["REP008"]
    assert "full=True" in result.findings[0].message


def test_rep008_range_loops_and_incremental_reads_ok(tmp_path):
    result = lint_batch_source(tmp_path, """
    _HOT_KERNELS = ("_walk_planes",)

    def _walk_planes(reads, horizon, lanes_by_element):
        alive = 0
        for cycle in range(horizon):
            plane = reads[cycle]
            while plane:
                low = plane & -plane
                plane ^= low
                alive |= lanes_by_element[low.bit_length() - 1]
        return alive

    def helper(space, plans):
        for plan in plans:  # not a hot kernel: scalar setup is fine
            space.note(plan)
        return space.signature()
    """)
    assert rules_of(result) == []


def test_rep008_only_applies_to_batch_module(tmp_path):
    result = lint_batch_source(tmp_path, """
    _HOT_KERNELS = ("kernel",)

    def kernel(space, plans):
        for plan in plans:
            space.note(plan)
        return space.signature(full=True)
    """, name="other.py")
    assert rules_of(result) == []


def test_rep008_pragma_suppresses(tmp_path):
    result = lint_batch_source(tmp_path, """
    def verify(space):
        # repro-lint: allow=REP008 (debug cross-check, not trial path)
        return space.signature(full=True)
    """)
    assert rules_of(result) == []
