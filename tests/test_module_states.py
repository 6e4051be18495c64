"""What each module is for, which options exist, and what the one
eviction policy does — the reachability audit as executable tables.

The LRU pin at the bottom was taken before CLOCK eviction was removed:
the victims, counters and temperature buckets of a scripted trace are
literals, so "LRU is the only policy" is checked against what LRU did
when it was one of two.
"""

from __future__ import annotations

import ast
import functools
import inspect
import re
from collections import defaultdict
from pathlib import Path

from repro.faults.harness import run_fault_drill
from repro.obs import MetricsRegistry
from repro.obs.__main__ import run_observed_workload
from repro.query.database import Database
from repro.shard.database import ShardedDatabase
from repro.shard.recovery import recover_sharded
from repro.storage.buffer_pool import BufferPool
from repro.storage.constants import PageType
from repro.storage.disk import SimulatedDisk
from repro.wal.replay import recover

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# -- every module has a declared state -----------------------------------------

#: Modules under core/util/sim/workload that no engine root imports, and
#: the driver (figure, ablation, example or bench) each one exists for.
EXPERIMENT_ONLY = {
    "repro.core.encoding.analyzer": "src/repro/experiments/encoding_waste.py",
    "repro.core.encoding.inference": "src/repro/experiments/encoding_waste.py",
    "repro.core.encoding.report": "src/repro/experiments/encoding_waste.py",
    "repro.core.encoding.migrate": "examples/aggregate_dashboard.py",
    "repro.core.hot_cold.cluster": "src/repro/experiments/fig3.py",
    "repro.core.hot_cold.forwarding": "src/repro/experiments/fig3.py",
    "repro.core.hot_cold.partitioner": "src/repro/experiments/fig3.py",
    "repro.core.hot_cold.manager": "src/repro/experiments/adaptive.py",
    "repro.core.hot_cold.vertical": "src/repro/experiments/ablations.py",  # A3
    "repro.core.index_cache.covering": "src/repro/experiments/ablations.py",  # A5
    "repro.core.index_cache.advisor": "examples/wikipedia_index_cache.py",
    "repro.core.index_cache.agg_cache": "benchmarks/bench_agg_cache.py",
    "repro.core.semantic_ids.embedding": "src/repro/experiments/ablations.py",  # A4
    "repro.core.semantic_ids.routing": "src/repro/experiments/ablations.py",  # A4
    "repro.core.semantic_ids.reduction": "examples/semantic_ids_routing.py",
    "repro.util.stats": "src/repro/experiments/capacity.py",
    "repro.util.units": "src/repro/experiments/headline.py",
    "repro.workload.cartel": "src/repro/experiments/fill_factor.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


@functools.cache
def _defining_module(package: str, name: str) -> str:
    """The submodule ``package``'s ``__init__`` re-exports ``name`` from."""
    for node in ast.parse(MODULES[package].read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            if any((a.asname or a.name) == name for a in node.names):
                return node.module
    return package


@functools.cache
def _imports(path: Path) -> frozenset[str]:
    """The ``repro`` modules a file names in its imports, late ones too.
    A name taken from a package counts as its defining submodule, so a
    package ``__init__`` that re-exports everything reaches nothing."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if sub in MODULES:
                    found.add(sub)
                elif _is_package(node.module):
                    found.add(_defining_module(node.module, alias.name))
                else:
                    found.add(node.module)
    return frozenset(found)


def _reach(paths) -> set[str]:
    seen: set[str] = set()
    todo = [m for path in paths for m in _imports(path)]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            if not _is_package(module):
                todo.extend(_imports(MODULES[module]))
    return seen


def test_every_core_module_is_engine_or_experiment_only():
    roots = [MODULES["repro.query.database"], MODULES["repro.obs.__main__"]]
    for package in ("shard", "txn", "wal", "faults", "columnar"):
        roots += (SRC / "repro" / package).glob("*.py")
    engine = _reach(roots)
    audited = {
        m for m in MODULES
        if m.split(".")[1:2] in (["core"], ["util"], ["sim"], ["workload"])
        and not _is_package(m)
    }
    assert audited - engine == set(EXPERIMENT_ONLY)  # undeclared / stale rows
    for module, driver in EXPERIMENT_ONLY.items():
        assert module in _reach([ROOT / driver]), (module, driver)


def _module_map() -> dict[str, set[str]]:
    """DESIGN.md §3's map as ``{directory under src/: {file names}}``: a
    row is a ``name/`` or a ``name.py`` indented under its directory;
    description lines start further right than any row."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## 3. System inventory")[1].split("```")[1]
    listed: dict[str, set[str]] = {}
    stack: list[tuple[int, str]] = []
    for line in block.splitlines():
        row = re.match(r"( {0,8})(\S+/|\S+\.py)(\s|$)", line)
        if row is None:
            continue
        indent, name = len(row[1]), row[2]
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.endswith("/"):
            stack.append((indent, parent + name))
            listed[parent + name] = set()
        else:
            listed[parent].add(name)
    return listed


def test_design_module_map_matches_the_tree():
    """Every row names a file on disk, and every module of a package the
    map lists has a row (``__init__.py`` is implied)."""
    listed = _module_map()
    assert "src/repro/btree/" in listed and "src/repro/core/index_cache/" in listed
    for directory, files in listed.items():
        on_disk = {p.name for p in (ROOT / directory).glob("*.py")}
        assert files | {"__init__.py"} == on_disk | {"__init__.py"}, directory


def test_only_experiments_import_experiments():
    """The experiment drivers sit on top of the engine: a module outside
    ``experiments/`` that imports one, late imports too, pulls the figure
    code into whatever imports it (``obs`` shares tables through
    ``util/table.py`` instead)."""
    offenders = sorted(
        module
        for module, path in MODULES.items()
        if module.split(".")[1:2] != ["experiments"]
        and any(m.split(".")[1:2] == ["experiments"] for m in _imports(path))
    )
    assert offenders == []


def test_row_to_key_is_spelled_only_in_the_key_codec():
    """Row -> key bytes / key value lives in ``btree/keycodec.py`` (a
    codec from ``codec_for_columns`` knows its columns); a hand-rolled
    ``tuple(row[c] for c in ...)`` anywhere else is a second key maker."""
    offenders = [
        str(path.relative_to(ROOT))
        for path in MODULES.values()
        if "tuple(row[c] for c in" in path.read_text()
        and path != SRC / "repro" / "btree" / "keycodec.py"
    ]
    assert offenders == []


def _body(fn: ast.FunctionDef) -> list[ast.stmt]:
    """``fn``'s statements after an optional docstring."""
    first = fn.body[0]
    docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return fn.body[1:] if docstring else fn.body


def _private_field_read(fn: ast.FunctionDef) -> str | None:
    """``_x`` when ``fn``'s whole body is ``return self._x``."""
    body = _body(fn)
    if len(body) == 1 and isinstance(body[0], ast.Return):
        value = body[0].value
        if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                and value.value.id == "self" and value.attr.startswith("_")):
            return value.attr
    return None


def test_no_accessor_property_wraps_a_private_attribute():
    """A read-only view of a field is the field (DESIGN.md §3): a property
    whose body is ``return self._x`` costs a frame per read and tells the
    reader nothing the attribute would not.  The one allowance is a
    property whose setter does more than store."""
    offenders = []
    for path in MODULES.values():
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
            setters = {
                f.name: f for f in methods
                if any(ast.unparse(d) == f"{f.name}.setter" for d in f.decorator_list)
            }
            for fn in methods:
                if not any(ast.unparse(d) == "property" for d in fn.decorator_list):
                    continue
                field = _private_field_read(fn)
                setter = setters.get(fn.name)
                if field is None or (
                    setter is not None and [ast.unparse(s) for s in _body(setter)]
                    != [f"self.{field} = {setter.args.args[1].arg}"]
                ):
                    continue
                offenders.append(f"{path.relative_to(ROOT)}: {cls.name}.{fn.name}")
    assert offenders == []


# -- every option is a reviewed diff --------------------------------------------

SIGNATURES = {
    Database.__init__:
        "self page_size data_pool_pages index_pool_pages cost_model seed "
        "metrics fault_injector retry_policy verify_checksums wal "
        "wal_group_commit disk",
    ShardedDatabase.__init__:
        "self n_shards mode hot_fraction page_size data_pool_pages seed "
        "metrics shard_metrics wal wal_group_commit fault_injectors "
        "retry_policy recovery _adopt",
    BufferPool.__init__:
        "self disk capacity_pages cost_hook registry retry_policy "
        "verify_checksums wal",
    Database.create_cached_index:
        "self table_name index_name key_columns cached_fields "
        "invalidation_log_threshold latch_contention",
    recover:
        "wal disk page_size data_pool_pages seed metrics retry_policy "
        "group_commit_records journal journal_shard",
    recover_sharded: "wals seed mode hot_fraction journal",
    run_fault_drill:
        "seed n_pages revisions_per_page n_ops pool_pages adaptive sessions "
        "shards",
    run_observed_workload:
        "n_rows n_ops seed pool_pages batch samples alpha wal adaptive shards "
        "observe",
}


def test_constructor_and_recovery_options_are_pinned():
    for function, names in SIGNATURES.items():
        assert " ".join(inspect.signature(function).parameters) == names


# -- nothing set by nobody ------------------------------------------------------

_OWNER_BOUND = "the object that owns the bound keeps its constructor parameter"
_STARRED = "its one caller passes it through *args, which the AST cannot see"

#: ``(file under src/repro/, qualname, parameter)`` that no call passes,
#: and why each stays (DESIGN.md §3, "Which options anyone sets").
SET_BY_NOBODY = {
    ("obs/adaptive.py", "AdaptiveController.__init__", "audit_capacity"):
        _OWNER_BOUND,
    ("obs/events.py", "EventJournal.__init__", "capacity"):
        _OWNER_BOUND + "; tests set it through **kwargs helpers",
    ("obs/trace.py", "TraceCollector.__init__", "capacity"):
        _OWNER_BOUND + "; tests set it through **kwargs helpers",
    ("obs/profiler.py", "QueryProfiler.begin", "project"):
        _STARRED + " (profiler.begin(*profile))",
    ("obs/profiler.py", "QueryProfiler.begin", "batch"):
        _STARRED + " (profiler.begin(*profile))",
    ("shard/database.py", "ShardedDatabase.__init__", "_adopt"):
        "ShardedDatabase.adopt passes it as cls(...)",
    ("util/varint.py", "decode_svarint", "offset"):
        "reference decoder: mirrors decode_uvarint's offset",
}


def _defaulted_parameters() -> dict[str, list]:
    """Every public callable under ``src/`` with defaulted parameters, by
    the name a call uses (a class's own name for its ``__init__``):
    ``[(file, qualname, positional names, defaulted names)]``."""
    found = defaultdict(list)

    def visit(rel: str, node: ast.AST, owner: ast.ClassDef | None = None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(rel, child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = owner.name if owner and child.name == "__init__" else child.name
                if called.startswith("_") or (owner and owner.name.startswith("_")):
                    continue
                args = child.args
                pos = [a.arg for a in args.posonlyargs + args.args]
                if owner is not None and pos[:1] in (["self"], ["cls"]):
                    pos = pos[1:]
                defaulted = set(pos[len(pos) - len(args.defaults):] if args.defaults else ())
                defaulted |= {
                    k.arg for k, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                }
                if defaulted:
                    qual = f"{owner.name}.{child.name}" if owner else child.name
                    found[called].append((rel, qual, pos, defaulted))

    for path in sorted(MODULES.values()):
        visit(path.relative_to(SRC / "repro").as_posix(), ast.parse(path.read_text()))
    return found


def _passed(defaulted: dict[str, list]) -> set[tuple[str, str, str]]:
    """The defaulted parameters some call in the repo passes, by keyword or
    by enough positional arguments to reach them; ``*args`` and
    ``**kwargs`` pass nothing the AST can see.  Matched by name, so
    "passed" is an upper bound and "passed by nobody" is exact."""
    passed = set()
    for top in ("src", "bench", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                npos = sum(not isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords if k.arg}
                for rel, qual, pos, names in defaulted.get(name, ()):
                    passed.update((rel, qual, p) for p in (keywords | set(pos[:npos])) & names)
    return passed


def test_no_parameter_is_set_by_nobody():
    """One value in use is a constant: a defaulted public parameter that no
    call in the repo passes becomes its value, unless ``SET_BY_NOBODY``
    says why it stays — and an entry that gains a call site goes."""
    defaulted = _defaulted_parameters()
    unset = {
        (rel, qual, p)
        for entries in defaulted.values()
        for rel, qual, _, names in entries
        for p in names
    } - _passed(defaulted)
    assert sorted(unset - SET_BY_NOBODY.keys()) == []
    assert sorted(SET_BY_NOBODY.keys() - unset) == []


# -- one metrics reset ----------------------------------------------------------

#: ``(file under src/repro/, qualname)`` that may reset an instrument it
#: holds, and why.
INSTRUMENT_RESETS = {
    ("obs/rollup.py", "FleetRollup.refresh"):
        "each fleet histogram is re-merged",
}

#: Names of the per-component reset paths ``MetricsRegistry.reset`` replaced.
GONE_RESET_METHODS = {"reset_metrics", "reset_stats", "add_obs_reset_hook"}


def _instrument_locals(fn: ast.FunctionDef) -> set[str]:
    """Names ``fn`` binds to an instrument: the result of a registry's
    ``counter``/``gauge``/``histogram``/``get``, or a loop variable over an
    expression that reads an ``_m_*`` attribute or a registry's
    ``items()``/``values()``."""
    def reads_instruments(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr.startswith("_m_"):
                return True
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("items", "values")
                    and re.search(r"metrics|reg", ast.unparse(sub.func.value))):
                return True
        return False

    bound = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "counter", "gauge", "histogram", "get"
            ):
                bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.For) and reads_instruments(node.iter):
            bound |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
    return bound


def _reset_paths(src_root: Path) -> tuple[set, list[str]]:
    """``(functions that reset an instrument, per-component reset paths)``
    under ``src_root`` (a ``src/repro`` tree), ``obs/registry.py`` aside."""
    resets, paths = set(), []

    def visit(rel: str, node: ast.AST, owner: str | None = None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(rel, child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{owner}.{child.name}" if owner else child.name
                if child.name in GONE_RESET_METHODS:
                    paths.append(f"{rel}: def {qual}")
                args = child.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg == "reset_obs":
                        paths.append(f"{rel}: {qual}(reset_obs)")
                held = _instrument_locals(child)
                for call in ast.walk(child):
                    if not (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "reset"):
                        continue
                    receiver = call.func.value
                    if (isinstance(receiver, ast.Attribute) and receiver.attr.startswith("_m_")
                            or isinstance(receiver, ast.Name) and receiver.id in held):
                        resets.add((rel, qual))
                visit(rel, child, owner)

    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel != "obs/registry.py":
            visit(rel, ast.parse(path.read_text()))
    return resets, paths


def test_only_the_registry_zeroes_instruments():
    """``MetricsRegistry.reset`` is the engine's one metrics reset (DESIGN.md
    §3): no function under ``src/`` resets an instrument it holds, unless
    ``INSTRUMENT_RESETS`` says why, and no per-component reset path
    (``reset_obs``, ``reset_metrics``, ``reset_stats``,
    ``add_obs_reset_hook``) comes back."""
    resets, paths = _reset_paths(SRC / "repro")
    assert sorted(resets - INSTRUMENT_RESETS.keys()) == []
    assert sorted(INSTRUMENT_RESETS.keys() - resets) == []
    assert paths == []


# -- one count per event ------------------------------------------------------

#: ``(file under src/repro/, qualname)`` that bumps a count field beside an
#: instrument for the same event, and why the registry does not adopt it.
TWIN_COUNTS: dict[tuple[str, str], str] = {}


def _blocks(node: ast.AST):
    """Every statement list directly under ``node``."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def _bumps_count(stmt: ast.stmt) -> bool:
    """``a.b += …`` on a public field."""
    return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
            and isinstance(stmt.target, ast.Attribute)
            and not stmt.target.attr.startswith("_"))


def _incs_instrument(stmt: ast.stmt) -> bool:
    """``…._m_x.inc(…)`` as a statement."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "inc"
            and isinstance(call.func.value, ast.Attribute)
            and call.func.value.attr.startswith("_m_"))


def _functions(src_root: Path):
    """``(rel, owner class, qualname, function)`` for every function under
    ``src_root``, nested ones too."""
    def visit(rel, node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(rel, child, child.name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield rel, owner, f"{prefix}{child.name}", child
                yield from visit(rel, child, owner, f"{prefix}{child.name}.")

    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        yield from visit(rel, ast.parse(path.read_text()), None, "")


def _twin_counts(src_root: Path) -> set[tuple[str, str]]:
    """Functions that bump a count field and ``_m_*.inc()`` within two
    statements of each other in one block: one event counted twice."""
    twins = set()
    for rel, _owner, qual, fn in _functions(src_root):
        for node in ast.walk(fn):
            for block in _blocks(node):
                for i, stmt in enumerate(block):
                    if _bumps_count(stmt) and any(
                        map(_incs_instrument, block[max(0, i - 2):i + 3])
                    ):
                        twins.add((rel, qual))
    return twins


def _delta_folds(src_root: Path) -> list[str]:
    """``…._m_x.inc(a - b)`` anywhere: a count kept elsewhere, copied into
    an instrument by difference, is that count twice."""
    return [
        f"{rel}: {qual}: {ast.unparse(stmt)}"
        for rel, _owner, qual, fn in _functions(src_root)
        for stmt in ast.walk(fn)
        if isinstance(stmt, ast.Expr) and _incs_instrument(stmt)
        and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                for arg in stmt.value.args)
    ]


def _chain(node: ast.AST) -> list[str] | None:
    """``self.a.b`` as ``["self", "a", "b"]``; None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(names)]


def _adopted_fields(src_root: Path) -> set[tuple[str, tuple[str, ...], str]]:
    """``(owner class, path from self to holder, field)`` for every
    ``….adopt(self[.path], {field: name})`` call under ``src_root``; a
    module-level dict named by the call is read too."""
    adopted = set()
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        consts = {
            t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)
        }
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for call in ast.walk(cls):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "adopt" and len(call.args) == 2):
                    continue
                holder, fields = call.args
                fields = consts.get(getattr(fields, "id", None), fields)
                assert isinstance(fields, ast.Dict), ast.unparse(call)
                chain = _chain(holder)
                if [key.value for key in fields.keys] == ["value"]:
                    continue  # another registry's Counter: read, never written
                assert chain and chain[0] == "self", ast.unparse(call)
                for key in fields.keys:
                    adopted.add((cls.name, tuple(chain[1:]), key.value))
    return adopted


def _foreign_writes(src_root: Path) -> list[str]:
    """Assignments to an adopted holder's field outside the class that
    adopted it (``index.stats.hits = 0``, ``pool.misses = 0``): a count the
    registry reads must only grow, except through the owner's own method."""
    adopted = _adopted_fields(src_root)
    writes = []
    for rel, owner, qual, fn in _functions(src_root):
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    chain = _chain(target)
                    # ``self.…`` is the writer's own state, whatever its name
                    if chain is None or len(chain) < 2 or chain[0] == "self":
                        continue
                    head = chain[:-1]
                    for cls, path, field in adopted:
                        if (cls != owner and chain[-1] == field
                                and tuple(head[len(head) - len(path):]) == path):
                            writes.append(
                                f"{rel}: {qual} writes {'.'.join(chain)}"
                            )
    return writes


def test_one_count_per_event():
    """A component's count is a plain int the registry adopts (DESIGN.md
    §5b): no function under ``src/`` bumps a count field and an ``_m_*``
    instrument for the same event unless ``TWIN_COUNTS`` says why, and no
    code outside the adopting class writes an adopted field (an experiment
    measures a phase from a baseline instead of zeroing it)."""
    twins = _twin_counts(SRC / "repro")
    assert sorted(twins - TWIN_COUNTS.keys()) == []
    assert sorted(TWIN_COUNTS.keys() - twins) == []
    assert _delta_folds(SRC / "repro") == []
    assert _foreign_writes(SRC / "repro") == []
    # the pool's 3, CachedBTree 8, IndexCache 7,
    # CacheInvalidation 3, FkJoinCache 4, RecoveryStats 4, AdaptiveStats 6,
    # ColumnarStats 5, ProfilerCounts 1, ShardRouter 1, the facade's fan-out
    # histogram 1: a miscount means the lint stopped seeing an adopt call
    assert len(_adopted_fields(SRC / "repro")) == 43


# -- one home for the journal ---------------------------------------------------

#: The classes that hold an event journal of their own: the engine's
#: tracer, the sharded facade (which has no tracer) and the health
#: checker built standalone (an adaptive controller reads and writes its
#: checker's).  Everything else reads its engine's tracer.
JOURNAL_HOLDERS = {"Tracer", "ShardedDatabase", "HealthChecker"}


def test_one_home_for_the_journal():
    """An engine's journal and shard id live on its tracer (DESIGN.md
    §5k): only ``JOURNAL_HOLDERS`` assign ``self.journal``, and
    ``journal_shard`` is only a parameter of recovery's entry points,
    which hand it to the rebuilt engine's tracer, never a field."""
    holders, shard_uses = set(), set()
    for _rel, owner, qual, fn in _functions(SRC / "repro"):
        for node in ast.walk(fn):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if any(_chain(t) == ["self", "journal"] for t in targets):
                holders.add(owner)
            if isinstance(node, ast.Attribute) and node.attr == "journal_shard":
                shard_uses.add(f"{qual}: attribute")
            name = getattr(node, "arg", None) or getattr(node, "id", None)
            if isinstance(node, (ast.arg, ast.Name)) and name == "journal_shard":
                shard_uses.add(qual.split(".")[0])
    assert holders == JOURNAL_HOLDERS
    assert shard_uses == {"recover", "_replay"}


# -- nothing only tests read ----------------------------------------------------

_SAFETY = "safety or reference code"
_TOOL = "a tool tests hold the engine with"
_TECHNIQUE = "a paper technique with no driver yet (DESIGN.md §3)"
_CAPABILITY = "a capability whose tests would be deleted, not re-routed"
_RESULT = "a field of a paper technique's result that the technique's tests read"
KEEP_CLASSES = {_SAFETY, _TOOL, _TECHNIQUE, _CAPABILITY, _RESULT}

#: ``(file under src/repro/, qualname)`` of public functions no driver
#: names, and the class each is kept under (DESIGN.md §3, "What stays
#: unreached, and why").
TEST_ONLY = {
    ("btree/tree.py", "BPlusTree.verify_order"): _SAFETY,
    ("util/varint.py", "encode_svarint"): _SAFETY,
    ("util/varint.py", "decode_svarint"): _SAFETY,
    ("storage/buffer_pool.py", "BufferPool.drop_clean"): _TOOL,
    ("storage/buffer_pool.py", "BufferPool.is_resident"): _TOOL,
    ("storage/buffer_pool.py", "BufferPool.pinned_pages"): _TOOL,
    ("core/index_cache/cache.py", "IndexCache.read_slot"): _TOOL,
    ("shard/database.py", "ShardedDatabase.resident_shard"): _TOOL,
    ("core/hot_cold/forwarding.py", "ForwardingTable.forget"): _TECHNIQUE,
    ("core/hot_cold/tracker.py", "AccessTracker.keys_above"): _TECHNIQUE,
    ("core/index_cache/cache.py", "IndexCache.invalidate_tuple"): _TECHNIQUE,
    ("core/index_cache/cached_index.py", "CachedBTree.cached_item_count"): _TECHNIQUE,
    ("core/index_cache/invalidation.py", "CacheInvalidation.after_restart"): _TECHNIQUE,
    ("query/executor.py", "FkJoinCache.join_fetch"): _TECHNIQUE,
    ("query/executor.py", "FkJoinCache.join_fetch_many"): _TECHNIQUE,
    ("txn/manager.py", "Session.transaction"): _CAPABILITY,
    ("util/bitpack.py", "packed_size"): _CAPABILITY,
    ("util/varint.py", "uvarint_size"): _CAPABILITY,
    ("util/stats.py", "StreamingStats.variance"): _CAPABILITY,
}

#: The trees a driver lives in (the option audit's driver set).
DRIVER_TREES = ("src", "bench", "benchmarks", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


@functools.cache
def _driver_modules(root: Path) -> tuple[ast.AST, ...]:
    """Every parsed file under ``DRIVER_TREES``, test directories aside."""
    return tuple(
        ast.parse(path.read_text())
        for top in DRIVER_TREES
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    )


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module uses: variables, attributes, imported names and
    identifier-shaped strings (``getattr`` targets, ``LAYER_ENTRYPOINTS``).
    A ``def`` names nothing, so a definition is not its own reference."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                used.add(node.value)
    return used


def _public_functions(src_root: Path):
    """``(file under src_root, qualname, name)`` for every module function
    and method of a public class whose name is public and not a dunder."""
    def visit(rel, node, prefix):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "name", "_").startswith("_"):
                continue
            if isinstance(child, ast.ClassDef):
                yield from visit(rel, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield rel, f"{prefix}{child.name}", child.name

    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        yield from visit(rel, ast.parse(path.read_text()), "")


def _test_only(root: Path) -> set[tuple[str, str]]:
    """Public functions under ``root/src`` whose name no driver file uses."""
    used = set().union(*map(_names_used, _driver_modules(root)))
    return {
        (rel, qual)
        for rel, qual, name in _public_functions(root / "src" / "repro")
        if name not in used
    }


def test_nothing_only_tests_read():
    """A function only tests call is inspection residue (DESIGN.md §3): a
    public function under ``src/`` that no driver names — the engine
    itself, ``bench/``, ``benchmarks/`` or ``examples/`` — goes, and its
    tests read what it computed from, unless ``TEST_ONLY`` names its keep
    class; an entry whose function gains a driver reference goes."""
    unread = _test_only(ROOT)
    assert sorted(unread - TEST_ONLY.keys()) == []
    assert sorted(TEST_ONLY.keys() - unread) == []
    assert set(TEST_ONLY.values()) <= KEEP_CLASSES


#: ``(file under src/repro/, "Class.field")`` of dataclass fields no driver
#: reads, and the class each is kept under (DESIGN.md §3, "Which fields
#: anyone reads"): the results of §2–§4 techniques, which their own tests
#: read.
TEST_ONLY_FIELDS = {
    ("core/hot_cold/cluster.py", "ClusterReport.hot_tuples"): _RESULT,
    ("core/hot_cold/cluster.py", "ClusterReport.moved"): _RESULT,
    ("core/hot_cold/cluster.py", "ClusterReport.skipped_missing"): _RESULT,
    ("core/hot_cold/partitioner.py", "PartitionStats.hot_rows"): _RESULT,
    ("core/hot_cold/partitioner.py", "PartitionStats.cold_rows"): _RESULT,
    ("core/index_cache/advisor.py", "AdvisorChoice.stability"): _RESULT,
    ("core/index_cache/advisor.py", "AdvisorChoice.capacity_factor"): _RESULT,
    ("core/index_cache/agg_cache.py", "AggregateStats.leaves_visited"): _RESULT,
    ("core/index_cache/agg_cache.py", "AggregateStats.leaves_computed"): _RESULT,
    ("core/index_cache/agg_cache.py", "AggregateStats.partial_leaves"): _RESULT,
    ("workload/trace.py", "ScenarioResult.capacity_start"): _RESULT,
    ("workload/trace.py", "ScenarioResult.capacity_end"): _RESULT,
}


def _dataclass_fields(src_root: Path):
    """``(file under src_root, "Class.field", field)`` for every annotated
    field of a ``@dataclass`` (``ClassVar`` ones aside)."""
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
                for d in cls.decorator_list
            ):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield rel, f"{cls.name}.{stmt.target.id}", stmt.target.id


def _names_read(tree: ast.AST) -> set[str]:
    """Attributes a module loads and identifier-shaped strings it spells
    (``getattr`` targets, snapshot keys).  A keyword argument or an
    assignment writes a field; neither reads it."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                read.add(node.value)
    return read


def _fields_only_tests_read(root: Path) -> set[tuple[str, str]]:
    """Dataclass fields under ``root/src`` whose name no driver file reads."""
    read = set().union(*map(_names_read, _driver_modules(root)))
    return {
        (rel, qual)
        for rel, qual, name in _dataclass_fields(root / "src" / "repro")
        if name not in read
    }


def test_no_field_only_tests_read():
    """A field no driver reads is a bit nobody uses (DESIGN.md §3): a
    dataclass field under ``src/`` whose name no driver loads goes, with
    the code that computes it, and its tests read the fact it copied (a
    counter, a journal payload, the log, the tree), unless
    ``TEST_ONLY_FIELDS`` names its keep class; an entry whose field gains a
    driver read goes."""
    unread = _fields_only_tests_read(ROOT)
    assert sorted(unread - TEST_ONLY_FIELDS.keys()) == []
    assert sorted(TEST_ONLY_FIELDS.keys() - unread) == []
    assert set(TEST_ONLY_FIELDS.values()) <= KEEP_CLASSES


# -- the one eviction policy ---------------------------------------------------

#: Victim of each of the 200 fetches ("." = none): page index 0-9.
LRU_VICTIMS = (
    "....074...0631.5.02149...138...1270.9.16085...074...0615.0.21.49"
    "...138...1270.9.16085...074...0631.5.02149...138...1270.9.16085"
    "...074...0631.5.02149...138...1270.9.16085...074...0631.5.02149"
    "...138...1"
)


def test_lru_trace_is_pinned():
    """Ten pages through four frames: two hot pages every third fetch, a
    stride walk over the other eight, one pin held across ten fetches (so
    the victim search skips a pinned frame)."""
    registry = MetricsRegistry()
    pool = BufferPool(SimulatedDisk(256), 4, registry=registry)
    pids = []
    for _ in range(10):
        pids.append(pool.new_page(PageType.HEAP).page_id)
        pool.unpin(pids[-1], dirty=True)
    pool.flush_all()
    pool.drop_clean()
    start = (pool.hits, pool.misses, pool.evictions)
    registry.reset()

    trace = [
        i % 2 if i % 3 == 0 else 2 + (i * 5 + i // 7) % 8 for i in range(200)
    ]
    victims = []
    held = None
    for step, index in enumerate(trace):
        before = {p for p in pids if pool.is_resident(p)}
        pool.fetch(pids[index])
        gone = before - {p for p in pids if pool.is_resident(p)}
        victims.append(str(pids.index(gone.pop())) if gone else ".")
        assert not gone  # at most one frame leaves per fetch
        if step == 50:
            held = pids[index]
        else:
            pool.unpin(pids[index])
        if step == 60:
            pool.unpin(held)

    assert "".join(victims) == LRU_VICTIMS
    assert (pool.hits, pool.misses, pool.evictions) == tuple(
        n + m for n, m in zip(start, (76, 124, 120))
    )
    pool.drop_clean()
    temperature = registry.get("bufferpool.page_temperature")
    assert temperature.nonzero_buckets() == [(2.0, 59), (4.0, 64), (8.0, 1)]
    assert temperature.sum == 200.0


# -- node bytes change only through the view ----------------------------------

#: Writers to a page's bytes outside ``storage/page.py``, by
#: ``(file, function)``.  A frame's view keeps a B+Tree node's decoded keys
#: and the page-type byte, which ``SlottedPage``'s own writes maintain or
#: drop (the write bracket's rollback is ``SlottedPage.restore``); these
#: touch neither.
VIEW_BYPASSES = {
    # the index cache writes inside the free window, where no record lies
    ("src/repro/core/index_cache/cache.py", "IndexCache.write_slot"),
    ("src/repro/core/index_cache/cache.py", "IndexCache.clear_slot"),
    ("src/repro/core/index_cache/cache.py", "IndexCache.zero_window"),
    ("src/repro/core/index_cache/cache.py", "IndexCache._swap_slots"),
}


def _page_byte_writers(path: Path) -> set[str]:
    """Functions in ``path`` that write a ``….buffer`` (or a local bound to
    one) by subscript assignment or ``pack_into``, or re-format one with
    ``SlottedPage.format``."""

    def is_buffer(node, aliases) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "buffer") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    def writes(fn) -> bool:
        aliases = {
            target.id
            for node in ast.walk(fn) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "buffer"
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AugAssign) else []
            )
            if any(isinstance(t, ast.Subscript) and is_buffer(t.value, aliases)
                   for t in targets):
                return True
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("pack_into", "format") and node.args
                    and is_buffer(node.args[0], aliases)):
                return True
        return False

    found = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if writes(child):
                    found.add(f"{prefix}{child.name}")

    visit(ast.parse(path.read_text()), "")
    return found


def test_node_bytes_written_only_through_the_view():
    """Outside ``storage/page.py`` nothing writes a page's bytes except
    ``VIEW_BYPASSES``: a write that skips the view would leave its decoded
    keys and type byte answering for bytes that are gone.  An entry that
    stops writing goes too."""
    writers = {
        (str(path.relative_to(ROOT)), name)
        for path in sorted(MODULES.values())
        if path != SRC / "repro" / "storage" / "page.py"
        for name in _page_byte_writers(path)
    }
    assert sorted(writers - VIEW_BYPASSES) == []
    assert sorted(VIEW_BYPASSES - writers) == []
