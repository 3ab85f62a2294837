"""Source hygiene: no module of the package imports a name it never uses,
defines a private top-level name no module reads, a public one that only
tests read (the named oracles aside) or has a config field no module
reads, every time loop runs through ``integrate``, every package
name the benchmark harness (``bench/``) imports or wraps, and every
attribute it reads off one, exists, and its tracer reads a run, so a rename
fails here rather than in a traced benchmark run."""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlslab"
BENCH = PACKAGE.parents[1] / "bench"


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n\nx = np.pi * tau\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list:
    """Private top-level names (``_x``, not dunders) of each module that no
    module of ``sources`` (module name -> text) reads.  A read is a loaded
    name, an attribute or an imported name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name} (line {node.lineno})" for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return sorted(unread)


def test_checker_finds_an_unread_private_name():
    sources = {
        "a": "_used = 1\n_dead = 2\n__all__ = []\n\ndef _helper():\n    return _used\n",
        "b": "from a import _helper as h\n\nclass _Orphan:\n    pass\n",
    }
    assert unread_private_names(sources) == ["a._dead (line 2)", "b._Orphan (line 3)"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_fields(sources: dict, classes: dict) -> list:
    """Annotated fields of ``classes`` (module name -> class names) that no
    module of ``sources`` reads as an attribute outside the class's own
    body: a field only its own class validates or uses is a knob nothing
    turns."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    unread = []
    for module, names in classes.items():
        for cls in (n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name in names):
            own = {id(node) for node in ast.walk(cls)}
            read = {
                node.attr for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in own
            }
            unread += [
                f"{module}.{cls.name}.{node.target.id}" for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.target.id not in read
            ]
    return sorted(unread)


def test_checker_finds_an_unread_field():
    sources = {
        "a": "class Config:\n    used: int\n    knob: int = 0\n\n"
             "    def check(self):\n        return self.knob > 0\n",
        "b": "def run(c):\n    return c.used\n",
    }
    assert unread_fields(sources, {"a": ["Config"]}) == ["a.Config.knob"]


def test_config_fields_are_all_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    classes = {"evolution": ["EvolveConfig", "NoiseSetup"], "scenario": ["ScenarioConfig"]}
    assert unread_fields(sources, classes) == []


STEP_KERNELS = ("step_strang", "step_gnls", "_step_strang_values", "_step_gnls_values")


def step_kernel_callers(sources: dict) -> list:
    """``module.name`` of each top-level function or class of ``sources``
    (module name -> text) that calls a step kernel (``module`` alone for a
    call outside any)."""
    callers = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) in STEP_KERNELS:
                    callers.add(f"{module}.{name}" if name else module)
    return sorted(callers)


def test_checker_finds_a_step_kernel_caller():
    sources = {
        "a": "def march(g, v):\n    return _step_strang_values(g, v, 1e-3, 5.0)\n\n"
             "class Runner:\n    def go(self, f):\n        return evolution.step_strang(f, 0.1, 5.0)\n\n"
             "def other(f):\n    return step_kernel(f)\n",
        "b": "v = step_gnls(f, 0.1, 5.0, None)\n",
    }
    assert step_kernel_callers(sources) == ["a.Runner", "a.march", "b"]


def test_every_march_runs_through_integrate():
    # one clock: only integrate steps a field in time; the other callers
    # are the single-step wrappers around the kernels
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    allowed = {"evolution.integrate", "evolution.step_strang", "evolution.step_gnls",
               "evolution._step_gnls_values"}
    assert sorted(set(step_kernel_callers(sources)) - allowed) == []


# public names no run, command or benchmark reads: independent oracles the
# tests check the run's own code against, each with what it checks
ORACLES = (
    ("diagnostics.functionals", "mass, H and ||grad v|| of one field by quadrature, "
     "against the recorder's Parseval sums"),
    ("diagnostics.build_cutoff", "the cut-off of the virial drift identity (criterion 11)"),
    ("diagnostics.virial_evolution_residual", "the virial drift identity from snapshots (criterion 11)"),
    ("exact.blowup_modulation_scale", "the exact bubble's scale, against modulation_fit"),
    ("noise.finite_difference_derivative", "finite differences against the profiles' "
     "analytic derivatives and their flatness"),
)


def _is_command(node) -> bool:
    """Decorated as a click command or group (``@main.command(...)``)."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unread_public_names(readers: dict, modules) -> list:
    """Public top-level functions and classes of ``modules`` (names of
    ``readers``, name -> text) that no text of ``readers`` reads outside
    their own body, click commands aside: a name only tests read is a second
    copy of a check.  A read is a loaded name, an attribute or an imported
    name."""
    trees = {name: ast.parse(text) for name, text in readers.items()}
    reads = {}  # name -> ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            reads.setdefault(name, set()).add(id(node))
    unread = []
    for module in modules:
        for top in trees[module].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_") or _is_command(top):
                continue
            own = {id(node) for node in ast.walk(top)}
            if not reads.get(top.name, set()) - own:
                unread.append(f"{module}.{top.name}")
    return sorted(unread)


def test_checker_finds_an_unread_public_name():
    sources = {
        "a": "import click\n\n@click.group()\ndef main():\n    pass\n\n"
             "@main.command('go')\ndef go_cmd():\n    return helper()\n\n"
             "def helper():\n    return 1\n\ndef oracle():\n    return oracle\n\n"
             "class Result:\n    pass\n",
        "b": "from a import helper as h\n\ndef _private():\n    return h\n",
    }
    assert unread_public_names(dict(sources, bench="import a\n\nx = a.Result\n"), sources) == ["a.oracle"]
    assert unread_public_names(sources, sources) == ["a.Result", "a.oracle"]


def test_every_public_name_has_a_reader():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = dict(sources, **{f"bench/{path.name}": path.read_text() for path in sorted(BENCH.glob("*.py"))})
    unread = unread_public_names(readers, sources)
    oracles = [name for name, _ in ORACLES]
    assert [name for name in unread if name not in oracles] == []
    # and no oracle has gained a reader (or left the package) unnoticed
    assert sorted(oracles) == [name for name in unread if name in oracles]


# ---------------------------------------------------------------------------
# the names the benchmark harness reaches into


def _tracing_module():
    """bench/tracing.py executed into a fresh module, without a bytecode
    cache written next to it."""
    path = BENCH / "tracing.py"
    mod = types.ModuleType("bench_tracing")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def _tracing_table(name: str) -> tuple:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py assigns no {name}")


def _resolves(dotted: str) -> bool:
    """``dotted`` names an object: a module of the package followed by
    attributes (``nlslab.cli.main.main``), submodules imported as needed."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif hasattr(obj, "__path__") and importlib.util.find_spec(".".join(parts[:i])):
            obj = importlib.import_module(".".join(parts[:i]))
        else:
            return False
    return True


def unresolved_names(source: str) -> list:
    """Names a module imports from ``nlslab``, and attribute chains it reads
    off them (``ground_profile.cache_clear``, ``cli.main``), that do not
    exist in the package."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlslab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nlslab" and alias.asname is None:
                    bound["nlslab"] = "nlslab"
    missing = {path for path in bound.values() if not _resolves(path)}
    for node in ast.walk(tree):
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if chain and isinstance(root, ast.Name) and root.id in bound:
            path = ".".join([bound[root.id], *chain])
            if bound[root.id] not in missing and not _resolves(path):
                missing.add(path)
    return sorted(missing)


def test_checker_finds_an_unresolved_name():
    source = (
        "import nlslab.grid\nfrom nlslab import cli\n"
        "from nlslab.ground_state import ground_profile, no_such_solver\n\n"
        "ground_profile.cache_clear()\nground_profile.no_such_hook()\n"
        "cli.main.main([])\ncli.no_such_command\nnlslab.grid.make_grid\nnlslab.grid.no_such_name\n"
    )
    assert unresolved_names(source) == [
        "nlslab.cli.no_such_command",
        "nlslab.grid.no_such_name",
        "nlslab.ground_state.ground_profile.no_such_hook",
        "nlslab.ground_state.no_such_solver",
    ]


def test_bench_names_exist_in_package():
    missing = [
        f"tracing.py: {row[0]}.{row[1]}"
        for row in _tracing_table("WRAPPED") + _tracing_table("KERNELS")
        if not _resolves(f"{row[0]}.{row[1]}")
    ]
    for path in sorted(BENCH.glob("*.py")):
        missing += [f"{path.name}: {name}" for name in unresolved_names(path.read_text())]
    assert missing == []


def test_bench_tracer_uninstall_restores_every_original():
    tracing = _tracing_module()
    for row in tracing.WRAPPED + tracing.KERNELS:
        importlib.import_module(row[0])
    modules = [m for n, m in sys.modules.items() if n == "nlslab" or n.startswith("nlslab.")]
    before = [(m, dict(vars(m))) for m in modules]
    path_cls = sys.modules["nlslab.noise"].BrownianPath
    refine = path_cls.refine
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert path_cls.refine is not refine
        assert any(
            vars(m).get(k) is not v for m, snap in before for k, v in snap.items()
        )
    finally:
        tracer.uninstall()
    assert path_cls.refine is refine
    changed = [
        f"{m.__name__}.{k}" for m, snap in before for k, v in snap.items() if vars(m).get(k) is not v
    ]
    assert changed == []


def test_bench_tracer_reads_a_noise_run():
    # the tracer reads the config and the trajectory after each wrapped
    # call, so a reshaped Trajectory fails here, not in a traced bench run
    from nlslab import evolution
    from nlslab.grid import ComplexField, make_grid
    from nlslab.noise import ProfileSpec

    tracing = _tracing_module()
    for row in tracing.WRAPPED + tracing.KERNELS:
        importlib.import_module(row[0])
    grid = make_grid(1, 40.0, 64)
    v0 = ComplexField(grid, np.exp(-grid.radius_squared()).astype(complex))
    noise = evolution.NoiseSetup(ProfileSpec(kind="schwartz", amplitude=0.1, n_modes=2), seed=3)
    cfg = evolution.EvolveConfig(
        p=5.0, v0=v0, t0=0.0, t1=1.0, dt0=1e-3, noise=noise, max_steps=10
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traj = evolution.integrate(cfg)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert traj.n_steps == 10
    assert metrics["evolution.integrate.calls"] == 1
    assert metrics["evolution.steps"] == traj.n_steps
    # the drive refines the path lazily, never through BrownianPath.refine
    assert metrics["noise.refine.calls"] == 0
    assert metrics["noise.coefficient_fields.calls"] >= traj.n_steps
