"""Rules the package's source keeps as a whole."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import kwlab
from kwlab import ProblemInstance, TorusDomain, cli


def test_no_assert_statements():
    # contracts are explicit checks that raise; `python -O` strips an assert
    found = []
    for path in sorted(Path(kwlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_importing_the_cli_loads_no_scipy():
    # the Krylov and eigen kernels are the package's own: no run imports scipy
    code = ("import sys, kwlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(kwlab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_transforms_run_through_the_plan():
    # the transform is spelled once, in SpectralPlan, whose fft and ifft the
    # benchmark's tracer wraps by name: no n-d transform is called, and no
    # pocketfft gufunc imported, anywhere else. np.fft's frequency tables
    # stay free to use
    transforms = {"rfftn", "irfftn", "fftn", "ifftn"}
    found = []
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        plan = {id(node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "SpectralPlan"
                for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if id(node) in plan:
                continue
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in transforms:
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node.func)}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                if any("_pocketfft_umath" in name or name in transforms for name in names):
                    found.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_every_config_key_is_read():
    # a key whose typed value nothing reads is a setting that changes nothing
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    assert set(cli.KEYS) - read == set()


def test_no_config_key_shares_a_name_with_an_option():
    # each setting has one spelling: --out and --config, and the mode, are
    # read by the parser and never as config keys
    path = Path(cli.__file__)
    options = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "add_argument" and isinstance(node.args[0], ast.Constant):
                options.add(node.args[0].value.lstrip("-"))
            options |= {kw.value.value for kw in node.keywords
                        if kw.arg == "dest" and isinstance(kw.value, ast.Constant)}
    assert {"out", "config", "mode"} <= options
    assert set(cli.KEYS) & options == set()


def test_readme_names_every_config_key():
    # the README's key list is written by hand; it must name every key of the
    # one key table and no key the table has dropped
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"Keys: (.*?)\.\s", readme, re.DOTALL).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(cli.KEYS)


def test_readme_names_every_mode():
    # the README's mode list is written by hand; it must name exactly the
    # modes the CLI accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"Modes: (.*?)\.\s", readme, re.DOTALL).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(cli.MODES)


def _defaults(tree):
    """Every (name, default) a tree spells: a function's parameters with
    their defaults, and a class body's annotated fields with their values."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            yield from ((arg.arg, d) for arg, d in
                        zip(positional[len(positional) - len(a.defaults):], a.defaults))
            yield from ((arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.value:
            yield node.target.id, node.value


def test_no_solve_setting_has_a_literal_default():
    # a solve's max_iters default is spelled once, as solvers.MAX_ITERS, and
    # a search's tol as threshold.ALPHA_TOL or LAMBDA_TOL; every signature
    # reads them
    found = []
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        for name, default in _defaults(ast.parse(path.read_text(), filename=str(path))):
            if name not in ("max_iters", "tol"):
                continue
            try:
                value = ast.literal_eval(default)
            except ValueError:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(f"{path.stem}:{default.lineno} {name}={value!r}")
    assert found == []


def test_the_convergence_tolerance_is_read_in_solvers_only():
    # every solve converges at solvers.RESIDUAL_TOL, which no caller passes
    # down: no function takes a residual_tol, and no other module reads it.
    # Within solvers it is compared in two functions, Newton's and the loop
    # the corrector and the fold solve share
    found, compared = [], set()
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "residual_tol":
                found.append(f"{path.stem}:{node.lineno} parameter residual_tol")
            if path.stem != "solvers" and "RESIDUAL_TOL" in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)):
                found.append(f"{path.stem}:{node.lineno} reads RESIDUAL_TOL")
        if path.stem == "solvers":
            compared = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                        for node in ast.walk(fn) if isinstance(node, ast.Compare)
                        for name in ast.walk(node)
                        if isinstance(name, ast.Name) and name.id == "RESIDUAL_TOL"}
    assert found == []
    assert compared == {"newton_solve", "_extended_newton"}


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE constant that nothing in the package reads
    # is a setting that changes nothing, such as a tuning value left behind
    # by the code it tuned
    assigned, read = set(), set()
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned |= {(path.stem, name.id) for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and name.id.isupper()}
        read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert assigned
    assert sorted(f"{stem}.{name}" for stem, name in assigned if name not in read) == []


def _public_defs(tree):
    """Public module functions, and public methods and properties of public
    classes: each qualified name with its node."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names(tree):
    """Every identifier a tree names: variables, attributes, and strings (a
    name patched by its string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_has_a_caller():
    # library surface only tests reach is code the program does not run;
    # __init__.py only re-exports, so its imports and __all__ call nothing.
    # read_field is the documented reader of the CLI's field files.
    package = Path(kwlab.__file__).parent
    bench = Path(__file__).parents[1] / "perfbench"
    defs, named = {}, set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == package:
            defs.update(_public_defs(tree))
        if path.name != "__init__.py":
            named.update(_names(tree))
    uncalled = {q for q, node in defs.items() if node.name not in named}
    assert uncalled == {"read_field"}


def _stored_fields(tree):
    """(class, field) of every field a class stores: the annotated fields of
    its body, a dataclass's or a NamedTuple's, and the attributes its
    __init__ sets on self."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield cls.name, item.target.id
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield from ((cls.name, node.attr) for node in ast.walk(item)
                            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_every_stored_field_is_read():
    # a field the program never reads is a record of nothing: it is stored,
    # copied and documented for no reader
    package = Path(kwlab.__file__).parent
    bench = Path(__file__).parents[1] / "perfbench"
    stored, read = set(), set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == package:
            stored.update(_stored_fields(tree))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert {f"{cls}.{name}" for cls, name in stored if name not in read} == set()


def test_no_function_takes_what_its_field_fixes():
    # a field carries its grid, the grid its plan and d = len(sizes), and
    # n = d/2: a function of a field or an instance that also takes a
    # domain, plan or n takes a second copy that can disagree with the
    # first, and so would a grid that stored d beside its sizes
    found = []
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _public_defs(tree):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            fielded = any(a.annotation is not None
                          and re.search(r"\b(ScalarField|ProblemInstance)\b",
                                        ast.unparse(a.annotation)) for a in args)
            if fielded and {a.arg for a in args} & {"domain", "plan", "n"}:
                found.append(f"{path.stem}.{name}")
    assert found == []
    assert [f.name for f in dataclasses.fields(ProblemInstance)] == ["S", "alpha"]
    assert [f.name for f in dataclasses.fields(TorusDomain)] == ["sizes", "lengths"]



def _references(node, name, fn=None):
    """(enclosing function, node) of every Name, attribute and import of name."""
    if isinstance(node, ast.FunctionDef):
        fn = node.name
    if (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name):
        yield fn, node
    for child in ast.iter_child_nodes(node):
        yield from _references(child, name, fn)


def test_every_eigen_solve_goes_through_stability_eigenvalue():
    # one path to λ_min: the benchmark's tracer counts the solves at the
    # attribute spectral.min_eigenvalue, and the callers of
    # problem.stability_eigenvalue thread each solve's start vector
    found = []
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, fn, ast.unparse(node))
                  for fn, node in _references(tree, "min_eigenvalue")]
    assert found == [("problem", "stability_eigenvalue", "spectral.min_eigenvalue")]


def _qualified(tree):
    """(qualified name of the enclosing function, node) of every node of a
    module: a method as Class.method, module level as None."""
    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    yield from walk(tree, None)


def test_n_is_half_of_d_in_one_place():
    # n = d/2 is spelled once, as ProblemInstance.n, which every other
    # reader of n asks; and no equation code branches on the dimension.
    # TorusDomain's input check and the CLI's default sizes are facts of the
    # grid and the config, so the second rule leaves domain and cli out
    halvers, found = set(), []
    for path in sorted(Path(kwlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _qualified(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Div))
                    and "d" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))):
                halvers.add(f"{path.stem}.{scope}")
                if f"{path.stem}.{scope}" != "problem.ProblemInstance.n":
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if (path.stem in ("problem", "solvers", "threshold", "diagnostics")
                    and isinstance(node, ast.Compare)
                    and any(isinstance(x, ast.Attribute) and x.attr == "d"
                            for x in [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
    assert "problem.ProblemInstance.n" in halvers
