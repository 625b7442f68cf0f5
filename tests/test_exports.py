"""Module hygiene: every exported name resolves, and every imported name is read."""

import ast
import importlib
from pathlib import Path

import pytest

import fracwave

PACKAGE = Path(fracwave.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fracwave.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"fracwave.{node.module}")
            for alias in node.names:
                if not hasattr(module, alias.name) or not hasattr(fracwave, alias.asname or alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert missing == []


def _unread_imports(tree: ast.Module) -> list:
    """Names the module's imports bind that no expression of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert _unread_imports(tree) == []


# kept as a test oracle, which nothing in the package calls
UNREAD_ON_PURPOSE = {"fractional.caputo_derivative_01"}


def _definitions(name: str, tree: ast.Module) -> list:
    """(qualified name, bare name) of the module's functions and classes and of its classes' methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((f"{name}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{name}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def _reads(tree: ast.Module) -> set:
    """Names the module reads: loaded names, attributes, and names imported relatively."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            read.update(alias.name for alias in node.names)
    return read


def test_every_definition_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = [
        qualified
        for name, tree in trees.items()
        for qualified, bare in _definitions(name, tree)
        if bare not in read and qualified not in UNREAD_ON_PURPOSE
    ]
    assert unread == []


def _environment_reads(tree: ast.Module) -> list:
    """Lines where the module reads the process environment: os.environ, os.getenv, or either imported from os."""
    names = {"environ", "getenv", "environb", "getenvb"}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ]
    found += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os" and names & {alias.name for alias in node.names}
    ]
    return sorted(found)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_module_reads_the_environment(name):
    # every setting of a run is in its config and its command line, where the manifest records it
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert _environment_reads(tree) == []


def test_the_environment_check_sees_every_spelling():
    text = "import os\nfrom os import getenv\na = os.environ['X']\nb = os.getenv('Y')\n"
    assert _environment_reads(ast.parse(text)) == [2, 3, 4]


# every spatial transform crosses the real half spectrum through fractional's pair;
# these run along time, take the full spectrum of a field that is not real, or
# only build frequencies
FFT_OUTSIDE_THE_PAIR = {
    "fractional._half_spectra",
    "fractional._samples",
    "fractional.SpatialGrid.xi",  # fftfreq, no transform
    "stochastic._convolve_time",
    "duhamel._mode_resolvents",
    "duhamel._mode_volterra",
    "regularization.make_mollifier",  # the kernel's full symbol
    "regularization._power_start",
    "regularization.operator_norm_estimate",
}


def _fft_uses(name: str, tree: ast.Module) -> list:
    """(enclosing definition, line) of every np.fft attribute and every import of numpy's fft module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "np"
        ):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Import) and any(alias.name.startswith("numpy.fft") for alias in node.names):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.fft")
            or (node.module == "numpy" and any(alias.name == "fft" for alias in node.names))
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, name)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_fft_lies_in_the_half_spectrum_pair_or_the_allowlist(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert [use for use in _fft_uses(name, tree) if use[0] not in FFT_OUTSIDE_THE_PAIR] == []


def test_the_fft_check_sees_every_spelling():
    text = (
        "import numpy.fft\nfrom numpy import fft\nfrom numpy.fft import rfft\n"
        "def f(x):\n    return np.fft.rfft(x)\n"
        "class C:\n    def g(self):\n        def h():\n            return np.fft.irfft\n"
    )
    assert _fft_uses("m", ast.parse(text)) == [("m", 1), ("m", 2), ("m", 3), ("m.f", 5), ("m.C.g.h", 9)]
