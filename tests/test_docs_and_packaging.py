"""Documentation and packaging hygiene checks.

A release-quality library keeps its public surface documented and its
metadata consistent; these tests enforce that mechanically:

* every public module, class and function in ``repro`` carries a
  docstring;
* the module doctest in ``repro.net.arpa`` runs;
* the console entry points declared in pyproject.toml exist;
* DESIGN.md's per-experiment index references only bench files that
  exist, and every bench file is referenced somewhere in the docs;
* every dotted ``repro.…`` name in README.md, DESIGN.md and
  EXPERIMENTS.md resolves to a real module or attribute.
"""

import doctest
import importlib
import inspect
import os
import pkgutil

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve_dotted(name):
    """Import the longest module prefix of ``name``, then getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ImportError(name)


def iter_public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = [
            module.__name__
            for module in iter_public_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert missing == []

    def test_every_public_callable_documented(self):
        missing = []
        for module in iter_public_modules():
            for name, member in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(member) or inspect.isfunction(member)):
                    continue
                if getattr(member, "__module__", None) != module.__name__:
                    continue  # re-exports documented at their home
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
                if inspect.isclass(member):
                    for method_name, method in vars(member).items():
                        if method_name.startswith("_"):
                            continue
                        if not inspect.isfunction(method):
                            continue
                        if (method.__doc__ or "").strip():
                            continue
                        # An override documented on a base class is fine.
                        inherited = any(
                            (getattr(base, method_name, None) is not None
                             and (getattr(base, method_name).__doc__ or "").strip())
                            for base in member.__mro__[1:]
                        )
                        if not inherited:
                            missing.append(
                                f"{module.__name__}.{name}.{method_name}"
                            )
        assert missing == [], f"undocumented: {missing[:20]}"

    def test_arpa_doctest(self):
        from repro.net import arpa

        results = doctest.testmod(arpa)
        assert results.failed == 0
        assert results.attempted >= 1


class TestPackaging:
    def test_console_entry_points_exist(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
            text = handle.read()
        import re

        for match in re.finditer(r'^repro-[\w-]+ = "([\w.]+):(\w+)"', text, re.M):
            module_name, function_name = match.groups()
            module = importlib.import_module(module_name)
            assert hasattr(module, function_name), match.group(0)

    def test_version_is_set(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for module in iter_public_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestDocsReferenceRealFiles:
    def test_design_mentions_every_bench(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as handle:
            design = handle.read()
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as handle:
            experiments = handle.read()
        docs = design + experiments
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for name in os.listdir(bench_dir):
            if name.startswith("bench_") and name.endswith(".py"):
                assert name in docs, f"{name} undocumented in DESIGN/EXPERIMENTS"

    def test_docs_reference_only_existing_benches(self):
        import re

        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as handle:
            design = handle.read()
        for name in set(re.findall(r"bench_\w+\.py", design)):
            assert os.path.exists(
                os.path.join(REPO_ROOT, "benchmarks", name)
            ), f"DESIGN.md references missing {name}"

    def test_examples_listed_in_readme(self):
        with open(os.path.join(REPO_ROOT, "README.md")) as handle:
            readme = handle.read()
        examples_dir = os.path.join(REPO_ROOT, "examples")
        for name in os.listdir(examples_dir):
            if name.endswith(".py"):
                assert name in readme, f"examples/{name} missing from README"

    def test_docs_reference_only_existing_names(self):
        import re

        missing = set()
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            with open(os.path.join(REPO_ROOT, doc)) as handle:
                text = handle.read()
            for name in set(re.findall(r"\brepro(?:\.\w+)+", text)):
                try:
                    resolve_dotted(name)
                except (ImportError, AttributeError):
                    missing.add(f"{doc}: {name}")
        assert sorted(missing) == []
