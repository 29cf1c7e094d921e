"""What a ``dlucky`` process imports, and the public names of the lazy package.

``import dlucky`` imports no submodule: each public name is imported from its
home module on first access.  A fresh process compiles every module it
imports when bytecode is not cached, so each command of the CLI must import
only the modules it runs.  The child processes here are compared with a bare
interpreter, so modules that ``site`` loads do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlucky
from dlucky import CliqueRecord, ConflictReport, Graph, LabeledFamily, Labeling, SolveResult

SRC = str(Path(dlucky.__file__).resolve().parent.parent)
# the child prints the modules it holds once its code has run
REPORT = "import sys; print(' '.join(sorted(sys.modules)), file=sys.stderr)"
RUN_CLI = f"import sys\nfrom dlucky.cli import main\ntry:\n    main(sys.argv[1:])\nfinally:\n    {REPORT}"

# modules of the package that each command loads, besides ``dlucky`` and ``dlucky.cli``
BASE = {"graph", "labeling", "serialize"}
COMMANDS = [
    (("gen", "corona", "--n", "3", "--r", "1", "-o", "g.json"), BASE | {"families"}),
    (("gen", "complete", "--n", "3", "-o", "k.json"), BASE),
    (("label", "corona", "--n", "3", "--r", "1", "-o", "l.json"), BASE | {"families"}),
    (("verify", "g.json", "l.json"), BASE),
    (("verify", "g.json", "l.json", "--json"), BASE),
    (("export-dot", "g.json", "--labeling", "l.json"), BASE | {"dot"}),
    (("bound", "g.json", "--json"), BASE | {"_search", "bounds", "parts"}),
    (("solve", "g.json", "--json"), BASE | {"_search", "bounds", "solver"}),
    (("--help",), BASE),
]


def loaded_modules(code: str, *argv: str, cwd=None) -> set[str]:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    return set(done.stderr.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare():
    return loaded_modules(REPORT)


def test_import_dlucky_loads_nothing_else(bare):
    assert loaded_modules(f"import dlucky\n{REPORT}") - bare == {"dlucky"}


def test_attribute_access_loads_only_the_home_module(bare):
    added = loaded_modules(f"import dlucky; dlucky.Graph; dlucky.dot\n{REPORT}") - bare
    ours = {m for m in added if m.startswith("dlucky")}
    assert ours == {"dlucky", "dlucky.graph", "dlucky.dot", "dlucky.labeling"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("cli")
    for argv, _ in COMMANDS[:3]:
        loaded_modules(RUN_CLI, *argv, cwd=cwd)
    assert {p.name for p in cwd.iterdir()} == {"g.json", "k.json", "l.json"}
    return cwd


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[
    "gen-corona", "gen-complete", "label", "verify", "verify-json", "export-dot", "bound",
    "solve", "help",
])
def test_each_command_loads_only_its_modules(bare, inputs, argv, expected):
    added = loaded_modules(RUN_CLI, *argv, cwd=inputs) - bare
    assert "dataclasses" not in added
    ours = {m.removeprefix("dlucky.") for m in added if m.startswith("dlucky.")}
    assert ours == expected | {"cli"}


def test_public_names_resolve_to_their_home_modules():
    for module, names in dlucky._EXPORTS.items():
        home = getattr(dlucky, module)
        assert home.__name__ == f"dlucky.{module}"
        for name in names:
            assert getattr(dlucky, name) is getattr(home, name), name
    assert dlucky.__all__ == list(dlucky._HOME)
    assert len(set(dlucky.__all__)) == len(dlucky.__all__) == 39
    assert dlucky.ConstructionError is dlucky.families.ConstructionError
    assert dlucky._search.search and dlucky.parts.lower_bound_hall and dlucky.cli.main


def test_dir_and_star_import_cover_every_public_name():
    assert set(dlucky.__all__) <= set(dir(dlucky))
    assert {"solver", "parts", "__version__"} <= set(dir(dlucky))
    namespace = {}
    exec("from dlucky import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dlucky.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dlucky.no_such_name
    with pytest.raises(ImportError):
        exec("from dlucky import no_such_name", {})


def test_records_keep_their_fields_and_repr_and_are_immutable():
    records = [
        (CliqueRecord(vertices=(0, 1), delta=1, max_deg=2),
         "CliqueRecord(vertices=(0, 1), delta=1, max_deg=2)"),
        (ConflictReport(conflicts=(((0, 1), 2),), d_sums=(2, 2)),
         "ConflictReport(conflicts=(((0, 1), 2),), d_sums=(2, 2))"),
        (LabeledFamily(graph=Graph(2, [(0, 1)]), labeling=Labeling([1, 2]), claimed_eta=2,
                       role_index={"clique": (0, 1)}),
         "LabeledFamily(graph=Graph(n=2, m=1), labeling=Labeling([1, 2], k_max=2), "
         "claimed_eta=2, role_index={'clique': (0, 1)})"),
        (SolveResult(eta=None, witness=None, nodes_explored=7, k_tried=3),
         "SolveResult(eta=None, witness=None, nodes_explored=7, k_tried=3)"),
    ]
    for record, text in records:
        assert repr(record) == text
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert not records[1][0].is_d_lucky
    assert records[3][0].exceeded
    # the records are tuples: they unpack and equal a tuple of the same values
    clique = records[0][0]
    assert clique == ((0, 1), 1, 2) and tuple(clique) == clique
    vertices, delta, max_deg = clique
    assert (vertices, delta, max_deg) == ((0, 1), 1, 2)
