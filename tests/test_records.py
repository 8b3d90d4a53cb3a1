"""The package's records and values: construction, immutability, equality, and import footprint.

HNumber and HVector2 are slots classes; the other records are named
tuples.  None of them may need ``dataclasses`` at import, and importing
``qlra.cli`` loads no ``random`` either, nor the object layer that defines them,
nor ``qlra.synthetic``, where the code of ``generate``, ``sweep`` and ``demo-violation`` lives.
The library's entry points and ``qlra.synthetic`` load neither the CLI, ``argparse``
nor the object layer.  README's library examples print what their comments say.
"""

import ast
import contextlib
import copy
import io
import json
import os
import pickle
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import qlra
from qlra import (
    BornReport,
    Direction,
    EquivalenceVerdict,
    InterferenceProfile,
    ProbContext,
    QlraState,
    Regime,
)
from qlra.algebra import HNumber
from qlra.linear import HVector2
from qlra.synthetic import ViolationReport

TESTS = Path(__file__).parent
M = ((0.9, 0.1), (0.1, 0.9))
PSI = HVector2(HNumber(1.2, 0.3), HNumber(-0.4, 0.5))
PROFILE = InterferenceProfile((4 / 3, -4 / 3), (1, -1), (0.79, 0.79), Regime.HYPERBOLIC)
# PSI as QlraState holds it: its null-cone coordinates; M as QlraState holds it: its diagonal.
AMPLITUDE = (PSI.c1.u, PSI.c1.v, PSI.c2.u, PSI.c2.v)
DIAGONAL = M[0][0]

# (class, positional arguments, the same as keywords)
RECORDS = [
    (HNumber, (1.5, -0.25), {"re": 1.5, "hy": -0.25}),
    (HVector2, (HNumber(1.0, 2.0), HNumber(3.0)), {"c1": HNumber(1.0, 2.0), "c2": HNumber(3.0)}),
    (
        InterferenceProfile,
        PROFILE,
        {"lam": PROFILE.lam, "epsilon": PROFILE.epsilon, "theta": PROFILE.theta, "regime": PROFILE.regime},
    ),
    (
        ProbContext,
        ((0.5, 0.5), (0.9, 0.1), M, M),
        {"p_a": (0.5, 0.5), "p_b": (0.9, 0.1), "p_b_given_a": M, "p_a_given_b": M},
    ),
    (
        QlraState,
        (AMPLITUDE, Direction.B_GIVEN_A, PROFILE, DIAGONAL, (0.5, 0.5), -1),
        {
            "amplitude": AMPLITUDE,
            "direction": Direction.B_GIVEN_A,
            "profile": PROFILE,
            "diagonal": DIAGONAL,
            "conditioning_marginals": (0.5, 0.5),
            "sign_choice": -1,
        },
    ),
    (
        BornReport,
        ((1e-16, 2e-16), (3e-16, 0.0)),
        {"conditioned_residuals": (1e-16, 2e-16), "conditioning_residuals": (3e-16, 0.0)},
    ),
    (
        ViolationReport,
        (0.3, 0.7, M, 0.1, 0.01, 1e-17),
        {
            "p": 0.3,
            "q": 0.7,
            "matrix": M,
            "basis_overlap": 0.1,
            "basis_overlap_sq": 0.01,
            "lambda_relation_residual": 1e-17,
        },
    ),
    (
        EquivalenceVerdict,
        (True, 0.25, -1, 1e-16, True),
        {"equivalent": True, "gamma": 0.25, "sign": -1, "max_component_deviation": 1e-16, "symmetry_holds": True},
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def fields(obj) -> tuple[str, ...]:
    return getattr(obj, "_fields", None) or obj.__slots__


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls, args, kwargs", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, args, kwargs):
    obj = cls(*args)
    for name in fields(obj):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_defaults():
    # Every state and verdict comes from analyze: _state sets sign_choice, _verdict symmetry_holds.
    assert QlraState._field_defaults == {}
    assert EquivalenceVerdict._field_defaults == {}
    ctx = ProbContext((0.5, 0.5), (0.9, 0.1), M)
    assert ctx.p_a_given_b is None and ctx.a_given_b_defaulted


def test_record_methods_and_properties():
    assert BornReport((1e-16, 4e-16), (3e-16, 0.0)).max_residual == 4e-16
    state = QlraState(AMPLITUDE, Direction.B_GIVEN_A, PROFILE, DIAGONAL, (0.5, 0.5), 1)
    assert state.psi == PSI
    with pytest.raises(AttributeError):
        state.psi = None


def test_values_are_equal_only_to_their_own_class():
    z = HNumber(1.0)
    assert z != 1.0 and z != (1.0, 1.0)
    assert HVector2(z, z) != (z, z)
    assert HNumber(1.0, 2.0) != HNumber(1.0, 2.5)
    assert {HNumber(0.5, 0.5), HNumber(0.5, 0.5)} == {HNumber(0.5, 0.5)}


def test_reprs():
    assert repr(HNumber(1.0, -2.0)) == "HNumber(re=1.0, hy=-2.0)"
    assert repr(HVector2(HNumber(0.5, 0.25), 3)) == (
        "HVector2(c1=HNumber(re=0.5, hy=0.25), c2=HNumber(re=3.0, hy=0.0))"
    )


def test_prob_context_parses_every_construction(ctx1):
    assert ProbContext.from_dict(ctx1.to_dict()) == ctx1
    assert ProbContext(["0.5", 0.5], [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]]).p_a == (0.5, 0.5)
    assert ctx1._replace(p_b=(0.8, 0.2)).p_b == (0.8, 0.2)
    with pytest.raises(ValueError, match="field 'p_a'"):
        ctx1._replace(p_a=("x", 1))
    with pytest.raises(ValueError, match="field 'P_a_given_b'"):
        ProbContext._make(((0.5, 0.5), (0.9, 0.1), M, ((0.9, float("nan")), (0.1, 0.9))))


def _run_child(code: str) -> tuple[list[str], set[str]]:
    """Run ``import sys{code}`` in a -S child; return the lines it printed and the modules it ended with."""
    # The child imports the qlra under test, wherever pytest found it.
    src = str(Path(qlra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys{code}\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    *printed, modules = proc.stdout.splitlines()
    return printed, set(modules.split())


def _imported_modules(code: str) -> set[str]:
    return _run_child(code)[1]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S: no site, which on some installs loads random itself and hides qlra's import.
    added = _imported_modules(", qlra.cli") - _imported_modules("")
    assert "qlra.cli" in added
    assert not {"dataclasses", "inspect", "random", "qlra.algebra", "qlra.linear", "qlra.synthetic"} & added


def test_library_entry_points_load_no_cli_or_object_layer():
    # -S: no site-packages either, so a third-party import fails here.
    printed, modules = _run_child("""
import qlra
from qlra import *
M = ((0.9, 0.1), (0.1, 0.9))
ctx = ProbContext((0.5, 0.5), (0.9, 0.1), M, M)
print(repr(max(verify_born_rule(run_qlra(ctx, d), ctx).max_residual for d in Direction)))
print(check_consistency(ctx).equivalent, repr(proof_relation_residual(ctx)))
violations, _, verdict, residual = analyze(ctx)
print(violations, verdict.equivalent, repr(residual))""")
    born, consistency, analyzed = printed
    assert float(born) < 1e-9
    equivalent, residual = consistency.split()
    assert equivalent == "True" and float(residual) < 1e-9
    violations, equivalent, residual = analyzed.split()
    assert violations == "[]" and equivalent == "True" and float(residual) < 1e-9
    assert not {"qlra.cli", "argparse", "qlra.algebra", "qlra.linear", "qlra.synthetic"} & modules


def test_synthetic_data_loads_no_cli_or_object_layer():
    printed, modules = _run_child("""
import qlra.synthetic
ctx = qlra.synthetic.generate_hyperbolic_context(0.9, 0.5, 4 / 3)
print(qlra.interference_coefficients(ctx, qlra.Direction.B_GIVEN_A).regime.value)
print(qlra.synthetic.born_violation_demo(0.7).basis_overlap != 0.0)""")
    assert printed == ["hyperbolic", "True"]
    assert "qlra.synthetic" in modules
    assert not {"qlra.cli", "argparse", "qlra.algebra", "qlra.linear"} & modules


# The names generate, sweep and demo-violation had in qlra.cli before they moved to qlra.synthetic.
MOVED_COMMANDS = {"cmd_generate", "cmd_sweep", "cmd_demo_violation", "_parse_grid"}


def test_analyze_process_loads_no_synthetic_data(ctx1, tmp_path):
    assert "qlra.synthetic" not in _imported_modules(", qlra\nfrom qlra import *")
    path = tmp_path / "ctx1.json"
    path.write_text(json.dumps(ctx1.to_dict()))
    # After the run, the child prints which moved names qlra.cli still holds: as attributes, or anywhere in the code
    # objects of its functions and methods, nested ones included.
    printed, modules = _run_child(f""", qlra.cli, types
print(qlra.cli.main(['analyze', {str(path)!r}]))
names = {MOVED_COMMANDS!r}
found = names & set(vars(qlra.cli))
objects = [o for o in vars(qlra.cli).values() if getattr(o, "__module__", None) == "qlra.cli"]
objects += [f for cls in objects if isinstance(cls, type) for f in vars(cls).values()]
codes = [o.__code__ for o in objects if isinstance(o, types.FunctionType)]
while codes:
    code = codes.pop()
    found |= names & {{code.co_name, *code.co_names, *code.co_varnames, *code.co_consts}}
    codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
print(sorted(found))""")
    *report, found = printed
    assert "".join(line + "\n" for line in report) == (TESTS / "ctx1_report.json").read_text() + "0\n"
    assert found == "[]"
    assert not {"qlra.synthetic", "random", "qlra.algebra", "qlra.linear"} & modules


@pytest.mark.parametrize("argv, golden", [
    (["demo-violation", "--p", "0.7"], "demo_violation_report.json"),
    (["generate", "--p", "0.9", "--p-a1", "0.5", "--lambda", "1.3333333333"], "generate_ctx1.jsonl"),
    # These two reach qlra.cli's serializer and qlra.synthetic's module-level random.
    (["sweep", "--p-grid", "0.1:0.9:0.4", "--pa-grid", "0.5:0.5:0.1"], "sweep_small.csv"),
    (["generate", "--random", "--seed", "3", "--count", "2"], "generate_random_seed3.jsonl"),
], ids=["demo-violation", "generate", "sweep", "generate-random"])
def test_synthetic_commands_import_it_in_a_fresh_process(argv, golden):
    # In-process runs find qlra.synthetic already imported by other tests; a fresh process must import it itself.
    code = f", qlra.cli\nassert 'qlra.synthetic' not in sys.modules\nprint(qlra.cli.main({argv!r}))"
    printed, modules = _run_child(code)
    assert "".join(line + "\n" for line in printed) == (TESTS / golden).read_text() + "0\n"
    assert "qlra.synthetic" in modules


def test_synthetic_annotations_resolve():
    # Annotations are postponed strings; each name in them must be bound in the module for them to resolve.
    # That holds for qlra.synthetic and every other module: each public function and class, and each
    # property and public method of a class.  A module that imports the object layer only in function
    # bodies cannot name its classes in annotations.
    modules = (qlra.context, qlra.engine, qlra.equivalence, qlra.errors, qlra.synthetic, qlra.algebra, qlra.linear)
    for module in modules:
        for obj in (getattr(module, name) for name in module.__all__):
            if not callable(obj):  # a constant, such as TOLERANCE
                continue
            typing.get_type_hints(obj)
            for attr_name, attr in vars(obj).items() if isinstance(obj, type) else ():
                if isinstance(attr, property):
                    typing.get_type_hints(attr.fget)
                elif isinstance(attr, types.FunctionType) and not attr_name.startswith("_"):
                    typing.get_type_hints(attr)


def test_relation_residual_domain_error_loads_no_object_layer():
    # Component 1 of the a|b amplitude, (u, v) = (1.0, -1.0), lies off the cone; component 2 does not.
    printed, modules = _run_child("""
from qlra import ArgDomainError, Direction, InterferenceProfile, QlraState, Regime
from qlra.engine import _relation_residual
profile = InterferenceProfile((4 / 3, -4 / 3), (1, -1), (0.79, 0.79), Regime.HYPERBOLIC)
state_ab = QlraState((1.0, -1.0, 1.0, 1.0), Direction.A_GIVEN_B, profile, 0.9, (0.9, 0.1), 1)
state_ba = QlraState((1.0, 1.0, 1.0, 1.0), Direction.B_GIVEN_A, profile, 0.9, (0.5, 0.5), 1)
try:
    _relation_residual(state_ab, state_ba)
except ArgDomainError as exc:
    print(exc)""")
    assert printed == ["argument undefined for null-cone coordinates (1.0, -1.0): x^2 - y^2 <= 0"]
    assert "qlra.engine" in modules
    assert not {"qlra.algebra", "qlra.linear"} & modules


def test_package_root_reexports_each_module_all():
    modules = (qlra.context, qlra.engine, qlra.equivalence, qlra.errors)
    assert qlra.__all__ == ["__version__"] + [name for module in modules for name in module.__all__]
    assert len(set(qlra.__all__)) == len(qlra.__all__)
    assert all(hasattr(qlra, name) for name in qlra.__all__)
    assert not any(hasattr(qlra, name) for name in qlra.synthetic.__all__)  # imported on its own
    namespace = {}
    exec("from qlra import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qlra.__all__)
    # The census: every class and function a module defines under a public name is one its __all__ lists.
    unlisted = {
        f"{module.__name__}.{name}"
        for module in (*modules, qlra.algebra, qlra.linear, qlra.synthetic)
        for name, obj in vars(module).items()
        if isinstance(obj, (type, types.FunctionType)) and obj.__module__ == module.__name__
        and not name.startswith("_") and name not in module.__all__
    }
    assert unlisted == set()


# The imports a library module makes in a function body, as (module, function, imported module): the two object-layer
# handouts, which load qlra.algebra and qlra.linear on first use, and the forwarders between qlra.cli and
# qlra.synthetic.  Every other import is at a module's top, so the pipeline's imports run one way:
# context -> engine -> equivalence.
BODY_IMPORTS = {
    ("engine", "QlraState.psi", "algebra"),
    ("engine", "QlraState.psi", "linear"),
    ("equivalence", "transition_unitary", "algebra"),
    ("cli", "_synthetic", "synthetic"),
    ("synthetic", "_sweep", "cli"),
    ("synthetic", "_demo_violation", "cli"),
}


def test_imports_in_function_bodies_are_the_handouts_and_forwarders():
    found = set()

    def visit(node, module, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
                if isinstance(child, ast.ImportFrom) and child.module is not None:
                    targets = [child.module]
                else:  # import x, or from . import x
                    targets = [alias.name for alias in child.names]
                found.update((module, ".".join(scope), target) for target in targets)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_function or isinstance(child, ast.ClassDef):
                visit(child, module, [*scope, child.name], in_function or is_function)
            else:
                visit(child, module, scope, in_function)

    for path in sorted(Path(qlra.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [], False)
    assert found == BODY_IMPORTS, found ^ BODY_IMPORTS


def test_readme_python_blocks_print_what_their_comments_say():
    # The blocks run in order in one namespace, as a reader would paste them; each print call's line ends in a
    # comment with the exact line it prints.
    blocks = (TESTS.parent / "README.md").read_text().split("```python\n")[1:]
    code = [block.split("```")[0] for block in blocks]
    want = [line.partition("# ")[2] for block in code for line in block.splitlines() if line.startswith("print(")]
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in code:
            exec(block, namespace)
    assert out.getvalue().splitlines() == want == ["True True", "True True", "True", "True", "True"]
