"""The library's public surface.

Every public top-level function or class of ``bslcert``, and every public
method or property of such a class, is referred to somewhere else in the
package.  Every defaulted parameter of a public function or method is passed
by some call in the package: by keyword, by position, or through ``*`` or
``**``, and every defaulted ``__init__`` field of a public dataclass by some
construction.  A call that passes an option its default literal does not
count.  What no library code uses stays only for a reason named in KEPT.  A
name or an option that only tests reach moves into the tests or goes, and a
KEPT entry goes once the library uses what it names.

The checks go by name, not by type: a member counts as used when any
attribute of its name is, a parameter as passed when any call of a
function or method of its name passes it, and a field as set when any call
of its class's name does.
"""

import ast
import pathlib

import bslcert

PACKAGE = pathlib.Path(bslcert.__file__).parent

# what no library code uses, each with the reason it stays in the library: a
# top-level name, a "Class.member", or the unpassed options of a function or
# the unset fields of a dataclass as "function(option, ...)"; se_g_values and
# ps_g_values need no entry: g_values calls them
KEPT = {
    "inaccurate_prior_bound": "the paper's bound for an estimated initial prior; "
                              "ROADMAP item 1 gives it a caller",
    "tv_to_w1_bound": "the paper's TV-to-W1 conversion; ROADMAP item 4 gives it a caller",
    "two_output_bound": "the paper's bound between two approximate sequences; "
                        "ROADMAP items 2 and 4 give it a caller",
    "literature_ratio": "acceptance criterion 2 checks the paper's comparison with it",
    "scaled_hellinger": "acceptance criterion 6 checks the paper's scaled-measure distance",
    "c_vi_tilde_estimate": "estimates c_vi_tilde, the input vi-bound takes for type-2 bounds",
    "BoundLedger.replay_consistent": "checks a ledger against its recursion; ROADMAP item 10's "
                                     "ledger sidecars give it a caller",
    "main(argv)": "cli.main's argument list: the tests drive the CLI through it",
    "LikelihoodModel.custom(declared_sup, declared_lip)":
        "the certified-constant input for a custom inverse-problem likelihood",
}


def _modules() -> list:
    """(file name, syntax tree) for each module of the package."""
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def _public_defs(modules) -> list:
    """(qualified name, node, file name) for each public top-level function or
    class, and each public method or property of a public class."""
    defs = []
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((node.name, node, module))
                if isinstance(node, ast.ClassDef):
                    defs += [(f"{node.name}.{m.name}", m, module) for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


def _unreferenced() -> dict:
    """{qualified name: "module.py:line"} for each public definition whose name
    no name, attribute or import anywhere in the package refers to, outside the
    lines of its own definition."""
    modules, refs = _modules(), []
    for module, tree in modules:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                refs.append((name, module, node.lineno))
    return {qualname: f"{module}:{node.lineno}" for qualname, node, module in _public_defs(modules)
            if not any(ref == qualname.rsplit(".", 1)[-1]
                       and (where != module or not node.lineno <= line <= node.end_lineno)
                       for ref, where, line in refs)}


def _passes(call: ast.Call, option: str, position, default) -> bool:
    """Whether a call may pass an option a value other than its literal
    ``default`` (an ``ast.dump``; None for a default factory): by keyword,
    through ``*`` or ``**``, or as its positional argument number ``position``
    (None: keyword-only)."""
    given = [k.value for k in call.keywords if k.arg == option]
    if position is not None and len(call.args) > position:
        given.append(call.args[position])
    return (any(k.arg is None for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or any(ast.dump(value) != default for value in given))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def _field_options(node: ast.ClassDef) -> list:
    """(field, position, default) for each defaulted ``__init__`` field of a
    dataclass; the default is the ``ast.dump`` of its literal, or None for a
    ``default_factory``, which any passed value differs from."""
    options, position = [], 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value, name = item.value, item.target.id
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if "init" in keywords and not ast.literal_eval(keywords["init"]):
                continue
            if "default" in keywords:
                options.append((name, position, ast.dump(keywords["default"])))
            elif "default_factory" in keywords:
                options.append((name, position, None))
        elif value is not None:
            options.append((name, position, ast.dump(value)))
        position += 1
    return options


def _parameter_options(qualname: str, node: ast.FunctionDef) -> list:
    """(parameter, position, default) for each defaulted parameter of a function
    or method; the default is the ``ast.dump`` of its literal."""
    # a call of a method other than a static one passes self or cls implicitly
    bound = "." in qualname and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                        for d in node.decorator_list)
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    options = [(p.arg, first + i - bound, ast.dump(default))
               for i, (p, default) in enumerate(zip(positional[first:], args.defaults))]
    return options + [(p.arg, None, ast.dump(default))
                      for p, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def _unpassed() -> dict:
    """{"function(option, ...)": "module.py:line"} for each public function or
    method with defaulted parameters that no call in the package passes, and
    each public dataclass with defaulted fields that no construction sets."""
    modules = _modules()
    calls = [node for _, tree in modules for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = {}
    for qualname, node, module in _public_defs(modules):
        name = qualname.rsplit(".", 1)[-1]
        sites = [c for c in calls if name == (c.func.id if isinstance(c.func, ast.Name) else
                                              getattr(c.func, "attr", None))]
        if isinstance(node, ast.ClassDef):
            options = _field_options(node) if _is_dataclass(node) else []
        else:
            options = _parameter_options(qualname, node)
        unset = [option for option, position, default in options
                 if not any(_passes(call, option, position, default) for call in sites)]
        if unset:
            found[f"{qualname}({', '.join(unset)})"] = f"{module}:{node.lineno}"
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    assert {n: where for n, where in _unreferenced().items() if n not in KEPT} == {}


def test_every_option_is_passed_or_has_a_reason():
    assert {n: where for n, where in _unpassed().items() if n not in KEPT} == {}


def test_every_kept_entry_is_still_unused():
    # an entry whose name gained a caller, whose options a call passes, or that
    # left the library, goes too
    assert sorted(set(KEPT) - set(_unreferenced()) - set(_unpassed())) == []
