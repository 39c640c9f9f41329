"""The library's public surface: every public top-level function or class of
``bslcert`` is referred to somewhere else in the package, or is kept for a
reason named in KEPT.  A name that only tests reach moves into the tests or
goes, and a KEPT entry goes once the library calls the name.
"""

import ast
import pathlib

import bslcert

PACKAGE = pathlib.Path(bslcert.__file__).parent

# names no library code refers to, each with the reason it stays in the library;
# se_g_values and ps_g_values need no entry: g_values calls them
KEPT = {
    "inaccurate_prior_bound": "the paper's bound for an estimated initial prior; "
                              "ROADMAP item 1 gives it a caller",
    "tv_to_w1_bound": "the paper's TV-to-W1 conversion; ROADMAP item 4 gives it a caller",
    "two_output_bound": "the paper's bound between two approximate sequences; "
                        "ROADMAP items 2 and 4 give it a caller",
    "literature_ratio": "acceptance criterion 2 checks the paper's comparison with it",
    "scaled_hellinger": "acceptance criterion 6 checks the paper's scaled-measure distance",
    "c_vi_tilde_estimate": "estimates c_vi_tilde, the input vi-bound takes for type-2 bounds",
}


def _unreferenced() -> dict:
    """{name: "module.py:line"} for each public top-level def or class that no
    name, attribute or import anywhere in the package refers to, outside the
    lines of its own definition."""
    defs, refs = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node.name] = (path.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                refs.append((name, path.name, node.lineno))
    return {name: f"{module}:{first}" for name, (module, first, last) in defs.items()
            if not any(ref == name and (where != module or not first <= line <= last)
                       for ref, where, line in refs)}


def test_every_public_name_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    assert {n: where for n, where in unreferenced.items() if n not in KEPT} == {}
    # an entry whose name gained a caller, or left the library, goes too
    assert sorted(set(KEPT) - set(unreferenced)) == []
