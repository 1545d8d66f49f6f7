"""Every public top-level function and class of the package is reached by the program.

A name is reached when some module of `src/musedec` or `perfbench` names it
outside its own definition: as a name, an attribute, an import alias, or a
string constant (the benchmark tracer wraps functions by their names).  What
only tests call is a second surface to keep in step with the first, so it
fails here unless it is one of the test oracles below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "musedec"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# test oracles: public names that only tests reach, each with its reason
ORACLES = {
    "grad_check": "finite-difference reference for the gradients of every graph (criteria 1 and 9)",
    "mean_average_precision": "checks mAP alone, including the AP of a class whose AUC is undefined (criterion 4)",
    "macro_auc": "checks macro AUC alone, apart from mAP and Hamming distance (criterion 4)",
}


def _names(node):
    """Every name `node` mentions: names, attributes, import aliases and string constants."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unreached():
    """Public top-level functions and classes of the package that no program module names."""
    defined, used = {}, set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if path.parent == PACKAGE:
                    own = node.name
                    defined[own] = f"{path.stem}.{own}"
            used.update(name for name in _names(node) if name != own)
    return sorted(qual for name, qual in defined.items() if name not in used)


def test_every_public_definition_is_reached():
    stray = [qual for qual in unreached() if qual.rsplit(".", 1)[1] not in ORACLES]
    assert stray == [], f"reached only by tests, if at all: {stray}"


def test_every_oracle_is_still_unreached():
    # an oracle that the program has come to call needs no place on the list
    assert sorted(qual.rsplit(".", 1)[1] for qual in unreached()) == sorted(ORACLES)
