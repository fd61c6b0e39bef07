"""Module boundaries of the library, read from its source."""

import ast
from pathlib import Path

import hooktab

# the neighbour rules tableaux shares on purpose with enumeration and switching
SHARED = {
    ("tableaux", "_all_fit"),
    ("tableaux", "_sorted_strict"),
    ("tableaux", "_exquisite_fits"),
}


def test_no_module_imports_another_modules_private_names():
    bad = []
    for path in sorted(Path(hooktab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            for name in (alias.name for alias in node.names):
                if name.startswith("_") and (node.module, name) not in SHARED:
                    bad.append(f"{path.name}:{node.lineno}: {node.module}.{name}")
    assert bad == []
