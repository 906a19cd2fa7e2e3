import ast
from pathlib import Path

import seqpava


def test_no_module_imports_private_names_of_another():
    for path in Path(seqpava.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "seqpava"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"
