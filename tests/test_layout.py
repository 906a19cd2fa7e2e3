import ast
import subprocess
import sys
from pathlib import Path

import seqpava


def test_no_module_imports_private_names_of_another():
    for path in Path(seqpava.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "seqpava"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


def test_command_line_imports_neither_bench_nor_oracle():
    # the timing harness and the oracle load when first named, not at start-up
    code = (
        "import sys, seqpava.cli; "
        "print(sorted(m for m in ('seqpava.bench', 'seqpava.oracle') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_every_public_name_resolves():
    for name in seqpava.__all__:
        assert getattr(seqpava, name) is not None
    namespace = {}
    exec("from seqpava import *", namespace)
    assert set(seqpava.__all__) <= set(namespace)
    assert seqpava.bench.generate_dataset is seqpava.generate_dataset
    assert seqpava.oracle.check_fit is seqpava.check_fit
